"""Acceptance gate: one test per shipping criterion, one printed verdict each.

Run with -s to see the verdict lines.  Every tolerance here is pinned; loosen
none of them.  Numeric cross-checks go through routes independent of the
closed forms they certify.
"""

import contextlib
import io
import json
import math

import numpy as np

from spinphase import (
    Orientation,
    PureState,
    berry_phase_analytic,
    berry_phase_entangled,
    concurrence_general,
    dispatch,
    emit,
    entangled_noise_shift,
    entanglement_entropy,
    equal_up_to_global_phase,
    evolve_bell,
    evolve_coefficients,
    general_state_circuit,
    holonomy_numeric,
    ket,
    matched_echo_params,
    monopole_strength_rg,
    noisy_phase,
    run_circuit,
    run_records,
    spin_echo_ledger,
    spinor_loop,
    spinor_state_circuit,
    swap_expectation,
)

TWO_PI = 2.0 * math.pi


def verdict(number, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] criterion {number:02d}: {label}")
    assert not failures, f"criterion {number:02d}: {label}\n" + "\n".join(failures)


def circular_distance(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def test_criterion_01_holonomy_matches_analytic_phases():
    failures = []
    for k in range(1, 12):
        theta = k * math.pi / 12.0
        for orientation in (Orientation.UP, Orientation.DOWN):
            got = holonomy_numeric(spinor_loop(orientation, theta, 20000)).value
            want = berry_phase_analytic(orientation, theta).mod_2pi()
            dev = circular_distance(got, want)
            if dev > 1e-6:
                failures.append(
                    f"{orientation.value} theta={theta!r}: deviation {dev:.3e} > 1e-6"
                )
    verdict(1, "20000-segment loop transport within 1e-6 of closed forms", failures)


def test_criterion_02_phase_pair_sums_to_two_pi():
    failures = []
    rng = np.random.default_rng(101)
    for theta in rng.uniform(0.0, math.pi, size=1000):
        up = berry_phase_analytic(Orientation.UP, float(theta)).value
        down = berry_phase_analytic(Orientation.DOWN, float(theta)).value
        if abs(up + down - TWO_PI) > 1e-12:
            failures.append(f"theta={theta!r}: sum off by {up + down - TWO_PI:.3e}")
    verdict(2, "up and down loop phases sum to 2*pi within 1e-12", failures)


def test_criterion_03_checkpoint_values():
    checks = [
        ("up(0)", berry_phase_analytic(Orientation.UP, 0.0).value, 0.0),
        ("up(pi)", berry_phase_analytic(Orientation.UP, math.pi).value, TWO_PI),
        ("up(pi/3)", berry_phase_analytic(Orientation.UP, math.pi / 3).value, math.pi / 2),
        ("ent(0)", berry_phase_entangled(0.0).value, TWO_PI),
        ("ent(pi/2)", berry_phase_entangled(math.pi / 2).value, 0.0),
    ]
    failures = [
        f"{name}: got {got!r}, want {want!r}"
        for name, got, want in checks
        if abs(got - want) > 1e-12
    ]
    verdict(3, "checkpoint phases exact to 1e-12", failures)


def test_criterion_04_preparation_circuits_hit_targets():
    failures = []
    thetas = np.linspace(0.05, math.pi - 0.05, 5)
    phis = np.linspace(-math.pi, math.pi, 5)
    for theta in thetas:
        for phi in phis:
            bindings = {"theta": float(theta), "phi": float(phi)}

            got = run_circuit(general_state_circuit(), bindings, ket("0"))
            want = PureState(np.array([
                math.cos(theta), math.sin(theta) * np.exp(1j * phi),
            ]))
            if not equal_up_to_global_phase(got, want, 1e-10):
                failures.append(f"general circuit off at theta={theta}, phi={phi}")

            got = run_circuit(spinor_state_circuit(), bindings, ket("0"))
            want = PureState(np.array([
                math.cos(theta / 2), math.sin(theta / 2) * np.exp(-1j * phi),
            ]))
            if not equal_up_to_global_phase(got, want, 1e-10):
                failures.append(f"spinor circuit off at theta={theta}, phi={phi}")
    verdict(4, "both preparation circuits reach targets to 1e-10 on 5x5 grid", failures)


def test_criterion_05_resonant_rotation():
    failures = []
    c0, c1 = evolve_coefficients(1.0, 0.0, 1.0, math.pi)
    if abs(c0) > 1e-12 or abs(c1 - 1j) > 1e-12:
        failures.append(f"pi pulse from ground: got ({c0!r}, {c1!r})")
    c0, c1 = evolve_coefficients(1.0, 0.0, 1.0, math.pi / 2)
    s = 1.0 / math.sqrt(2.0)
    if abs(c0 - s) > 1e-12 or abs(c1 - 1j * s) > 1e-12:
        failures.append(f"half-pi pulse from ground: got ({c0!r}, {c1!r})")

    rng = np.random.default_rng(202)
    for _ in range(1000):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        omega = float(rng.uniform(0.1, 4.0))
        t1 = float(rng.uniform(0.0, 6.0))
        t2 = float(rng.uniform(0.0, 6.0))
        a = evolve_coefficients(complex(v[0]), complex(v[1]), omega, t1)
        norm = abs(a[0]) ** 2 + abs(a[1]) ** 2
        if abs(norm - 1.0) > 1e-12:
            failures.append(f"norm drift {norm - 1.0:.3e} at omega={omega}, t={t1}")
            break
        b = evolve_coefficients(*a, omega, t2)
        direct = evolve_coefficients(
            complex(v[0]), complex(v[1]), omega, t1 + t2
        )
        if abs(b[0] - direct[0]) > 1e-9 or abs(b[1] - direct[1]) > 1e-9:
            failures.append(f"composition broke at omega={omega}, t1={t1}, t2={t2}")
            break
    verdict(5, "pinned pulse outputs and 1000 unitarity/composition checks", failures)


def test_criterion_06_matched_echo_cancels_dynamical_phase():
    ledger = spin_echo_ledger(*matched_echo_params())
    failures = []
    if abs(ledger.dynamical) > 1e-12:
        failures.append(f"dynamical = {ledger.dynamical!r}")
    if abs(abs(ledger.geometric) - math.pi) > 1e-12:
        failures.append(f"|geometric| = {abs(ledger.geometric)!r}")
    verdict(6, "matched echo: zero dynamical phase, |geometric| = pi", failures)


def test_criterion_07_bell_state_symmetry_response():
    failures = []
    s = math.sqrt(0.5)  # equal Bell weights
    state, rel = evolve_bell(s, s, math.pi / 3)
    if abs(rel - math.pi) > 1e-12:
        failures.append(f"relative phase at pi/3: {rel!r}")
    if abs(swap_expectation(state) - 1.0) > 1e-12:
        failures.append(f"swap at pi/3: {swap_expectation(state)!r}")
    state, rel = evolve_bell(s, s, math.pi)
    if circular_distance(rel, 0.0) > 1e-12:
        failures.append(f"relative phase at pi: {rel!r}")
    for theta in (0.0, math.pi):
        state, _ = evolve_bell(s, s, theta)
        if abs(swap_expectation(state) + 1.0) > 1e-12:
            failures.append(f"swap at theta={theta}: {swap_expectation(state)!r}")
    verdict(7, "loop turns the Bell state symmetric at pi/3 and back at the poles",
            failures)


def test_criterion_08_entanglement_measures():
    failures = []
    if entanglement_entropy(0.0) != 0.0:
        failures.append("entropy at C=0 not exactly 0")
    if entanglement_entropy(1.0) != 1.0:
        failures.append("entropy at C=1 not exactly 1")
    if abs(concurrence_general(*ket("01").amplitudes)) > 1e-15:
        failures.append("product state concurrence nonzero")
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(10000):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        c = abs(concurrence_general(*PureState(v).amplitudes))
        worst = max(worst, c)
        if c > 1.0 + 1e-12:
            failures.append(f"concurrence {c!r} above 1")
            break
    if not failures and worst == 0.0:
        failures.append("random sampling produced no entanglement at all")
    verdict(8, "concurrence bounded by 1 on 10000 random states, entropy endpoints exact",
            failures)


def test_criterion_09_noise_response():
    failures = []
    gp, _ = noisy_phase(Orientation.UP, math.pi / 2, 0.01)
    if abs(gp.value - 1.01 * math.pi) > 1e-12:
        failures.append(f"equator value {gp.value!r} != 1.01*pi")

    rng = np.random.default_rng(404)
    for _ in range(1000):
        theta = float(rng.uniform(0.0, math.pi))
        d = float(rng.uniform(-0.4, 0.4))
        up = noisy_phase(Orientation.UP, theta, d)[0].value
        down = noisy_phase(Orientation.DOWN, theta, d)[0].value
        if abs(up + down - TWO_PI) > 1e-12:
            failures.append(f"noisy pair sum off at theta={theta}, d={d}")
            break
        shift = noisy_phase(Orientation.UP, theta, d)[1]
        if entangled_noise_shift(theta, d) != 2.0 * shift:
            failures.append(f"entangled shift not exactly doubled at theta={theta}")
            break

    for _ in range(1000):
        theta = float(rng.uniform(0.0, math.pi - 0.1))
        d = float(rng.uniform(0.0, 0.1))
        noisy = noisy_phase(Orientation.UP, theta, d)[0].value
        exact = berry_phase_analytic(Orientation.UP, theta + d).value
        if abs(noisy - exact) > 0.5 * math.pi * d * d + 1e-12:
            failures.append(f"first-order bound broken at theta={theta}, d={d}")
            break
    verdict(9, "noisy pair sums to 2*pi, doubling exact, first-order bound holds",
            failures)


def test_criterion_10_strength_flow():
    failures = []
    seps = np.linspace(0.1, 50.0, 200)
    values = [monopole_strength_rg(0.7, 1.2, float(s)) for s in seps]
    for a, b in zip(values, values[1:]):
        if b > a + 1e-12:
            failures.append("strength increased with separation")
            break
    if any(v < 0.0 for v in values):
        failures.append("negative strength reported")
    frozen = [monopole_strength_rg(0.0, 0.9, float(s)) for s in (0.2, 1.0, 40.0)]
    if any(v != 0.9 for v in frozen):
        failures.append(f"zero decay rate did not freeze the flow: {frozen}")
    records = run_records(["rgflow", "--a", "2.0", "--c", "0.1", "--separation", "10.0"])
    if records[0].metadata.get("mu_clamped") != "true":
        failures.append("clamp not reported in record metadata")
    if records[0].outputs["mu"] != 0.0:
        failures.append("clamped strength not exactly zero")
    verdict(10, "strength flow nonincreasing, clamped at zero, clamp recorded", failures)


def test_criterion_11_cli_contract():
    failures = []

    argv = ["phase", "--spin", "up", "--theta", "1.0471975512"]
    records = run_records(argv)
    gamma = records[0].outputs["gamma"]
    if abs(gamma - math.pi / 2) > 1e-9:
        failures.append(f"example phase value {gamma!r} not close to pi/2")

    payload = emit(records, "json")
    if payload != emit(run_records(argv), "json"):
        failures.append("repeated runs not byte-identical")
    parsed = json.loads(payload)
    if parsed != [r.as_dict() for r in records]:
        failures.append("JSON round trip lost record content")

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    if code != 0:
        failures.append(f"example phase run exited {code}")
    if out.getvalue().encode() != payload:
        failures.append("stdout bytes differ from emitted payload")

    records = run_records(
        ["rabi", "--omega", "1", "--t", str(math.pi), "--c0", "1", "--c1", "0"]
    )
    outs = records[0].outputs
    final = complex(outs["c1_out_re"], outs["c1_out_im"])
    if abs(complex(outs["c0_out_re"], outs["c0_out_im"])) > 1e-12 or abs(final - 1j) > 1e-12:
        failures.append("example rabi run did not invert the ground state")

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(["phase", "--spin", "up", "--theta", "4.0"])
    if code != 1:
        failures.append(f"out-of-domain run exited {code}, want 1")
    if "theta out of [0, pi]" not in err.getvalue():
        failures.append(f"diagnostic missing from stderr: {err.getvalue()!r}")
    if out.getvalue():
        failures.append("error run wrote to stdout")

    verdict(11, "CLI determinism, JSON fidelity, pinned examples, exit codes", failures)
