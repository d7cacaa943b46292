"""Analytic loop phases against the discrete transport oracle.

The numeric side never reuses the closed forms: it transports gauge-fixed
states segment by segment and accumulates overlap arguments, so agreement is
evidence, not tautology.
"""

import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphase import (
    DegeneratePathError,
    DomainError,
    GeometricPhase,
    Loop,
    Orientation,
    PureState,
    berry_phase_analytic,
    berry_phase_entangled,
    connection,
    entangled_family_loop,
    holonomy_numeric,
    general_state_circuit,
    ket,
    mod_two_pi,
    prepare_spinor,
    run_circuit,
    spinor_loop,
    spinor_state_circuit,
    winding_phase,
    wrap_pm_pi,
)
from spinphase import berry, phases, states
from spinphase.phases import spinor_holonomy
from spinphase.states import unit_vector

TWO_PI = 2.0 * math.pi

def circular_distance(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


# the per-state loop construction that the array-native builders replaced,
# kept as their reference


def reference_spinor_loop(orientation, theta, segments):
    sign = 1.0 if orientation is Orientation.UP else -1.0
    return [
        prepare_spinor(orientation, theta, sign * TWO_PI * (k / segments))
        for k in range(segments + 1)
    ]


def reference_entangled_loop(theta, segments):
    out = []
    for k in range(segments + 1):
        phi = TWO_PI * (k / segments)
        up = prepare_spinor(Orientation.UP, theta, phi).amplitudes
        down = prepare_spinor(Orientation.DOWN, theta, phi).amplitudes
        raw = np.kron(up, down) - np.kron(down, up)
        out.append(PureState(raw / np.linalg.norm(raw)))
    return out


def exact_discrete_transport(orientation, theta, segments):
    """-N arg of the one overlap every segment of the latitude loop shares."""
    c2, s2 = math.cos(theta / 2.0) ** 2, math.sin(theta / 2.0) ** 2
    if orientation is Orientation.DOWN:
        c2, s2 = s2, c2
    return -segments * cmath.phase(c2 + s2 * cmath.exp(-2j * math.pi / segments))


# loop phases at hand-checked angles: (theta, up value, down value)
FROZEN_PHASES = [
    (0.0, 0.0, TWO_PI),
    (math.pi / 3, math.pi / 2, 3.0 * math.pi / 2),
    (math.pi / 2, math.pi, math.pi),
    (2.0 * math.pi / 3, 3.0 * math.pi / 2, math.pi / 2),
    (math.pi, TWO_PI, 0.0),
]


class TestPhaseContainer:
    def test_raw_keeps_value(self):
        assert GeometricPhase(TWO_PI).value == TWO_PI
        assert GeometricPhase(-7.0).value == -7.0

    def test_raw_zero_and_two_pi_stay_distinct(self):
        assert GeometricPhase(0.0) != GeometricPhase(TWO_PI)
        assert GeometricPhase(TWO_PI).mod_2pi() == 0.0

    def test_wrapped_reduces(self):
        assert GeometricPhase.wrapped(-math.pi).value == pytest.approx(math.pi)
        assert GeometricPhase.wrapped(5.0 * math.pi).value == pytest.approx(math.pi)

    def test_wrapped_range_enforced(self):
        # fmod(-tiny) + 2*pi rounds to 2*pi itself, which wrapped maps to 0
        for value in (-1e-300, -5e-324, math.nextafter(TWO_PI, 0.0), TWO_PI, -0.1, 1e300):
            assert 0.0 <= GeometricPhase.wrapped(value).value < TWO_PI

    def test_nonfinite_rejected(self):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="phase must be finite"):
                GeometricPhase(value)
            for reduce in (GeometricPhase.wrapped, mod_two_pi, wrap_pm_pi):
                with pytest.raises(DomainError, match="angle must be finite"):
                    reduce(value)

    def test_wrapped_negative_zero_is_positive_zero(self):
        for value in (-0.0, 0.0, -TWO_PI, TWO_PI):
            wrapped = GeometricPhase.wrapped(value).value
            assert wrapped == 0.0 and math.copysign(1.0, wrapped) == 1.0


class TestWindingPhase:
    def test_half_winding_full_turn_flips_sign(self):
        assert winding_phase(0.5, TWO_PI) == pytest.approx(-1.0)

    def test_integer_winding_full_turn_is_trivial(self):
        assert winding_phase(1.0, TWO_PI) == pytest.approx(1.0)

    def test_half_winding_double_turn_restores(self):
        assert winding_phase(0.5, 2.0 * TWO_PI) == pytest.approx(1.0)

    @given(st.floats(-5.0, 5.0), st.floats(-20.0, 20.0))
    def test_unit_modulus(self, mu, dchi):
        assert abs(winding_phase(mu, dchi)) == pytest.approx(1.0, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError, match="^mu and delta_chi must be finite$"):
            winding_phase(math.nan, 1.0)
        # finite inputs whose product overflows
        for mu, delta_chi in ((1e308, 1e308), (1e200, -1e200)):
            with pytest.raises(DomainError, match=r"^winding angle mu\*delta_chi is not finite$"):
                winding_phase(mu, delta_chi)


class TestConnection:
    @pytest.mark.parametrize("theta,up_value", [
        (0.0, 0.0),
        (math.pi / 2, 0.5),
        (math.pi, 1.0),
    ])
    def test_up_values(self, theta, up_value):
        assert connection(Orientation.UP, theta) == pytest.approx(up_value, abs=1e-15)

    @given(st.floats(0.0, math.pi))
    def test_up_down_sum_to_one(self, theta):
        total = connection(Orientation.UP, theta) + connection(Orientation.DOWN, theta)
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError, match=r"out of \[0, pi\]"):
            connection(Orientation.UP, -0.1)


class TestAnalyticPhases:
    @pytest.mark.parametrize("theta,up_value,down_value", FROZEN_PHASES)
    def test_frozen_values(self, theta, up_value, down_value):
        assert berry_phase_analytic(Orientation.UP, theta).value == pytest.approx(
            up_value, abs=1e-12
        )
        assert berry_phase_analytic(Orientation.DOWN, theta).value == pytest.approx(
            down_value, abs=1e-12
        )

    def test_raw_convention(self):
        # the full solid angle reads 2*pi, not the 0 of a wrapped phase
        assert berry_phase_analytic(Orientation.UP, math.pi).value == pytest.approx(TWO_PI)

    @given(st.floats(0.0, math.pi))
    @settings(max_examples=200)
    def test_pair_sums_to_two_pi(self, theta):
        up = berry_phase_analytic(Orientation.UP, theta).value
        down = berry_phase_analytic(Orientation.DOWN, theta).value
        assert up + down == pytest.approx(TWO_PI, abs=1e-12)

    @given(st.floats(0.0, math.pi))
    def test_monotone_in_solid_angle(self, theta):
        # the up phase grows with the enclosed solid angle
        eps = 1e-6
        if theta + eps > math.pi:
            return
        lo = berry_phase_analytic(Orientation.UP, theta).value
        hi = berry_phase_analytic(Orientation.UP, theta + eps).value
        assert hi >= lo

    def test_entangled_checkpoints(self):
        assert berry_phase_entangled(0.0).value == pytest.approx(TWO_PI, abs=1e-12)
        assert berry_phase_entangled(math.pi / 2).value == pytest.approx(0.0, abs=1e-12)
        assert berry_phase_entangled(math.pi).value == pytest.approx(TWO_PI, abs=1e-12)

    @given(st.floats(0.0, math.pi))
    def test_entangled_range(self, theta):
        v = berry_phase_entangled(theta).value
        assert 0.0 <= v <= TWO_PI + 1e-12


class TestHolonomyOracle:
    def test_loop_phase_matches_analytic_up(self):
        theta = 1.1
        got = holonomy_numeric(spinor_loop(Orientation.UP, theta, 4000))
        want = berry_phase_analytic(Orientation.UP, theta).mod_2pi()
        assert got.value == pytest.approx(want, abs=1e-6)

    def test_loop_phase_matches_analytic_down(self):
        theta = 2.0
        got = holonomy_numeric(spinor_loop(Orientation.DOWN, theta, 4000))
        want = berry_phase_analytic(Orientation.DOWN, theta).mod_2pi()
        assert got.value == pytest.approx(want, abs=1e-6)

    def test_convergence_improves_with_segments(self):
        theta = 0.8
        want = berry_phase_analytic(Orientation.UP, theta).mod_2pi()
        coarse = abs(holonomy_numeric(spinor_loop(Orientation.UP, theta, 50)).value - want)
        fine = abs(holonomy_numeric(spinor_loop(Orientation.UP, theta, 5000)).value - want)
        assert fine < coarse / 100.0

    def test_gauge_invariance_under_per_point_rephasing(self):
        rng = np.random.default_rng(42)
        loop = spinor_loop(Orientation.UP, 1.3, 500)
        base = holonomy_numeric(loop).value
        phases = rng.uniform(-math.pi, math.pi, size=len(loop))
        phases[-1] = phases[0]  # keep the loop closed
        rephased = [
            PureState(np.array(s.amplitudes) * np.exp(1j * p)) for s, p in zip(loop, phases)
        ]
        assert holonomy_numeric(rephased).value == pytest.approx(base, abs=1e-9)

    def test_open_path_rejected(self):
        loop = spinor_loop(Orientation.UP, 1.0, 100)
        with pytest.raises(DomainError, match="open path"):
            holonomy_numeric(loop[:-1])

    def test_orthogonal_consecutive_states_rejected(self):
        path = [ket("0"), ket("1"), ket("0")]
        with pytest.raises(DegeneratePathError):
            holonomy_numeric(path)

    def test_short_path_rejected(self):
        with pytest.raises(DomainError):
            holonomy_numeric([ket("0")])

    def test_mixed_qubit_counts_rejected(self):
        with pytest.raises(DomainError):
            holonomy_numeric([ket("0"), ket("00"), ket("0")])

    def test_trivial_loop_carries_no_phase(self):
        s = ket("0")
        assert holonomy_numeric([s, s, s]).value == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("build", [
        lambda n: spinor_loop(Orientation.UP, 0.0, n),
        lambda n: spinor_loop(Orientation.DOWN, 0.0, n),
        lambda n: entangled_family_loop(0.0, n),
        lambda n: [ket("0")] * (n + 1),
    ], ids=["up", "down", "entangled", "constant"])
    @pytest.mark.parametrize("segments", [3, 64])
    def test_phase_free_loops_give_positive_zero(self, build, segments):
        value = holonomy_numeric(build(segments)).value
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @given(st.floats(0.05, math.pi - 0.05))
    @settings(max_examples=25, deadline=None)
    def test_oracle_agreement_property(self, theta):
        got = holonomy_numeric(spinor_loop(Orientation.UP, theta, 2000)).value
        want = berry_phase_analytic(Orientation.UP, theta).mod_2pi()
        dev = abs(got - want)
        assert min(dev, TWO_PI - dev) < 1e-4


class TestSpinorLoop:
    def test_closed_and_sized(self):
        loop = spinor_loop(Orientation.UP, 1.0, 64)
        assert len(loop) == 65
        np.testing.assert_allclose(
            loop[0].amplitudes, loop[-1].amplitudes, atol=1e-12
        )

    def test_down_loop_winds_backwards(self):
        # the second point of the down loop sits at negative azimuth
        loop = spinor_loop(Orientation.DOWN, 1.0, 8)
        expected = prepare_spinor(Orientation.DOWN, 1.0, -TWO_PI / 8)
        np.testing.assert_allclose(loop[1].amplitudes, expected.amplitudes, atol=1e-15)

    def test_degenerate_segment_count_rejected(self):
        with pytest.raises(DomainError):
            spinor_loop(Orientation.UP, 1.0, 1)

    @pytest.mark.parametrize("build", [
        lambda n: spinor_loop(Orientation.DOWN, 1.0, n),
        lambda n: entangled_family_loop(1.0, n),
    ], ids=["spinor", "entangled"])
    def test_segment_count_bounded(self, build, monkeypatch):
        with pytest.raises(DomainError, match="at most 1000000 segments"):
            build(berry.MAX_SEGMENTS + 1)
        for bad in (2.5, 3.0, "3"):
            with pytest.raises(DomainError, match="segments must be an integer"):
                build(bad)
        # the bound lives in phases, shared with the CLI's scalar transport
        assert berry.MAX_SEGMENTS is phases.MAX_SEGMENTS
        monkeypatch.setattr(phases, "MAX_SEGMENTS", 10)
        assert len(build(10)) == 11
        assert len(build(np.int64(4))) == 5
        with pytest.raises(DomainError, match="at most 10 segments"):
            build(11)


LOOP_THETAS = [0.0, 0.3, 1.1, math.pi / 2, 2.5, math.pi]


class TestLoopMatchesReference:
    # the builders vectorize the per-state arithmetic; row norms are summed in a
    # different order, so rows may move in the last bit and transports by a few ulp
    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("segments", [2, 3, 64, 2000])
    def test_spinor_rows_and_transport(self, orientation, segments):
        for theta in LOOP_THETAS:
            loop = spinor_loop(orientation, theta, segments)
            ref = reference_spinor_loop(orientation, theta, segments)
            np.testing.assert_allclose(
                loop.amplitudes, np.stack([s.amplitudes for s in ref]), rtol=0, atol=1e-15
            )
            if segments == 2 and theta == math.pi / 2:
                # c^2 - s^2 = 0: the half-turn states are orthogonal on both paths
                for path in (loop, ref):
                    with pytest.raises(DegeneratePathError):
                        holonomy_numeric(path)
                continue
            got = holonomy_numeric(loop).value
            assert circular_distance(got, holonomy_numeric(ref).value) <= 1e-12

    @pytest.mark.parametrize("segments", [2, 3, 64, 2000])
    def test_entangled_rows_and_transport(self, segments):
        for theta in (0.0, 0.4, 1.2, 2.0, math.pi):
            loop = entangled_family_loop(theta, segments)
            ref = reference_entangled_loop(theta, segments)
            np.testing.assert_allclose(
                loop.amplitudes, np.stack([s.amplitudes for s in ref]), rtol=0, atol=1e-15
            )
            got = holonomy_numeric(loop).value
            assert circular_distance(got, holonomy_numeric(ref).value) <= 1e-12

    @pytest.mark.parametrize("build", [
        lambda: spinor_loop(Orientation.UP, 1.1, 300),
        lambda: spinor_loop(Orientation.DOWN, 2.5, 300),
        lambda: entangled_family_loop(0.4, 300),
    ], ids=["up", "down", "entangled"])
    def test_list_of_items_transports_identically(self, build):
        loop = build()
        assert holonomy_numeric(list(loop)).value == holonomy_numeric(loop).value


class TestLoopSequence:
    def test_items_are_row_views(self):
        loop = spinor_loop(Orientation.DOWN, 1.0, 8)
        assert len(loop) == 9
        assert all(isinstance(s, PureState) for s in loop)
        np.testing.assert_array_equal(loop[-1].amplitudes, loop.amplitudes[8])
        np.testing.assert_array_equal(loop[3].amplitudes, loop.amplitudes[3])
        with pytest.raises(IndexError):
            loop[9]
        with pytest.raises(TypeError):
            loop[1.0]

    def test_slices_are_loops(self):
        loop = spinor_loop(Orientation.UP, 1.0, 8)
        head = loop[:-1]
        assert isinstance(head, Loop)
        assert len(head) == 8
        np.testing.assert_array_equal(loop[::2].amplitudes, loop.amplitudes[::2])
        with pytest.raises(DomainError, match="open path"):
            holonomy_numeric(head)

    def test_read_only(self):
        loop = entangled_family_loop(0.6, 8)
        with pytest.raises(ValueError):
            loop.amplitudes[0, 0] = 1.0
        with pytest.raises(TypeError):  # an item's amplitudes are a tuple
            loop[2].amplitudes[0] = 1.0
        with pytest.raises(ValueError):
            loop[1:3].amplitudes[0, 0] = 1.0
        with pytest.raises(TypeError):
            loop[0] = ket("00")

    def test_constructor_holds_rows_to_the_contract(self):
        # within 1e-6 of unit norm: renormalized, and the caller's array is not touched
        rows = np.array([[1.0, 0.0], [0.0, 1.0 + 5e-7]])
        loop = Loop(rows)
        np.testing.assert_allclose(np.linalg.norm(loop.amplitudes, axis=1), 1.0, atol=1e-15)
        assert rows[1, 1] == 1.0 + 5e-7
        with pytest.raises(DomainError, match=r"state norm 1\.1 not within"):
            Loop([[1.0, 0.0], [1.1, 0.0], [1.2, 0.0]])  # the first offending row
        for shape in (1.0, [1.0, 0.0], [[1.0, 0.0, 0.0]], [[[1.0, 0.0]]]):
            with pytest.raises(DomainError, match="shape"):
                Loop(shape)
        with pytest.raises(DomainError, match="^state must be finite$"):
            Loop([[10**400, 0], [1, 0]])  # an int too large for a float
        for rows in ([[1, 0], [1, 0, 0]], [["a", 0], [1, 0]], [[{}, 0], [1, 0]]):
            with pytest.raises(DomainError, match="^loop amplitudes must be an array of numbers$"):
                Loop(rows)

    def test_overflowing_norm_is_rejected_without_a_warning(self):
        # finite parts whose squares overflow: norm inf, a DomainError and no
        # RuntimeWarning (pytest turns warnings into errors)
        with pytest.raises(DomainError, match="state norm inf"):
            Loop([[1e200, 0.0]])
        with pytest.raises(DomainError, match="state norm inf"):
            Loop([[0.0, 1e200j], [1.0, 0.0]])


class TestDiscreteOracle:
    # every segment of the latitude loop has the same overlap c^2 + s^2 e^{-2 pi i/N}
    # (c and s swapped for DOWN), so the transport has this closed form exactly
    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_transport_equals_exact_discrete_form(self, orientation):
        for theta in (0.0, 0.05, 0.7, 1.3, math.pi / 2, 2.2, 3.0, math.pi):
            for segments in (2, 3, 5, 64, 999, 20000):
                if segments == 2 and theta == math.pi / 2:
                    continue  # the overlap c^2 - s^2 vanishes; rejected as degenerate
                got = holonomy_numeric(spinor_loop(orientation, theta, segments)).value
                want = exact_discrete_transport(orientation, theta, segments)
                assert circular_distance(got, want) <= 1e-12, (theta, segments)

    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("theta", [0.4, 1.0, 2.0, 2.8])
    def test_error_falls_as_inverse_square(self, orientation, theta):
        # the N^-2 coefficient vanishes at theta = pi/2 and pi, so those are left out
        continuum = berry_phase_analytic(orientation, theta).mod_2pi()

        def error(segments):
            got = holonomy_numeric(spinor_loop(orientation, theta, segments)).value
            return circular_distance(got, continuum)

        for segments in (50, 100, 200, 400):
            assert 3.5 <= error(segments) / error(2 * segments) <= 4.5

    @pytest.mark.parametrize("theta", [0.0, 0.2, 0.9, 2.4, math.pi])
    def test_entangled_family_transports_to_zero(self, theta):
        got = holonomy_numeric(entangled_family_loop(theta, 2000)).value
        assert circular_distance(got, 0.0) <= 1e-12


def gate_loop(circuit, theta, segments):
    """The loop the circuit prepares from |0> at phi_k = 2 pi k/segments, k = 0..segments."""
    zero = ket("0")
    return Loop([run_circuit(circuit, {"theta": theta, "phi": TWO_PI * (k / segments)},
                             zero).amplitudes for k in range(segments + 1)])


class TestGateBuiltLoops:
    """The loops the preparation circuits build transport to the closed forms.

    The spinor circuit prepares the UP spinor at theta, the general circuit
    the state at polar angle 2 theta winding e^{+i phi}; their global phases
    are constant along a loop.  The transport's N^-2 term is
    -+(pi^3/3) sin^2(T) cos(T) / N^2 at polar angle T, at most 3.98 / N^2 in
    size; T is drawn away from 0, pi/2 and pi, where it vanishes.
    """

    CASES = {
        "spinor": (spinor_state_circuit, lambda t: t, lambda t: math.pi * (1 - math.cos(t))),
        "general": (general_state_circuit, lambda t: t / 2,
                    lambda t: -math.pi * (1 - math.cos(2 * t))),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_transport_matches_closed_form(self, name):
        build, theta_of, closed_form = self.CASES[name]
        circuit = build()
        rng = random.Random(f"gate-loop:{name}")
        for _ in range(20):
            polar = rng.choice((rng.uniform(0.2, 1.3), rng.uniform(1.85, 2.95)))
            theta = theta_of(polar)
            want = mod_two_pi(closed_form(theta))
            errors = []
            for segments in (1000, 2000):
                got = holonomy_numeric(gate_loop(circuit, theta, segments)).value
                errors.append(circular_distance(got, want))
                assert errors[-1] <= 4.0 / segments**2, (theta, segments)
            assert 3.5 <= errors[0] / errors[1] <= 4.5, theta


class TestEntangledFamily:
    def test_loop_states_are_normalized_two_qubit(self):
        loop = entangled_family_loop(0.6, 16)
        assert all(s.num_qubits == 2 for s in loop)

    def test_degenerate_at_equator(self):
        with pytest.raises(DegeneratePathError):
            entangled_family_loop(math.pi / 2, 16)

    def test_transported_phase_is_zero_not_the_closed_form(self):
        # the closed form pi(1 + cos 2 theta) is nonzero here; the transported
        # phase of this family is identically zero
        theta = 0.4
        diag = holonomy_numeric(entangled_family_loop(theta, 400))
        assert diag.value == pytest.approx(0.0, abs=1e-9)
        assert berry_phase_entangled(theta).value > 1.0


# The holonomy command's streamed route, phases.spinor_holonomy, transports
# spinor_loop's loop one row at a time in Python floats: the array route and
# the exact discrete transport are its oracles, and it is theirs.


def array_route(orientation, theta, segments):
    return holonomy_numeric(spinor_loop(orientation, theta, segments))


def complex_reference(orientation, theta, segments):
    """The streamed transport as plain complex arithmetic: each row through
    ``unit_vector``, ``cmath`` for the winding and the overlap phase."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if orientation is Orientation.DOWN:
        c, s = s, c
    rows = [unit_vector((c, s * cmath.exp(complex(0.0, -(k / segments * TWO_PI)))), "state")
            for k in range(segments + 1)]
    total = math.fsum(cmath.phase(a[0].conjugate() * b[0] + a[1].conjugate() * b[1])
                      for a, b in zip(rows, rows[1:]))
    return GeometricPhase.wrapped(-total).value


HALF_PI = math.pi / 2.0
EDGE_THETAS = (0.0, 5e-324, math.nextafter(HALF_PI, 0.0), HALF_PI, math.nextafter(HALF_PI, 4.0),
               math.pi)


def peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedTransport:
    def test_both_routes_match_the_exact_discrete_transport(self):
        rng = random.Random(20261018)
        degenerate = set()
        for orientation in Orientation:
            for segments in (2, 3, 16, 64, 2000, 20000):
                for theta in EDGE_THETAS + tuple(rng.uniform(0.0, math.pi) for _ in range(4)):
                    streamed = outcome(spinor_holonomy, orientation, theta, segments)
                    array = outcome(array_route, orientation, theta, segments)
                    if isinstance(streamed, tuple):
                        assert streamed == array
                        degenerate.add((theta, segments))
                        continue
                    exact = exact_discrete_transport(orientation, theta, segments)
                    case = (orientation, theta, segments)
                    assert circular_distance(streamed.value, exact) <= 1e-12, case
                    assert circular_distance(array.value, exact) <= 1e-12, case
        # two segments at the equator: the overlap c^2 - s^2 = cos(theta) nearly vanishes
        assert degenerate == {(theta, 2) for theta in EDGE_THETAS[2:5]}

    def test_is_plain_complex_arithmetic_bit_for_bit(self):
        rng = random.Random(7)
        for orientation in Orientation:
            for segments in (3, 16, 64, 801):
                for theta in (0.0, 0.3, 2.0, math.pi, *(rng.uniform(0.0, math.pi) for _ in range(6))):
                    case = (orientation, theta, segments)
                    assert spinor_holonomy(*case).value.hex() == complex_reference(*case).hex(), case

    @pytest.mark.parametrize(("theta", "segments"), [
        (math.nan, 64), (math.inf, 64), (-0.1, 64), (4.0, 64),
        (1.0, 1), (1.0, 2.5), (1.0, "3"), (1.0, 1_000_001), (1.0, True), (1.0, False),
        (HALF_PI, 2),
    ])
    def test_routes_raise_alike(self, theta, segments):
        streamed = outcome(spinor_holonomy, Orientation.UP, theta, segments)
        assert isinstance(streamed, tuple)
        assert streamed == outcome(array_route, Orientation.UP, theta, segments)

    def test_closure_and_norm_checks_keep_the_library_messages(self, monkeypatch):
        # closure never fails on this loop (its ends differ by about 1e-16), and
        # no row is off norm, so the checks are shown with tolerances none can meet
        monkeypatch.setattr(phases, "CLOSURE_TOLERANCE", -1.0)
        monkeypatch.setattr(berry, "CLOSURE_TOLERANCE", -1.0)
        assert outcome(spinor_holonomy, Orientation.UP, 1.0, 8) == \
            outcome(array_route, Orientation.UP, 1.0, 8) == \
            (DomainError, "open path: first and last states differ beyond 1e-12")
        monkeypatch.setattr(states, "NORM_TOLERANCE", -1.0)
        with pytest.raises(DomainError, match=r"^state norm [0-9.]+ not within -1\.0 of 1$"):
            spinor_holonomy(Orientation.UP, 1.0, 8)

    def test_streams_its_rows(self):
        segments = 200_000
        assert peak_bytes(lambda: spinor_holonomy(Orientation.UP, 1.0, segments)) < 1 << 20
        # the probe sees a loop that is held whole: a built array keeps 32 B a row
        assert peak_bytes(lambda: spinor_loop(Orientation.UP, 1.0, segments).amplitudes) > \
            32 * segments


# today's builders as they were written before the in-place rewrite: every
# Loop.amplitudes byte and every transported value must stay the same


def reference_azimuths(sign, segments):
    return sign * TWO_PI * (np.arange(segments + 1) / segments)


def reference_amplitudes(theta, phi, orientation):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    out = np.empty(phi.shape + (2,), dtype=np.complex128)
    if orientation is Orientation.UP:
        out[..., 0] = c
        out[..., 1] = s * np.exp(-1j * phi)
    else:
        out[..., 0] = s
        out[..., 1] = c * np.exp(1j * phi)
    return out


def reference_unit_rows(raw):
    arr = np.array(raw, dtype=np.complex128)
    arr /= np.linalg.norm(arr, axis=-1)[..., np.newaxis]
    return arr


def reference_raw_rows(family, theta, segments):
    """The rows a builder hands to Loop, or the exception it raises first."""
    if family != "entangled":
        orientation = Orientation(family)
        sign = 1.0 if orientation is Orientation.UP else -1.0
        return reference_amplitudes(theta, reference_azimuths(sign, segments), orientation)
    phi = reference_azimuths(1.0, segments)
    up = reference_amplitudes(theta, phi, Orientation.UP)
    down = reference_amplitudes(theta, phi, Orientation.DOWN)
    raw = up[:, :, np.newaxis] * down[:, np.newaxis, :]
    raw -= down[:, :, np.newaxis] * up[:, np.newaxis, :]
    raw = raw.reshape(-1, 4)
    norms = np.linalg.norm(raw, axis=1)
    if float(norms.min()) < berry.MIN_OVERLAP:
        raise DegeneratePathError("antisymmetric spinor family vanishes near theta = pi/2")
    raw /= norms[:, np.newaxis]
    return raw


def build(family, theta, segments):
    if family == "entangled":
        return entangled_family_loop(theta, segments)
    return spinor_loop(Orientation(family), theta, segments)


def outcome(call, *args):
    """A call's value, or its exception's type and message."""
    try:
        return call(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def bytes_of(result):
    return result.amplitudes.tobytes() if isinstance(result, Loop) else result


def value_bits(result):
    if isinstance(result, GeometricPhase):
        return np.float64(result.value).view(np.uint64)
    return result


SPECIAL_THETAS = (0.0, 5e-324, 1e-300, 1e-8, math.pi / 2, math.nextafter(math.pi / 2, 0.0),
                  math.nextafter(math.pi / 2, 4.0), math.pi / 2 + 1e-10, 1e-5, math.pi,
                  math.nextafter(math.pi, 0.0))
# seeded thetas per size, fewer where a build is long; 5367 builder cases in all.
# Loops of 4095 to 4097 and 8193 segments end their last block of rows, or of
# row norms, on one row.
DIFFERENTIAL_SIZES = {2: 400, 3: 400, 7: 400, 64: 400, 2000: 60, 4095: 3, 4096: 3, 4097: 3,
                      8193: 3, 20000: 7}


@pytest.mark.parametrize("family", ["up", "down", "entangled"])
@pytest.mark.parametrize("segments", sorted(DIFFERENTIAL_SIZES))
def test_builders_are_bit_identical_to_the_reference(family, segments):
    rng = np.random.default_rng([segments, len(family)])
    thetas = SPECIAL_THETAS + tuple(rng.uniform(0.0, math.pi, DIFFERENTIAL_SIZES[segments]))
    for theta in thetas:
        theta = float(theta)
        raw = outcome(reference_raw_rows, family, theta, segments)
        want = outcome(Loop, raw) if isinstance(raw, np.ndarray) else raw
        got = outcome(build, family, theta, segments)
        # a spinor loop's array is made from the cached winding grid when the
        # loop is made; its transport is read before its amplitudes, and again
        # after
        streamed = outcome(holonomy_numeric, got) if isinstance(got, Loop) else None
        assert bytes_of(got) == bytes_of(want), (family, theta, segments)
        if not isinstance(got, Loop):
            continue
        # the row norms against np.linalg.norm, not only against Loop's own
        assert got.amplitudes.tobytes() == reference_unit_rows(raw).tobytes()
        transported = value_bits(outcome(holonomy_numeric, want))
        assert value_bits(streamed) == transported, (family, theta, segments)
        assert value_bits(outcome(holonomy_numeric, got)) == transported, (family, theta, segments)


def test_row_norms_match_numpy_norm_bit_for_bit():
    # the norms of each block against numpy's over the whole array; the last
    # block of 4097 rows has one row
    rng = np.random.default_rng(9)
    count = berry._BLOCK_ROWS + 1
    for width in (2, 4):
        parts = rng.normal(size=(count, 2 * width)) * 10.0 ** rng.integers(-8, 8, (count, 1))
        parts[rng.random(parts.shape) < 0.1] = 0.0
        parts[rng.random(parts.shape) < 0.05] = -0.0
        rows = parts.view(np.complex128)
        blocks = list(berry._blocks(rows))
        assert [len(block) for block in blocks] == [berry._BLOCK_ROWS, 1]
        got = np.concatenate([berry._row_norms(block) for block in blocks])
        assert got.tobytes() == np.linalg.norm(rows, axis=-1).tobytes()


def test_block_pass_reports_the_whole_arrays_first_error():
    block = berry._BLOCK_ROWS
    rows = np.zeros((3 * block, 2), dtype=np.complex128)
    rows[:, 0] = 1.0
    # off unit in the second block, nan in the third: finiteness is checked first
    rows[block + 5, 0] = 1.5
    rows[2 * block + 7, 1] = math.nan
    with pytest.raises(DomainError, match=r"^state must be finite$"):
        Loop(rows)
    # off unit in the first block and in the second: the first one's norm is reported
    rows[2 * block + 7, 1] = 0.0
    rows[3, 0] = 1.25
    with pytest.raises(DomainError, match=r"^state norm 1\.25 not within"):
        Loop(rows)


# holonomy_numeric sums the overlaps column by column; the einsum formula it
# replaced is its reference


def reference_transport(amps):
    overlaps = np.einsum("ij,ij->i", np.conj(amps[:-1]), amps[1:])
    return GeometricPhase.wrapped(-float(np.sum(np.angle(overlaps)))).value


def random_closed_loop(rng, width, segments):
    """A smooth seeded loop of the given width: five random Fourier modes over one
    turn, its last row a copy of its first."""
    turn = TWO_PI * np.arange(segments + 1) / segments
    modes = rng.normal(size=(5, width)) + 1j * rng.normal(size=(5, width))
    raw = np.exp(1j * np.outer(turn, np.arange(-2, 3))) @ modes
    raw[-1] = raw[0]
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return Loop(raw)


@pytest.mark.parametrize("width", [2, 4])
def test_transport_matches_the_einsum_overlaps(width):
    rng = np.random.default_rng([14, width])
    # 4097 segments: the last overlap is a block of one row
    for segments in (2, 3, 16, 257, 4000, berry._BLOCK_ROWS + 1):
        for _ in range(20):
            loop = random_closed_loop(rng, width, segments)
            got = holonomy_numeric(loop).value
            want = reference_transport(loop.amplitudes)
            assert circular_distance(got, want) <= 1e-14, (segments, got, want)


def test_overlaps_in_a_block_of_one_row_keep_their_bits():
    # a two-state loop's one overlap is a block of one row; its phase must be
    # the one its product has inside a long array.  States a hair apart, with a
    # negative overlap phase, so the transported phase is tiny and positive
    # and keeps every bit of the overlap's imaginary part.
    rng = np.random.default_rng(2)
    for width in (2, 4):
        first = rng.normal(size=(500, width)) + 1j * rng.normal(size=(500, width))
        first /= np.linalg.norm(first, axis=1, keepdims=True)
        second = first * np.exp(-1j * rng.uniform(1e-14, 1e-13, (500, 1)))
        loops = [Loop([a, b]) for a, b in zip(first, second)]
        rows = np.array([loop.amplitudes for loop in loops])
        overlaps = np.conj(rows[:, 0, 0]) * rows[:, 1, 0]
        for k in range(1, width):
            overlaps += np.conj(rows[:, 0, k]) * rows[:, 1, k]
        want = -np.arctan2(overlaps.imag, overlaps.real)
        assert (want > 0).all()
        for loop, phase in zip(loops, want):
            assert holonomy_numeric(loop).value == phase


def test_build_and_transport_peak_below_one_and_three_quarter_loops():
    # the first orientation misses the winding cache: the grid (half a loop)
    # stays beside the array it builds, whose rows are normalized a block at
    # a time, each block's arrays freed before the next block's are made
    # (1.71 loops); the second reads the cached grid (1.21 loops)
    segments = 20000
    loop_bytes = (segments + 1) * 2 * 16
    array_route(Orientation.UP, 1.0, 8)  # first-call allocations are not the loop's
    for orientation in Orientation:
        assert peak_bytes(lambda: array_route(orientation, 1.0, segments)) < 1.75 * loop_bytes


def test_build_from_the_cached_grid_peaks_below_one_and_a_quarter_loops():
    # the array, its finiteness mask and one block's norms and kernel buffers
    # (1.21 loops)
    segments = 20000
    loop_bytes = (segments + 1) * 2 * 16
    for orientation in Orientation:
        spinor_loop(orientation, 1.0, segments)  # caches the grid
        assert peak_bytes(lambda: spinor_loop(orientation, 1.0, segments).amplitudes) < \
            1.25 * loop_bytes


def test_entangled_family_leaves_the_spinor_grid_cached():
    # the family makes a grid of its own: the benchmark's 1-in-8 two-qubit op
    # must not evict the 20000-segment spinor grid
    holonomy_numeric(spinor_loop(Orientation.UP, 1.0, 20000))
    entangled_family_loop(1.0, 2000)
    info = berry._winding.cache_info()
    holonomy_numeric(spinor_loop(Orientation.DOWN, 0.7, 20000))
    after = berry._winding.cache_info()
    assert (after.hits, after.misses) == (info.hits + 1, info.misses)


def test_winding_cache_holds_one_read_only_grid():
    for segments in (20000, 64):
        holonomy_numeric(spinor_loop(Orientation.DOWN, 0.7, segments))
    info = berry._winding.cache_info()
    assert info.currsize == info.maxsize == 1
    grid = berry._winding(64)
    assert berry._winding.cache_info().hits == info.hits + 1
    assert len(grid) == 65 and not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0] = 0.0


# Rows are scaled by real multiplies, not numpy's complex division; every byte,
# signed zeros included, must be the division's


ZERO_KINDS = ("+0", "-0", "+x", "-x")


def rows_with_signed_zeros(width, count=2000, seed=0):
    """Seeded near-unit rows whose parts are +-0.0 or +-x, each part's kind drawn
    at random, so every (real, imaginary) pair of kinds occurs."""
    rng = np.random.default_rng([seed, width])
    kinds = rng.integers(0, 4, (count, 2 * width))
    kinds[(kinds < 2).all(axis=1), 0] = 2  # no row of zeros: its norm is 0
    parts = np.abs(rng.normal(size=kinds.shape))
    parts[kinds < 2] = 0.0
    parts[kinds % 2 == 1] *= -1.0  # -0.0 where the kind is -0
    parts /= np.sqrt((parts * parts).sum(axis=1, keepdims=True))
    parts *= 1.0 + rng.uniform(-5e-7, 5e-7, (count, 1))  # off unit, within tolerance
    pairs = {(ZERO_KINDS[re], ZERO_KINDS[im])
             for re, im in zip(kinds[:, 0::2].ravel(), kinds[:, 1::2].ravel())}
    assert len(pairs) == 16
    return parts.view(np.complex128)


def zero_sign_counts(rows):
    """The numbers of -0.0 and of +0.0 parts."""
    parts = rows.view(np.float64)
    negative = np.signbit(parts)
    return int((negative & (parts == 0.0)).sum()), int((~negative & (parts == 0.0)).sum())


@pytest.mark.parametrize("width", [2, 4])
def test_scaled_rows_keep_the_divisions_signed_zeros(width):
    rows = rows_with_signed_zeros(width)
    want = reference_unit_rows(rows)
    assert Loop(rows).amplitudes.tobytes() == want.tobytes()
    # the division turns some -0.0 parts into +0.0 and keeps others
    negative_before, positive_before = zero_sign_counts(rows)
    negative_after, positive_after = zero_sign_counts(want)
    assert 0 < negative_after < negative_before and positive_after > positive_before


@pytest.mark.parametrize("width", [2, 4])
def test_scaled_rows_do_not_depend_on_the_input_layout(width):
    rows = rows_with_signed_zeros(width, count=500, seed=1)
    want = Loop(rows).amplitudes.tobytes()
    assert want == reference_unit_rows(rows).tobytes()
    fortran = np.asfortranarray(rows)
    assert not fortran.flags.c_contiguous
    strided = np.repeat(rows, 2, axis=1)[:, ::2]
    assert not strided.flags.c_contiguous
    for layout in (fortran, strided):
        assert Loop(layout).amplitudes.tobytes() == want
    # one row at a time, a one-row Loop each: a row of the Fortran array is strided too
    one_by_one = b"".join(Loop([row]).amplitudes.tobytes() for row in fortran)
    assert one_by_one == want


def test_blocks_of_one_row_keep_the_reference_bits():
    # a loop of one row, and a last block of one row: numpy's in-place complex
    # product of a single element can round unlike a longer one
    rows = rows_with_signed_zeros(2, count=200, seed=3)
    for row in rows:
        assert Loop([row]).amplitudes.tobytes() == reference_unit_rows([row]).tobytes()
    rng = np.random.default_rng(4096)
    for segments in (berry._BLOCK_ROWS, 2 * berry._BLOCK_ROWS):
        for theta in rng.uniform(0.0, math.pi, 10):
            for family in ("up", "entangled"):
                raw = reference_raw_rows(family, float(theta), segments)
                got = build(family, float(theta), segments).amplitudes
                assert got.tobytes() == reference_unit_rows(raw).tobytes(), (family, theta)


def test_public_constructor_copies_the_callers_array():
    rows = spinor_loop(Orientation.UP, 1.1, 16).amplitudes.copy()
    rows[3] *= 1.0 + 1e-7  # off unit norm, within tolerance: renormalized in the Loop
    before = rows.tobytes()
    loop = Loop(rows)
    assert rows.tobytes() == before and rows.flags.writeable
    assert not np.shares_memory(loop.amplitudes, rows)
    rows[0, 0] = 0.0
    assert loop.amplitudes[0, 0] != 0.0
