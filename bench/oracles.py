"""Closed forms the benchmark checks spinphase outputs against.

Everything here is plain ``math``/``cmath`` written from the physics, never a
call into spinphase, so a wrong program output cannot also be the reference.
"""

from __future__ import annotations

import cmath
import math

TWO_PI = 2.0 * math.pi
PINNED_TOL = 1e-6  # the acceptance suite's analytic-vs-transport tolerance
DISCRETE_TOL = 1e-9  # transport against its own exact discrete value
VALUE_TOL = 1e-9  # record values, relative to max(1, |expected|)


class CheckFailed(AssertionError):
    """An op's output disagreed with the benchmark's expectation."""


def mod_2pi(x: float) -> float:
    r = math.fmod(x, TWO_PI)
    return r + TWO_PI if r < 0.0 else r


def circular_distance(a: float, b: float) -> float:
    d = mod_2pi(a - b)
    return min(d, TWO_PI - d)


def analytic_phase(spin: str, theta: float) -> float:
    """Raw closed-loop phase pi(1 -+ cos theta) of the UP / DOWN spinor."""
    c = math.cos(theta)
    return math.pi * (1.0 - c) if spin == "up" else math.pi * (1.0 + c)


def latitude_transport(spin: str, theta: float, segments: int) -> float:
    """Exact transported phase of the N-segment latitude loop, in [0, 2*pi).

    Consecutive spinors on the loop all have the same overlap: c^2 + s^2
    e^{-2 pi i/N} for UP (c, s e^{-i phi}), phi 0 -> 2 pi, and s^2 + c^2
    e^{-2 pi i/N} for DOWN (s, c e^{i phi}), phi 0 -> -2 pi, with c, s the
    cosine and sine of theta/2.  The phase is -N arg of that overlap.
    """
    c2 = math.cos(theta / 2.0) ** 2
    s2 = math.sin(theta / 2.0) ** 2
    near, far = (c2, s2) if spin == "up" else (s2, c2)
    overlap = near + far * cmath.exp(-2j * math.pi / segments)
    return mod_2pi(-segments * cmath.phase(overlap))


def check_loop_phase(spin: str, theta: float, segments: int, value: float) -> None:
    exact = latitude_transport(spin, theta, segments)
    if circular_distance(value, exact) > DISCRETE_TOL:
        raise CheckFailed(f"transport {value!r} vs exact discrete {exact!r}")
    if circular_distance(value, analytic_phase(spin, theta)) > PINNED_TOL:
        raise CheckFailed(f"transport {value!r} vs analytic {analytic_phase(spin, theta)!r}")


def check_entangled_phase(value: float) -> None:
    if circular_distance(value, 0.0) > PINNED_TOL:
        raise CheckFailed(f"entangled family transport {value!r} is not 0 mod 2pi")


# ---------------------------------------------------------------------------
# CLI records: expected outputs from the record's own inputs

CIRCUITS = {
    # text -> gate list; a gate is "H" or a function of (theta, phi) giving a P angle
    "H P(2*theta) H P(pi/2 + phi)": ("H", lambda t, p: 2.0 * t, "H", lambda t, p: math.pi / 2 + p),
    "H P(theta) H P(pi/2 - phi)": ("H", lambda t, p: t, "H", lambda t, p: math.pi / 2 - p),
    "P(phi) H P(theta - pi/4) H": (lambda t, p: p, "H", lambda t, p: t - math.pi / 4, "H"),
}


def circuit_amplitudes(text: str, theta: float, phi: float) -> tuple[complex, complex]:
    """|0> pushed through the gates of one of CIRCUITS, left to right."""
    a, b = 1.0 + 0j, 0j
    r = 1.0 / math.sqrt(2.0)
    for gate in CIRCUITS[text]:
        if gate == "H":
            a, b = (a + b) * r, (a - b) * r
        else:
            b = b * cmath.exp(1j * gate(theta, phi))
    return a, b


def _complex(inputs: dict, name: str) -> complex:
    return complex(inputs[f"{name}_re"], inputs[f"{name}_im"])


def expected_outputs(command: str, inputs: dict, context: dict) -> dict:
    """Outputs a record of command should carry; context holds the non-numeric
    flags (spin, circuit text).  Keys ending in _mod are compared mod 2 pi."""
    if command == "phase":
        theta, spin = inputs["theta"], context["spin"]
        gamma = analytic_phase(spin, theta)
        conn = 0.5 * (1.0 - math.cos(theta)) if spin == "up" else 0.5 * (1.0 + math.cos(theta))
        return {"gamma": gamma, "gamma_mod_2pi_mod": gamma, "connection": conn}
    if command == "holonomy":
        theta, spin = inputs["theta"], context["spin"]
        exact = latitude_transport(spin, theta, int(inputs["segments"]))
        gamma = analytic_phase(spin, theta)
        return {"holonomy_mod": exact, "gamma_analytic": gamma,
                "deviation": circular_distance(exact, gamma)}
    if command == "circuit":
        a, b = circuit_amplitudes(context["circuit"], inputs["theta"], inputs["phi"])
        return {"amp0_re": a.real, "amp0_im": a.imag, "amp1_re": b.real, "amp1_im": b.imag}
    if command == "rabi":
        c0, c1 = _complex(inputs, "c0"), _complex(inputs, "c1")
        half = 0.5 * inputs["omega"] * inputs["t"]
        o0 = c0 * math.cos(half) + 1j * c1 * math.sin(half)
        o1 = 1j * c0 * math.sin(half) + c1 * math.cos(half)
        return {"c0_out_re": o0.real, "c0_out_im": o0.imag,
                "c1_out_re": o1.real, "c1_out_im": o1.imag}
    if command == "echo":
        half_sum = _wrap_pm_pi(0.5 * (inputs["phi"] + inputs["chi"]))
        half_diff = _wrap_pm_pi(0.5 * (inputs["phi"] - inputs["chi"]))
        geometric = half_sum - half_diff
        return {"geometric": geometric, "dynamical": half_sum + half_diff,
                "total": 2.0 * half_sum, "geometric_magnitude": abs(geometric)}
    if command == "entangle":
        theta = inputs["theta"]
        alpha, beta = _complex(inputs, "alpha"), _complex(inputs, "beta")
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        alpha, beta = alpha / norm, beta / norm
        a10 = cmath.exp(-2j * math.pi * math.cos(theta)) * alpha
        a01 = -beta
        conc = min(2.0 * abs(a01) * abs(a10), 1.0)
        return {"amp00_re": 0.0, "amp00_im": 0.0, "amp11_re": 0.0, "amp11_im": 0.0,
                "amp01_re": a01.real, "amp01_im": a01.imag,
                "amp10_re": a10.real, "amp10_im": a10.imag,
                "relative_phase_mod": 2.0 * analytic_phase("up", theta),
                "swap_expectation": 2.0 * (a01.conjugate() * a10).real,
                "concurrence_norm": conc,
                "gamma_ent": math.pi * (1.0 + math.cos(2.0 * theta))}
    if command == "noise":
        theta, delta, spin = inputs["theta"], inputs["delta_theta"], context["spin"]
        single = math.pi * math.sin(theta) * delta
        if spin == "entangled":
            return {"entangled_shift": 2.0 * single, "post_echo_shift": single}
        sign = 1.0 if spin == "up" else -1.0
        return {"gamma_noisy": analytic_phase(spin, theta) + sign * single, "shift": sign * single}
    if command == "rgflow":
        return {"mu": max(0.0, -inputs["a"] * math.log(inputs["separation"]) + inputs["c"])}
    raise ValueError(f"no oracle for {command!r}")


def _wrap_pm_pi(x: float) -> float:
    r = math.fmod(x, TWO_PI)
    if r > math.pi:
        r -= TWO_PI
    elif r <= -math.pi:
        r += TWO_PI
    return r


def check_record(command: str, inputs: dict, outputs: dict, context: dict) -> None:
    """Raise CheckFailed unless outputs match the closed forms for inputs."""
    for key, want in expected_outputs(command, inputs, context).items():
        if key.endswith("_mod"):
            got = outputs[key[:-4]]
            err = circular_distance(got, want)
        else:
            got = outputs[key]
            err = abs(got - want)
        if not err <= VALUE_TOL * max(1.0, abs(want)):
            raise CheckFailed(f"{command} {key}: got {got!r}, expected {want!r}")
