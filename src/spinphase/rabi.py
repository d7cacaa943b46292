"""Resonant Rabi evolution, pi and half-pi pulses, and spin-echo phase bookkeeping.

Internal units put hbar = 1.  The resonant drive rotates the coefficients as

    C0(t) = C0 cos(Omega t / 2) + i C1 sin(Omega t / 2)
    C1(t) = i C0 sin(Omega t / 2) + C1 cos(Omega t / 2)

i.e. U(t) = exp(+i (Omega t / 2) sigma_x).  The identity term Omega_0 of the
Hamiltonian contributes only the global phase e^{-i Omega_0 t / 2}; it is kept
out of the state and tracked in the dynamical slot of the phase ledger.
"""

from __future__ import annotations

import math
from enum import Enum

from ._angles import Frozen, check_finite, wrap_pm_pi
from .errors import DomainError
from .phases import SpinorParams
from .states import PureState, unit_vector

_LEDGER_TOLERANCE = 1e-12
_PULSE_TOLERANCE = 1e-12


class RabiParams(Frozen):
    """Static drive parameters: identity offset, Rabi frequency, pulse length."""

    __slots__ = ("omega0", "omega", "duration")

    def __init__(self, omega0: float, omega: float, duration: float) -> None:
        object.__setattr__(self, "omega0", omega0)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "duration", duration)
        check_finite(self, "omega0", "omega", "duration")
        if self.duration < 0.0:
            raise DomainError("duration must be nonnegative")


class PulseKind(Enum):
    PI = "pi"
    HALF_PI = "half_pi"
    CUSTOM = "custom"


class PulseSpec(Frozen):
    __slots__ = ("kind", "params")

    def __init__(self, kind: PulseKind, params: RabiParams) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        if self.kind is PulseKind.CUSTOM:
            return
        if self.params.omega <= 0.0:
            raise DomainError("omega must be positive for pulse operations")
        target = math.pi / self.params.omega
        if self.kind is PulseKind.HALF_PI:
            target /= 2.0
        if abs(self.params.duration - target) > _PULSE_TOLERANCE:
            raise DomainError(f"{self.kind.value} pulse duration must equal {target!r}")

    @classmethod
    def pi_pulse(cls, omega: float, omega0: float = 0.0) -> "PulseSpec":
        if omega <= 0.0:
            raise DomainError("omega must be positive for pulse operations")
        return cls(PulseKind.PI, RabiParams(omega0, omega, math.pi / omega))

    @classmethod
    def half_pi_pulse(cls, omega: float, omega0: float = 0.0) -> "PulseSpec":
        if omega <= 0.0:
            raise DomainError("omega must be positive for pulse operations")
        return cls(PulseKind.HALF_PI, RabiParams(omega0, omega, math.pi / (2.0 * omega)))

    @classmethod
    def custom(cls, params: RabiParams) -> "PulseSpec":
        return cls(PulseKind.CUSTOM, params)


class PhaseLedger(Frozen):
    """Split of an accumulated phase into geometric and dynamical parts."""

    __slots__ = ("geometric", "dynamical", "total")

    def __init__(self, geometric: float, dynamical: float, total: float) -> None:
        object.__setattr__(self, "geometric", geometric)
        object.__setattr__(self, "dynamical", dynamical)
        object.__setattr__(self, "total", total)
        check_finite(self, "geometric", "dynamical", "total")
        if abs(self.total - (self.geometric + self.dynamical)) > _LEDGER_TOLERANCE:
            raise DomainError("ledger total must equal geometric + dynamical")

    @classmethod
    def of(cls, geometric: float, dynamical: float) -> "PhaseLedger":
        return cls(geometric, dynamical, geometric + dynamical)


def hamiltonian_matrix(params: RabiParams, direction):
    """Two-level Hamiltonian (omega0 * I + omega * n.sigma) / 2 for unit vector n,
    as a 2x2 numpy array (numpy loads on the first call)."""
    import numpy as np

    if np.shape(direction) != (3,):
        raise DomainError("direction must be a 3-vector")
    n = unit_vector(direction, "direction")
    if any(component.imag for component in n):
        raise DomainError("direction must be real")
    sigma = (
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    )
    h = params.omega0 * np.eye(2, dtype=complex)
    for component, pauli in zip(n, sigma):
        h = h + params.omega * component.real * pauli
    return 0.5 * h


def evolve_coefficients(c0: complex, c1: complex, params: RabiParams) -> tuple[complex, complex]:
    """Rotate normalized coefficients through the resonant drive for params.duration."""
    c0, c1 = unit_vector((c0, c1), "coefficients")
    half = 0.5 * params.omega * params.duration
    cos_half = math.cos(half)
    sin_half = math.sin(half)
    return (
        c0 * cos_half + 1j * c1 * sin_half,
        1j * c0 * sin_half + c1 * cos_half,
    )


def apply_pulse(state: PureState, pulse: PulseSpec) -> PureState:
    """Drive a single-qubit state through one pulse."""
    if state.num_qubits != 1:
        raise DomainError("pulses act on single-qubit states")
    return PureState(evolve_coefficients(*state.amplitudes, pulse.params))


def pulse_ledger(pulse: PulseSpec) -> PhaseLedger:
    """Global-phase bookkeeping for one pulse: the identity term contributes
    dynamical phase -omega0 * duration / 2 and nothing geometric."""
    return PhaseLedger.of(0.0, -0.5 * pulse.params.omega0 * pulse.params.duration)


def matched_echo_params() -> SpinorParams:
    """Angles satisfying both pulse matchings of the echo: (phi+chi)/2 = -pi/2
    on the way up and (phi-chi)/2 = +pi/2 on the way down."""
    return SpinorParams(theta=math.pi, phi=0.0, chi=-math.pi)


def spin_echo_ledger(params: SpinorParams) -> PhaseLedger:
    """Phase ledger of the two-pulse round trip (ground -> excited -> ground).

    The first pulse imprints the half-sum (phi+chi)/2, the second the
    half-difference (phi-chi)/2, each on its canonical branch (-pi, pi].
    Their sum is the surviving dynamical phase (zero exactly when the two
    matchings cancel, i.e. phi = 0) and their difference is the trapped
    geometric phase (chi; -pi under the matched protocol, magnitude pi).
    """
    half_sum = wrap_pm_pi(0.5 * (params.phi + params.chi))
    half_diff = wrap_pm_pi(0.5 * (params.phi - params.chi))
    return PhaseLedger.of(geometric=half_sum - half_diff, dynamical=half_sum + half_diff)
