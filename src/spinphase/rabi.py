"""Resonant Rabi evolution and the spin-echo phase ledger.

Internal units put hbar = 1.  The resonant drive rotates the coefficients as

    C0(t) = C0 cos(Omega t / 2) + i C1 sin(Omega t / 2)
    C1(t) = i C0 sin(Omega t / 2) + C1 cos(Omega t / 2)

i.e. U(t) = exp(+i (Omega t / 2) sigma_x).  The identity term Omega_0 of the
Hamiltonian contributes only the global phase e^{-i Omega_0 t / 2}, which is
kept out of the state.
"""

from __future__ import annotations

import math

from ._angles import Frozen, check_finite, wrap_pm_pi
from .errors import DomainError
from .phases import SpinorParams
from .states import unit_vector


class RabiParams(Frozen):
    """Static drive parameters: Rabi frequency and pulse length."""

    __slots__ = ("omega", "duration")

    def __init__(self, omega: float, duration: float) -> None:
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "duration", duration)
        check_finite(self, "omega", "duration")
        if self.duration < 0.0:
            raise DomainError("duration must be nonnegative")


class PhaseLedger(Frozen):
    """Split of an accumulated phase into geometric and dynamical parts, and their sum."""

    __slots__ = ("geometric", "dynamical")

    def __init__(self, geometric: float, dynamical: float) -> None:
        object.__setattr__(self, "geometric", geometric)
        object.__setattr__(self, "dynamical", dynamical)
        check_finite(self, "geometric", "dynamical", "total")

    @property
    def total(self) -> float:
        return self.geometric + self.dynamical


def evolve_coefficients(c0: complex, c1: complex, params: RabiParams) -> tuple[complex, complex]:
    """Rotate normalized coefficients through the resonant drive for params.duration."""
    c0, c1 = unit_vector((c0, c1), "coefficients")
    half = 0.5 * params.omega * params.duration
    if not math.isfinite(half):  # finite inputs whose product overflows
        raise DomainError("rotation angle omega*t/2 is not finite")
    cos_half = math.cos(half)
    sin_half = math.sin(half)
    return (
        c0 * cos_half + 1j * c1 * sin_half,
        1j * c0 * sin_half + c1 * cos_half,
    )


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
    return PhaseLedger(geometric=half_sum - half_diff, dynamical=half_sum + half_diff)
