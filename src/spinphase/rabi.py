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

from ._angles import Frozen, check_real, wrap_pm_pi
from .errors import DomainError
from .states import unit_vector


class PhaseLedger(Frozen):
    """Split of an accumulated phase into geometric and dynamical parts, and their sum."""

    __slots__ = ("geometric", "dynamical")

    def __init__(self, geometric: float, dynamical: float) -> None:
        object.__setattr__(self, "geometric", geometric)
        object.__setattr__(self, "dynamical", dynamical)
        check_real("geometric", geometric)
        check_real("dynamical", dynamical)
        check_real("total", self.total)

    @property
    def total(self) -> float:
        return self.geometric + self.dynamical


def evolve_coefficients(c0: complex, c1: complex, omega: float,
                        duration: float) -> tuple[complex, complex]:
    """Rotate normalized coefficients through the resonant drive of Rabi
    frequency omega for a pulse of the given duration."""
    check_real("omega", omega)
    check_real("duration", duration)
    if duration < 0.0:
        raise DomainError("duration must be nonnegative")
    c0, c1 = unit_vector((c0, c1), "coefficients")
    half = 0.5 * omega * duration
    if not math.isfinite(half):  # finite inputs whose product overflows
        raise DomainError("rotation angle omega*t/2 is not finite")
    cos_half = math.cos(half)
    sin_half = math.sin(half)
    return (
        c0 * cos_half + 1j * c1 * sin_half,
        1j * c0 * sin_half + c1 * cos_half,
    )


def matched_echo_params() -> tuple[float, float]:
    """Angles (phi, chi) satisfying both pulse matchings of the echo: (phi+chi)/2
    = -pi/2 on the way up and (phi-chi)/2 = +pi/2 on the way down."""
    return 0.0, -math.pi


def spin_echo_ledger(phi: float, chi: float) -> PhaseLedger:
    """Phase ledger of the two-pulse round trip (ground -> excited -> ground).

    The first pulse imprints the half-sum (phi+chi)/2, the second the
    half-difference (phi-chi)/2, each on its canonical branch (-pi, pi].
    Their sum is the surviving dynamical phase (zero exactly when the two
    matchings cancel, i.e. phi = 0) and their difference is the trapped
    geometric phase (chi; -pi under the matched protocol, magnitude pi).
    """
    check_real("phi", phi)
    check_real("chi", chi)
    half_sum = wrap_pm_pi(0.5 * (phi + chi))
    half_diff = wrap_pm_pi(0.5 * (phi - chi))
    return PhaseLedger(geometric=half_sum - half_diff, dynamical=half_sum + half_diff)
