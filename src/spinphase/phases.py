"""Berry connections and closed-loop phases of quantized spinors, in closed form.

Analytic phases are reported raw: 0 and 2*pi label physically distinct loops
(trivial versus full solid angle) and must not be collapsed.  The discrete
loop transport that checks them lives in ``berry``, the one module that needs
arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from ._angles import TWO_PI, check_theta, mod_two_pi
from .circuits import Orientation
from .errors import DomainError

CLOSURE_TOLERANCE = 1e-12
MIN_OVERLAP = 1e-9


class PhaseConvention(Enum):
    RAW = "raw"
    MOD_2PI = "mod2pi"


@dataclass(frozen=True)
class GeometricPhase:
    value: float
    convention: PhaseConvention

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise DomainError("phase must be finite")
        if self.convention is PhaseConvention.MOD_2PI and not 0.0 <= self.value < TWO_PI:
            raise DomainError("mod-2pi phase must lie in [0, 2*pi)")

    @classmethod
    def raw(cls, value: float) -> "GeometricPhase":
        return cls(value, PhaseConvention.RAW)

    @classmethod
    def wrapped(cls, value: float) -> "GeometricPhase":
        return cls(mod_two_pi(value), PhaseConvention.MOD_2PI)

    def mod_2pi(self) -> float:
        """The phase reduced into [0, 2*pi)."""
        return mod_two_pi(self.value)


def winding_phase(mu: float, delta_chi: float) -> complex:
    """Unit phasor e^{i mu delta_chi} picked up by winding the chirality angle.

    A full 2*pi winding at mu = 1/2 returns -1: the half-integer case changes
    sign under one revolution.
    """
    if not (math.isfinite(mu) and math.isfinite(delta_chi)):
        raise DomainError("mu and delta_chi must be finite")
    return cmath.exp(1j * (mu * delta_chi))


def connection(orientation: Orientation, theta: float) -> float:
    """Berry connection of the spinor family at fixed theta: (1 -+ cos theta)/2."""
    check_theta(theta)
    c = math.cos(theta)
    if orientation is Orientation.UP:
        return 0.5 * (1.0 - c)
    return 0.5 * (1.0 + c)


def berry_phase_analytic(orientation: Orientation, theta: float) -> GeometricPhase:
    """Closed-loop geometric phase pi(1 -+ cos theta), raw convention.

    This is half the solid angle swept about the spinor's own quantization
    axis, so the UP and DOWN values always add to 2*pi.
    """
    check_theta(theta)
    c = math.cos(theta)
    if orientation is Orientation.UP:
        return GeometricPhase.raw(math.pi * (1.0 - c))
    return GeometricPhase.raw(math.pi * (1.0 + c))


def berry_phase_entangled(theta: float) -> GeometricPhase:
    """Geometric phase trapped by the two-spinor antisymmetric state: pi(1 + cos 2 theta)."""
    check_theta(theta)
    return GeometricPhase.raw(math.pi * (1.0 + math.cos(2.0 * theta)))
