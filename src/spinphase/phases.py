"""Berry connections and closed-loop phases of quantized spinors, in closed form.

The spinor's orientation and angles (``Orientation``, ``SpinorParams``) live
here too, so a closed-form call loads neither the circuit parser nor numpy.
Analytic phases are reported raw: 0 and 2*pi label physically distinct loops
(trivial versus full solid angle) and must not be collapsed.  The discrete
loop transport that checks them lives in ``berry``, the one module that needs
arrays.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

from ._angles import TWO_PI, Frozen, check_finite, check_theta, mod_two_pi
from .errors import DomainError

CLOSURE_TOLERANCE = 1e-12
MIN_OVERLAP = 1e-9


class Orientation(Enum):
    UP = "up"
    DOWN = "down"


class SpinorParams(Frozen):
    """Angles on the sphere plus the chirality winding number of the carrier loop.

    theta is polar in [0, pi]; phi azimuthal; chi the extra winding angle that
    only shows up in the overall phase; mu the winding strength (1/2 for a
    fermionic spinor).
    """

    __slots__ = ("theta", "phi", "chi", "mu")

    def __init__(self, theta: float, phi: float, chi: float, mu: float = 0.5) -> None:
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "mu", mu)
        check_theta(self.theta)
        check_finite(self, "phi", "chi", "mu")


class PhaseConvention(Enum):
    RAW = "raw"
    MOD_2PI = "mod2pi"


class GeometricPhase(Frozen):
    __slots__ = ("value", "convention")

    def __init__(self, value: float, convention: PhaseConvention) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "convention", convention)
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
