"""First-order noise on the Berry connection from a small polar-angle shift.

A fluctuation delta_theta tilts the connection by +- sin(theta) delta_theta / 2
and the closed-loop phase by +- pi sin(theta) delta_theta, with opposite signs
for the two orientations, so the pair still sums to exactly 2*pi.  In the
antisymmetric two-spinor state the relative phase feels both shifts and the
noise doubles; after an echo only a single residual term carries it.
"""

from __future__ import annotations

import math
from enum import Enum

from ._angles import TWO_PI, Frozen, check_finite, check_theta
from .errors import DomainError
from .phases import GeometricPhase, Orientation

MAX_SHIFT = 0.5


class NoiseTarget(Enum):
    UP = "up"
    DOWN = "down"
    ENTANGLED = "entangled"


class NoiseSpec(Frozen):
    """A small polar shift and the state family it applies to."""

    __slots__ = ("delta_theta", "applies_to")

    def __init__(self, delta_theta: float, applies_to: NoiseTarget) -> None:
        object.__setattr__(self, "delta_theta", delta_theta)
        object.__setattr__(self, "applies_to", applies_to)
        check_finite(self, "delta_theta")
        if abs(self.delta_theta) > MAX_SHIFT:
            raise DomainError(
                f"|delta_theta| above {MAX_SHIFT} leaves the small-perturbation regime"
            )


def _single_shift(theta: float, delta_theta: float) -> float:
    return math.pi * math.sin(theta) * delta_theta


def _tilted_connection(orientation: Orientation, theta: float, delta_theta: float) -> float:
    tilt = math.sin(theta) * delta_theta
    if orientation is Orientation.UP:
        return 0.5 * (1.0 - math.cos(theta) + tilt)
    return 0.5 * (1.0 + math.cos(theta) - tilt)


def noisy_phase(
    orientation: Orientation, theta: float, noise: NoiseSpec
) -> tuple[GeometricPhase, float]:
    """Noise-shifted loop phase and its shift, signed + for UP and - for DOWN.

    UP:   pi (1 - cos theta + sin theta delta_theta), shift +pi sin theta delta_theta
    DOWN: pi (1 + cos theta - sin theta delta_theta), shift -pi sin theta delta_theta
    """
    check_theta(theta)
    # 2 pi times the connection: the factor 2 against pi (...) is exact
    gamma = TWO_PI * _tilted_connection(orientation, theta, noise.delta_theta)
    shift = _single_shift(theta, noise.delta_theta)
    return GeometricPhase.raw(gamma), shift if orientation is Orientation.UP else -shift


def entangled_noise_shift(theta: float, noise: NoiseSpec) -> float:
    """Relative-phase shift of the antisymmetric two-spinor state: exactly twice
    the single-orientation shift, 2 pi sin(theta) delta_theta."""
    check_theta(theta)
    return 2.0 * _single_shift(theta, noise.delta_theta)


def post_echo_noise_shift(theta: float, noise: NoiseSpec) -> float:
    """Shift surviving an echo, where a single residual term carries the noise:
    pi sin(theta) delta_theta.  The halving relative to the entangled shift is
    a qualitative robustness statement, not a derived bound."""
    check_theta(theta)
    return _single_shift(theta, noise.delta_theta)
