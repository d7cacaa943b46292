"""First-order noise on the Berry connection from a small polar-angle shift.

A fluctuation delta_theta tilts the connection by +- sin(theta) delta_theta / 2
and the closed-loop phase by +- pi sin(theta) delta_theta, with opposite signs
for the two orientations, so the pair still sums to exactly 2*pi.  In the
antisymmetric two-spinor state the relative phase feels both shifts and the
noise doubles; after an echo only a single residual term carries it.
"""

from __future__ import annotations

import math

from ._angles import TWO_PI, check_real, check_theta
from .errors import DomainError
from .phases import GeometricPhase, Orientation, _solid_angle_factor

MAX_SHIFT = 0.5


def _single_shift(theta: float, delta_theta: float) -> float:
    """pi sin(theta) delta_theta, with delta_theta checked before theta."""
    check_real("delta_theta", delta_theta)
    if abs(delta_theta) > MAX_SHIFT:
        raise DomainError(f"|delta_theta| above {MAX_SHIFT} leaves the small-perturbation regime")
    check_theta(theta)
    return math.pi * math.sin(theta) * delta_theta


def noisy_phase(
    orientation: Orientation, theta: float, delta_theta: float
) -> tuple[GeometricPhase, float]:
    """Noise-shifted loop phase and its shift, signed + for UP and - for DOWN.

    UP:   pi (1 - cos theta + sin theta delta_theta), shift +pi sin theta delta_theta
    DOWN: pi (1 + cos theta - sin theta delta_theta), shift -pi sin theta delta_theta
    """
    shift = _single_shift(theta, delta_theta)
    factor = _solid_angle_factor(orientation, theta)
    tilt = math.sin(theta) * delta_theta
    if orientation is not Orientation.UP:
        tilt, shift = -tilt, -shift
    # 2 pi times half the sum, not pi times it: halving rounds a subnormal sum
    return GeometricPhase(TWO_PI * (0.5 * (factor + tilt))), shift


def entangled_noise_shift(theta: float, delta_theta: float) -> float:
    """Relative-phase shift of the antisymmetric two-spinor state: exactly twice
    the single-orientation shift, 2 pi sin(theta) delta_theta."""
    return 2.0 * _single_shift(theta, delta_theta)


def post_echo_noise_shift(theta: float, delta_theta: float) -> float:
    """Shift surviving an echo, where a single residual term carries the noise:
    pi sin(theta) delta_theta.  The halving relative to the entangled shift is
    a qualitative robustness statement, not a derived bound."""
    return _single_shift(theta, delta_theta)
