"""Angle bookkeeping and input checks shared by the physics modules."""

from __future__ import annotations

import math
import operator

from .errors import DomainError

TWO_PI = 2.0 * math.pi


def check_finite(obj, *names: str) -> None:
    """Reject the first named attribute of obj that is not a finite real."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise DomainError(f"{name} must be finite")


def check_integer(value, name: str) -> None:
    """Reject a size input that is not an integer (floats such as 3.0 included)."""
    try:
        operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer") from None


def check_theta(theta: float) -> float:
    """Validate a polar angle; the toolkit works on the closed interval [0, pi]."""
    if not math.isfinite(theta):
        raise DomainError("theta must be finite")
    if theta < 0.0 or theta > math.pi:
        raise DomainError("theta out of [0, pi]")
    return theta


def mod_two_pi(x: float) -> float:
    """Reduce an angle into [0, 2*pi)."""
    r = math.fmod(x, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:  # fmod(-tiny) + 2*pi can round up to the excluded endpoint
        r = 0.0
    return r + 0.0  # -0.0 becomes +0.0; every other value is unchanged


def wrap_pm_pi(x: float) -> float:
    """Reduce an angle into the canonical branch (-pi, pi]."""
    r = math.fmod(x, TWO_PI)
    if r > math.pi:
        r -= TWO_PI
    elif r <= -math.pi:
        r += TWO_PI
    return r
