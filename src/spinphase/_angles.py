"""Angle bookkeeping, input checks and the value-type base shared by the modules."""

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


class Frozen:
    """Base of the package's value types, as a frozen dataclass would make them.

    A subclass names its fields in ``__slots__`` and sets them once, in its
    ``__init__``, with ``object.__setattr__``.  Assigning or deleting a field
    raises AttributeError; equality, hash and repr go by the fields in order.
    A subclass that adds no slots (the bench tracer's stand-ins) keeps its
    parent's fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += cls.__dict__.get("__slots__", ())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle skip __init__: its checks passed, and renormalizing
        # the weights again could move their last bits
        return _rebuild, (type(self), self._values())


def _rebuild(cls, values: tuple) -> Frozen:
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(obj, name, value)
    return obj
