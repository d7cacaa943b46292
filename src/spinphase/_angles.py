"""Angle bookkeeping, input checks and the value-type base shared by the modules."""

from __future__ import annotations

import math
import operator

from .errors import DomainError

TWO_PI = 2.0 * math.pi


def check_real(what: str, *values) -> None:
    """Reject the first of values that is not a finite real; what names them in the message.

    A real is a ``numbers.Real`` other than a bool, Python's or numpy's (numpy's
    is no ``numbers.Real``), as for a circuit binding.
    """
    for value in values:
        if type(value) is not float:  # the common case skips the type checks
            import numbers  # not needed at import time: the CLI passes plain floats

            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"{what} must be real")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise DomainError(f"{what} must be finite")


def check_integer(value, name: str) -> None:
    """Reject a size input that is not an integer (floats such as 3.0 included)."""
    try:
        operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer") from None


def check_theta(theta: float) -> float:
    """Validate a polar angle; the toolkit works on the closed interval [0, pi]."""
    check_real("theta", theta)
    if theta < 0.0 or theta > math.pi:
        raise DomainError("theta out of [0, pi]")
    return theta


def mod_two_pi(x: float) -> float:
    """Reduce a finite angle into [0, 2*pi)."""
    check_real("angle", x)
    r = math.fmod(x, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:  # fmod(-tiny) + 2*pi can round up to the excluded endpoint
        r = 0.0
    return r + 0.0  # -0.0 becomes +0.0; every other value is unchanged


def wrap_pm_pi(x: float) -> float:
    """Reduce a finite angle into the canonical branch (-pi, pi]."""
    check_real("angle", x)
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
        # copy and pickle skip __init__, whose checks passed; the default
        # restore would set the slots through __setattr__, which raises
        return _rebuild, (type(self), self._values())


def _rebuild(cls, values: tuple) -> Frozen:
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(obj, name, value)
    return obj
