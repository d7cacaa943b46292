"""Normalized pure states of one and two qubits, in plain Python.

Amplitude vectors are ordered |0>, |1> for one qubit and |00>, |01>, |10>, |11>
for two, with the first tensor factor as the most significant qubit.  A state
holds them as a tuple of Python ``complex``: with 2 or 4 amplitudes, scalar
arithmetic beats array calls, and nothing here imports numpy.  Only loops of
states are arrays (``berry``).

One normalization contract covers every unit vector in the package (states,
the weights of ``entangle.evolve_bell`` and ``entangle.concurrence_general``,
Rabi coefficients): ``unit_vector`` accepts finite values whose 2-norm is
within 1e-6 of 1 and renormalizes them, and rejects anything else, so silent
normalization drift is distinguished from caller bugs.  ``berry.Loop`` applies
it to every row of a loop at once, and ``phases.spinor_holonomy`` to each row
of the loop it streams.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError

NORM_TOLERANCE = 1e-6


def _off_unit(norm: float, what: str) -> DomainError:
    return DomainError(f"{what} norm {norm!r} not within {NORM_TOLERANCE} of 1")


_PARTS = (float, complex)


def _inverse_norm(*squares: float) -> float | None:
    """1/norm for the squared parts (real parts first), or None off the contract."""
    try:
        norm = math.sqrt(math.fsum(squares))
    except OverflowError:  # finite squares whose sum overflows: the checked path raises
        return None
    # False for a nan or infinite norm too
    return 1.0 / norm if abs(norm - 1.0) <= NORM_TOLERANCE else None


def unit_vector(values, what: str) -> tuple[complex, ...]:
    """values as a tuple of complex scaled to unit 2-norm.

    Raises DomainError unless values is a flat sequence of numbers, every
    component is finite and the 2-norm lies within NORM_TOLERANCE of 1.

    The norm is the correctly rounded square root of the exact sum of the
    squared parts (``math.fsum``), so it does not depend on the machine.  The
    division is numpy's complex-by-real one (Smith's form with a zero
    imaginary divisor), which keeps the bits, signed zeros included, that
    array normalization gave.

    A list or tuple of 2 or 4 plain floats or complexes on the contract, what
    every state and coefficient vector of the package is, takes a path with no
    comprehensions and the same arithmetic; anything else, and every rejection,
    goes through ``_checked_unit_vector``, which raises the errors.
    """
    kind = type(values)
    if kind is tuple or kind is list:
        n = len(values)
        if n == 2:
            a, b = values
            if type(a) in _PARTS and type(b) in _PARTS:
                ar, ai, br, bi = a.real, a.imag, b.real, b.imag
                inv = _inverse_norm(ar * ar, br * br, ai * ai, bi * bi)
                if inv is not None:
                    return (complex((ar + ai * 0.0) * inv, (ai - ar * 0.0) * inv),
                            complex((br + bi * 0.0) * inv, (bi - br * 0.0) * inv))
        elif n == 4:
            a, b, c, d = values
            if (type(a) in _PARTS and type(b) in _PARTS and type(c) in _PARTS
                    and type(d) in _PARTS):
                ar, ai, br, bi = a.real, a.imag, b.real, b.imag
                cr, ci, dr, di = c.real, c.imag, d.real, d.imag
                inv = _inverse_norm(ar * ar, br * br, cr * cr, dr * dr,
                                    ai * ai, bi * bi, ci * ci, di * di)
                if inv is not None:
                    return (complex((ar + ai * 0.0) * inv, (ai - ar * 0.0) * inv),
                            complex((br + bi * 0.0) * inv, (bi - br * 0.0) * inv),
                            complex((cr + ci * 0.0) * inv, (ci - cr * 0.0) * inv),
                            complex((dr + di * 0.0) * inv, (di - dr * 0.0) * inv))
    return _checked_unit_vector(values, what)


def _checked_unit_vector(values, what: str) -> tuple[complex, ...]:
    """``unit_vector`` for any input, with every check spelled out."""
    try:
        # a label such as "10" would read as digits, a dict or set as its keys
        if isinstance(values, (str, dict, set, frozenset)):
            raise TypeError(values)
        amps = [complex(v) for v in values]
    except OverflowError:  # an int too large for a float
        raise DomainError(f"{what} must be finite") from None
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a flat sequence of numbers") from None
    if not all(map(cmath.isfinite, amps)):
        raise DomainError(f"{what} must be finite")
    try:
        norm = math.sqrt(math.fsum([z.real * z.real for z in amps]
                                   + [z.imag * z.imag for z in amps]))
    except OverflowError:  # finite squares whose sum overflows: the norm is inf
        norm = math.inf
    if abs(norm - 1.0) > NORM_TOLERANCE:
        raise _off_unit(norm, what)
    inv = 1.0 / norm
    return tuple(complex((z.real + z.imag * 0.0) * inv, (z.imag - z.real * 0.0) * inv)
                 for z in amps)


class PureState:
    """Immutable normalized pure state of one or two qubits."""

    __slots__ = ("_amps",)

    def __init__(self, amplitudes) -> None:
        amps = unit_vector(amplitudes, "state")
        if len(amps) not in (2, 4):
            raise DomainError("amplitude vector must have length 2 or 4")
        self._amps = amps

    @property
    def amplitudes(self) -> tuple[complex, ...]:
        """The complex amplitudes, as a tuple."""
        return self._amps

    @property
    def num_qubits(self) -> int:
        return 1 if len(self._amps) == 2 else 2

    def __repr__(self) -> str:
        return f"PureState({list(self._amps)!r})"


def ket(label: str) -> PureState:
    """Computational basis state from a bit string, e.g. ket("0") or ket("10")."""
    if label not in ("0", "1", "00", "01", "10", "11"):
        raise DomainError(f"basis label must be 1 or 2 bits, got {label!r}")
    amps = [0j] * 2 ** len(label)
    amps[int(label, 2)] = 1 + 0j
    return PureState(amps)


def equal_up_to_global_phase(a: PureState, b: PureState, tol: float) -> bool:
    """True iff a equals c*b for some unit-modulus c, within tol in the 2-norm.

    The candidate c is read off the largest-magnitude componentwise overlap
    a_k * conj(b_k).  States with disjoint support compare unequal.
    """
    if a.num_qubits != b.num_qubits:
        raise DomainError("phase comparison requires states with equal qubit count")
    overlaps = [x * y.conjugate() for x, y in zip(a.amplitudes, b.amplitudes)]
    k = max(range(len(overlaps)), key=lambda i: abs(overlaps[i]))
    if overlaps[k] == 0.0:
        return False
    c = overlaps[k] / abs(overlaps[k])
    return math.hypot(*(abs(x - c * y) for x, y in zip(a.amplitudes, b.amplitudes))) <= tol
