"""Discrete loop transport: closed loops of states as arrays, and their phase.

This is the one module that imports numpy when it loads.  A loop of N segments is an
(N+1, d) complex array; ``holonomy_numeric`` multiplies its consecutive
overlaps, and its value is checked against the closed forms of ``phases``.
The transport is 2*pi periodic by construction and reports values in
[0, 2*pi).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence

import numpy as np

from ._angles import TWO_PI, check_integer, check_theta
from .errors import DegeneratePathError, DomainError
from .phases import CLOSURE_TOLERANCE, MIN_OVERLAP, GeometricPhase, Orientation
from .states import NORM_TOLERANCE, PureState, _off_unit

# A Loop stores 32 B per segment (spinor) or 64 B (entangled family).  Building
# and transporting a 10^6-segment loop peaks about 77 MiB (spinor) or 161 MiB
# (entangled) above the interpreter's resident size, temporaries included
# (numpy 2.4, x86-64 Linux, ru_maxrss in a fresh process).
MAX_SEGMENTS = 1_000_000


def unit_rows(values, what: str) -> np.ndarray:
    """The row-wise ``states.unit_vector``: a new complex array with every row at unit 2-norm.

    Every row is held to the ``unit_vector`` contract, with its messages; the
    first offending row's norm is the one reported.  A finite row whose
    squared parts overflow has norm inf and is rejected without a warning.
    """
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim == 0:
        raise DomainError(f"{what} must be an array of rows")
    with np.errstate(over="ignore"):
        return _unit_rows(arr, what)


def _unit_rows(arr: np.ndarray, what: str) -> np.ndarray:
    """``unit_rows`` on a complex128 array the caller owns, renormalized in place."""
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite")
    norms = _row_norms(arr)
    dev = np.abs(norms - 1.0)
    if dev.max(initial=0.0) > NORM_TOLERANCE:
        raise _off_unit(float(norms[dev > NORM_TOLERANCE][0]), what)
    arr /= norms[..., np.newaxis]
    return arr


def _row_norms(arr: np.ndarray) -> np.ndarray:
    """The bits of ``np.linalg.norm(arr, axis=-1)``, without its reduce over a short axis.

    |x|^2 is the real part of numpy's complex product conj(x)*x, which may be
    a fused multiply-add, as in ``np.linalg.norm``.  Rows of 2 or 4 are then
    summed column by column, left to right, the order numpy's reduce adds them in.
    """
    if arr.ndim != 2 or arr.shape[1] not in (2, 4):
        # not a loop's shape: unit_rows takes rows of any length
        return np.linalg.norm(arr, axis=-1)
    sq = np.conjugate(arr)
    np.multiply(sq, arr, out=sq)
    sq = sq.real
    norms = sq[:, 0] + sq[:, 1]
    for k in range(2, arr.shape[1]):
        norms += sq[:, k]
    return np.sqrt(norms, out=norms)


def spinor_amplitudes(theta: float, phi, orientation: Orientation) -> np.ndarray:
    """Gauge-fixed spinor amplitudes at polar angle theta, one row per azimuth in phi.

    UP:   (cos(theta/2), sin(theta/2) e^{-i phi})
    DOWN: (sin(theta/2), cos(theta/2) e^{+i phi})

    The result has shape ``np.shape(phi) + (2,)``; its rows are neither checked
    nor renormalized (``unit_rows`` does that).  Each row has the bits of
    ``circuits.prepare_spinor``'s amplitudes before renormalization.
    """
    half = theta / 2.0
    c, s = math.cos(half), math.sin(half)
    if orientation is Orientation.DOWN:
        c, s = s, c
    phi = np.asarray(phi, dtype=np.float64)
    out = np.empty(phi.shape + (2,), dtype=np.complex128)
    out.fill(c)  # one contiguous pass; the second column is overwritten below
    # e^{-i phi} (UP) or e^{+i phi} (DOWN), scaled by s, made in place in the
    # second column: a view, so out= holds for a 0-d phi too
    second = out[..., 1]
    np.multiply(-1j if orientation is Orientation.UP else 1j, phi, out=second)
    np.exp(second, out=second)
    np.multiply(s, second, out=second)
    return out


class Loop(Sequence):
    """Read-only sequence of states backed by one (n, d) complex amplitude array.

    Building a Loop holds every row to the package's normalization contract
    (``unit_rows``: finite, 2-norm within 1e-6 of 1, renormalized) and
    freezes the array.  Items are ``PureState`` values with the bits of their
    rows, and slices are Loops that share the array.
    """

    __slots__ = ("_amps",)

    def __init__(self, amplitudes) -> None:
        arr = np.asarray(amplitudes, dtype=np.complex128)  # unit_rows makes the copy
        if arr.ndim != 2 or arr.shape[1] not in (2, 4):
            raise DomainError("loop amplitudes must have shape (n, 2) or (n, 4)")
        self._amps = _frozen(unit_rows(arr, "state"))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> Loop:
        """A Loop over a complex128 (n, 2) or (n, 4) array that nothing else holds,
        without copying it."""
        loop = object.__new__(cls)
        loop._amps = _frozen(_unit_rows(arr, "state"))
        return loop

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only (n, d) complex amplitudes, one state per row."""
        return self._amps

    def __len__(self) -> int:
        return self._amps.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            view = object.__new__(Loop)
            view._amps = self._amps[index]
            return view
        # the row already holds the contract; renormalizing it again would move
        # the last bit of about one row in eight
        state = object.__new__(PureState)
        state._amps = tuple(self._amps[operator.index(index)].tolist())
        return state


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def holonomy_numeric(path: Sequence[PureState]) -> GeometricPhase:
    """Discrete loop transport phase -arg prod_k <psi_k | psi_{k+1}>, in [0, 2*pi).

    The path must be explicitly closed: first and last states identical to
    1e-12 componentwise.  Consecutive overlaps below 1e-9 in magnitude leave
    the transported phase ill-defined and are rejected.  The result is
    insensitive to per-point global phases (endpoints rephased together).
    A ``Loop`` is read as its amplitude array; any other sequence of states
    is stacked first.
    """
    if len(path) < 2:
        raise DomainError("a loop needs at least two states")
    if isinstance(path, Loop):
        amps = path.amplitudes
    else:
        if len({s.num_qubits for s in path}) != 1:
            raise DomainError("all loop states must have the same qubit count")
        amps = np.stack([s.amplitudes for s in path])
    if float(np.max(np.abs(amps[0] - amps[-1]))) > CLOSURE_TOLERANCE:
        raise DomainError("open path: first and last states differ beyond 1e-12")
    overlaps = np.einsum("ij,ij->i", np.conj(amps[:-1]), amps[1:])
    if float(np.min(np.abs(overlaps))) < MIN_OVERLAP:
        raise DegeneratePathError("consecutive loop states are nearly orthogonal")
    total = -float(np.sum(np.angle(overlaps)))
    return GeometricPhase.wrapped(total)


def _check_segments(segments: int) -> None:
    check_integer(segments, "segments")
    if segments < 2:
        raise DomainError("a loop needs at least 2 segments")
    if segments > MAX_SEGMENTS:
        raise DomainError(f"a loop takes at most {MAX_SEGMENTS} segments")


def _azimuths(sign: float, segments: int) -> np.ndarray:
    """The closed azimuth grid sign * 2*pi * k/segments for k = 0..segments."""
    phi = np.arange(segments + 1, dtype=np.float64)
    phi /= segments
    phi *= sign * TWO_PI
    return phi


def spinor_loop(orientation: Orientation, theta: float, segments: int) -> Loop:
    """Closed loop of gauge-fixed spinors at fixed theta, azimuth winding once around.

    The loop is traversed with its orientation referred to the spinor's own
    quantization axis: phi runs 0 -> +2*pi for UP and 0 -> -2*pi for DOWN.
    Transporting the DOWN family in the +phi direction instead would pick up
    the negative of its phase (equal to the UP value mod 2*pi).
    """
    check_theta(theta)
    _check_segments(segments)
    sign = 1.0 if orientation is Orientation.UP else -1.0
    return Loop._adopt(spinor_amplitudes(theta, _azimuths(sign, segments), orientation))


def _antisymmetric_family(theta: float, segments: int) -> np.ndarray:
    """Rows kron(up_k, down_k) - kron(down_k, up_k) over the azimuth grid, unnormalized."""
    phi = _azimuths(1.0, segments)
    up = spinor_amplitudes(theta, phi, Orientation.UP)
    down = spinor_amplitudes(theta, phi, Orientation.DOWN)
    raw = np.multiply(up[:, :, np.newaxis], down[:, np.newaxis, :])
    # the second product a row block at a time, down first: numpy's complex
    # product need not commute bit for bit
    for i in (0, 1):
        raw[:, i, :] -= down[:, i, np.newaxis] * up
    return raw.reshape(-1, 4)


def entangled_family_loop(theta: float, segments: int) -> Loop:
    """Closed loop of the normalized two-spinor antisymmetric family over phi.

    The family is up(phi) x down(phi) - down(phi) x up(phi), renormalized.  It
    vanishes identically at theta = pi/2 where up and down coincide, which is
    rejected as degenerate.
    """
    check_theta(theta)
    _check_segments(segments)
    raw = _antisymmetric_family(theta, segments)
    norms = _row_norms(raw)
    if float(norms.min()) < MIN_OVERLAP:
        raise DegeneratePathError("antisymmetric spinor family vanishes near theta = pi/2")
    raw /= norms[:, np.newaxis]
    # Loop renormalizes the rows once more, which sets their last bits
    return Loop._adopt(raw)
