"""Discrete loop transport: closed loops of states as arrays, and their phase.

This is the one module that imports numpy when it loads.  A loop of N segments is an
(N+1, d) complex array; ``holonomy_numeric`` multiplies its consecutive
overlaps, and its value is checked against the closed forms of ``phases``.
Rows are normalized a block at a time, their norms and overlaps sums of one
inner-product kernel.  One builder makes every spinor row (c, s e^{-i x_k}),
its gauge from ``phases``.  A spinor loop's rows come from one cached winding
grid, which costs 16 B a segment (16 MB at ``MAX_SEGMENTS``) and is kept for
the most recent segment count.  The transport is 2*pi periodic by
construction and reports values in [0, 2*pi).  The ``holonomy`` command does
not load this module: it uses ``phases.spinor_holonomy``, which streams the
loop of ``spinor_loop`` in plain Python, and the tests hold each route
against the other.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from functools import lru_cache

import numpy as np

from ._angles import TWO_PI, check_theta
from .errors import DegeneratePathError, DomainError
from .phases import (  # noqa: F401  MAX_SEGMENTS stays readable as berry.MAX_SEGMENTS
    CLOSURE_TOLERANCE,
    MAX_SEGMENTS,
    MIN_OVERLAP,
    GeometricPhase,
    Orientation,
    _check_segments,
    _nearly_orthogonal,
    _open_path,
    _spinor_gauge,
)
from .states import NORM_TOLERANCE, PureState, _off_unit


def _unit_rows(arr: np.ndarray) -> np.ndarray:
    """A C-ordered (n, 2) or (n, 4) complex128 array the caller owns, checked to
    be finite, then a block at a time checked (the first offending row's norm
    is the one reported) and scaled to unit norm in place with the bits of
    numpy's complex division by the norm."""
    if not np.isfinite(arr).all():
        raise DomainError("state must be finite")
    for block in _blocks(arr):
        _unit_block(block)
    return arr


def _unit_block(block: np.ndarray) -> None:
    """One block of ``_unit_rows``, its arrays freed before the next block's are made."""
    norms = _row_norms(block)
    dev = np.abs(norms - 1.0)
    if dev.max() > NORM_TOLERANCE:
        raise _off_unit(float(norms[dev > NORM_TOLERANCE][0]), "state")
    _scale_rows(block, norms)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# -0.0 read as an int64
_NEGATIVE_ZERO_BITS = np.int64(-(1 << 63))
# rows per block of the column-by-column passes below: a block's rows stay in
# a core's cache from one column pass to the next, beside the kernel's two
# buffers (64 KiB each).  A 10^6-segment two-qubit loop built in 359 ms and was
# transported in 32 ms in blocks of 4096 rows, in 409 and 48 ms in blocks of
# 1024, and in 587 and 85 ms over whole columns, which leave the cache; a
# complex division and einsum over the whole array took 459 and 55 ms
# (medians of 7 processes of tools/large_loops.py, in BENCH_14.json; 2-vCPU
# Xeon).
_BLOCK_ROWS = 4096


def _blocks(arr: np.ndarray, overlap: int = 0) -> Iterator[np.ndarray]:
    """Views of arr's rows in blocks of ``_BLOCK_ROWS`` + overlap from row 0,
    each block's first overlap rows the last of the block before."""
    starts = range(0, len(arr) - overlap, _BLOCK_ROWS)
    return (arr[start:start + _BLOCK_ROWS + overlap] for start in starts)


def _scale_rows(rows: np.ndarray, norms: np.ndarray) -> None:
    """``rows /= norms[:, np.newaxis]`` with the same bits, by real multiplies.

    rows is a C-ordered block of (n, d) complex128 rows, norms its n positive
    finite norms, which are overwritten.  numpy divides x by a real r as by r + 0j,
    and computes that as ((re + im*0) * (1/r), (im - re*0) * (1/r)) with one
    reciprocal.  Off zero parts that is re*(1/r) and im*(1/r): one reciprocal
    per row, then one real multiply per float column.  On a zero part the
    added +-0 sets the sign: a -0.0 real part stays -0.0 only when its
    imaginary part has the sign bit set, and a -0.0 imaginary part stays -0.0
    only when its real part does not.  Every other -0.0 becomes +0.0.
    """
    inv = np.divide(1.0, norms, out=norms)
    parts = rows.view(np.float64)
    # column by column: a broadcast over a short last axis runs an inner loop
    # per row
    for j in range(parts.shape[1]):
        column = parts[:, j]
        column *= inv
    negative_zero = parts.view(np.int64) == _NEGATIVE_ZERO_BITS
    if negative_zero.any():
        sign = np.signbit(parts)
        parts[:, 0::2][negative_zero[:, 0::2] & ~sign[:, 1::2]] = 0.0
        parts[:, 1::2][negative_zero[:, 1::2] & sign[:, 0::2]] = 0.0


def _inner_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The inner products <a_i|b_i> of at most ``_BLOCK_ROWS`` rows.  Each adds
    numpy's complex products conj(a)*b (fused multiply-adds, if any, as in
    ``np.linalg.norm`` and ``einsum``) over the columns left to right, the order
    numpy's reduce adds them in, one column at a time.  Each product is made
    in place, so the kernel holds two buffers, not three."""
    total = np.empty(len(a), dtype=np.complex128)
    product = np.empty_like(total)
    for k in range(a.shape[1]):
        column = product if k else total
        np.conjugate(a[:, k], out=column)
        if len(a) > 1:
            np.multiply(column, b[:, k], out=column)
        else:
            # numpy's in-place product of a single element skips the fused
            # multiply-add that longer products may use
            column[:] = column * b[:, k]
        if k:
            total += product
    return total


def _row_norms(block: np.ndarray) -> np.ndarray:
    """The bits of ``np.linalg.norm(block, axis=-1)`` for one block of rows,
    without its reduce over a short axis: the square roots of the real parts
    of <x|x>.  The real part of a complex sum is the sum of the real parts."""
    return np.sqrt(_inner_products(block, block).real)


def _spinor_rows(c: float, s: float, grid: np.ndarray) -> np.ndarray:
    """A new C-ordered array of the spinor rows (c, s w) over the w of grid, not
    normalized.  Every spinor row of this module is made here."""
    out = np.full((len(grid), 2), c, dtype=np.complex128)
    np.multiply(s, grid, out=out[:, 1])
    return out


class Loop(Sequence):
    """Read-only sequence of states backed by one (n, d) complex amplitude array.

    Building a Loop copies the rows and holds each to ``states.unit_vector``'s
    contract, with its messages: finite, 2-norm within 1e-6 of 1, renormalized.
    A finite row whose squared parts overflow has norm inf and is rejected
    without a warning.  Items are ``PureState`` values with the bits of their
    rows, and slices are Loops that share the array.
    """

    __slots__ = ("_amps",)

    def __init__(self, amplitudes) -> None:
        try:
            arr = np.array(amplitudes, dtype=np.complex128, order="C")  # _scale_rows' float view
        except OverflowError:  # an int too large for a float
            raise DomainError("state must be finite") from None
        except (TypeError, ValueError):
            raise DomainError("loop amplitudes must be an array of numbers") from None
        if arr.ndim != 2 or arr.shape[1] not in (2, 4):
            raise DomainError("loop amplitudes must have shape (n, 2) or (n, 4)")
        with np.errstate(over="ignore"):
            self._amps = _frozen(_unit_rows(arr))

    @classmethod
    def _of(cls, amps: np.ndarray) -> Loop:
        """A Loop over amps, a read-only array of rows that already hold the contract."""
        loop = object.__new__(cls)
        loop._amps = amps
        return loop

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only (n, d) complex amplitudes, one state per row."""
        return self._amps

    def __len__(self) -> int:
        return len(self._amps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Loop._of(self._amps[index])
        # the row already holds the contract; renormalizing it again would move
        # the last bit of about one row in eight
        state = object.__new__(PureState)
        state._amps = tuple(self._amps[operator.index(index)].tolist())
        return state


def _block_phases(rows: np.ndarray) -> tuple[float, float]:
    """The least |<r_k|r_{k+1}>| over a block's consecutive rows, and the sum of
    those overlaps' phases.  Its arrays are freed on return, before the next
    block's are made."""
    overlaps = _inner_products(rows[:-1], rows[1:])
    reals = np.abs(overlaps)
    return float(reals.min()), float(np.arctan2(overlaps.imag, overlaps.real, out=reals).sum())


def holonomy_numeric(path: Sequence[PureState]) -> GeometricPhase:
    """Discrete loop transport phase -arg prod_k <psi_k | psi_{k+1}>, in [0, 2*pi).

    The path must be explicitly closed: first and last states identical to
    1e-12 componentwise.  Consecutive overlaps below 1e-9 in magnitude leave
    the transported phase ill-defined and are rejected.  The result is
    insensitive to per-point global phases (endpoints rephased together).
    A sequence of states that is not a ``Loop`` is stacked into one array first.
    """
    if len(path) < 2:
        raise DomainError("a loop needs at least two states")
    if not isinstance(path, Loop):
        if len({s.num_qubits for s in path}) != 1:
            raise DomainError("all loop states must have the same qubit count")
        path = Loop._of(np.stack([s.amplitudes for s in path]))
    amps = path.amplitudes
    if float(np.max(np.abs(amps[0] - amps[-1]))) > CLOSURE_TOLERANCE:
        raise _open_path()
    # the overlaps <psi_k | psi_{k+1}> a block of rows at a time, and their phases
    smallest, block_sums = math.inf, []
    for rows in _blocks(amps, 1):
        least, phases = _block_phases(rows)
        smallest = min(smallest, least)
        block_sums.append(phases)
    if smallest < MIN_OVERLAP:
        raise _nearly_orthogonal()
    return GeometricPhase.wrapped(-math.fsum(block_sums))


def _winding_grid(segments: int) -> np.ndarray:
    """A new grid e^{-i x_k}, x_k = 2*pi*k/segments, for k = 0..segments: numpy's
    e^{-i phi} over the UP loop's azimuths phi = x_k and its e^{+i phi} over the
    DOWN loop's phi = -x_k.  Its conjugate has the bits of e^{+i x_k}."""
    x = np.arange(segments + 1, dtype=np.float64)
    x /= segments
    x *= TWO_PI
    grid = np.multiply(-1j, x)
    return np.exp(grid, out=grid)


@lru_cache(maxsize=1)
def _winding(segments: int) -> np.ndarray:
    """The spinor loops' read-only ``_winding_grid``, kept for the most recent
    segment count only."""
    return _frozen(_winding_grid(segments))


def spinor_loop(orientation: Orientation, theta: float, segments: int) -> Loop:
    """Closed loop of gauge-fixed spinors at fixed theta, azimuth winding once around.

    The loop is traversed with its orientation referred to the spinor's own
    quantization axis: phi runs 0 -> +2*pi for UP and 0 -> -2*pi for DOWN.
    Transporting the DOWN family in the +phi direction instead would pick up
    the negative of its phase (equal to the UP value mod 2*pi).  Both wind
    their second amplitude as e^{-i x_k}, x_k = 2*pi*k/segments.
    """
    check_theta(theta)
    _check_segments(segments)
    c, s = _spinor_gauge(orientation, theta)
    return Loop._of(_frozen(_unit_rows(_spinor_rows(c, s, _winding(segments)))))


def _antisymmetric_family(theta: float, segments: int) -> np.ndarray:
    """Rows kron(up_k, down_k) - kron(down_k, up_k), unnormalized, of up_k = (c,
    s e^{-i x_k}) and down_k = (s, c e^{+i x_k}) over a grid of its own: the
    cached one stays a spinor loop's.  The grid is freed before the products."""
    c, s = _spinor_gauge(Orientation.UP, theta)
    grid = _winding_grid(segments)
    up = _spinor_rows(c, s, grid)
    down = _spinor_rows(*_spinor_gauge(Orientation.DOWN, theta), np.conjugate(grid, out=grid))
    del grid
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
    for block in _blocks(raw):
        norms = _row_norms(block)
        if float(norms.min()) < MIN_OVERLAP:
            raise DegeneratePathError("antisymmetric spinor family vanishes near theta = pi/2")
        _scale_rows(block, norms)
    # the rows are renormalized once more, which sets their last bits
    return Loop._of(_frozen(_unit_rows(raw)))
