"""Discrete loop transport: closed loops of states as arrays, and their phase.

This is the one module that imports numpy when it loads.  A loop of N segments is an
(N+1, d) complex array; ``holonomy_numeric`` multiplies its consecutive
overlaps, and its value is checked against the closed forms of ``phases``.
Row norms and overlaps are sums of one blocked inner-product kernel, and the
spinor rows take their gauge from ``phases``.  A spinor loop is not held as
an array: its rows are (c, s e^{-i x_k}) over one cached winding grid, made
a block at a time as the transport reads them and in full only when its
amplitudes, an item or a slice are read.  The grid costs 16 B a segment
(16 MB at ``MAX_SEGMENTS``) and is kept for the most recent segment count.
The transport is 2*pi periodic by construction and reports values in
[0, 2*pi).  The ``holonomy`` command does not load this module: it uses
``phases.spinor_holonomy``, which streams the loop of ``spinor_loop`` in plain
Python, and the tests hold each route against the other.
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
    _spinor_gauge,
)
from .states import NORM_TOLERANCE, PureState, _off_unit


def _unit_rows(arr: np.ndarray) -> np.ndarray:
    """A C-ordered (n, 2) or (n, 4) complex128 array the caller owns, its rows
    checked (the first offending row's norm is the one reported) and scaled to
    unit norm in place with the bits of numpy's complex division by the norm."""
    if not np.isfinite(arr).all():
        raise DomainError("state must be finite")
    norms = _row_norms(arr)
    dev = norms - 1.0
    np.abs(dev, out=dev)
    if dev.max(initial=0.0) > NORM_TOLERANCE:
        raise _off_unit(float(norms[dev > NORM_TOLERANCE][0]), "state")
    _scale_rows(arr, norms)
    return arr


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


def _scale_rows(rows: np.ndarray, norms: np.ndarray) -> None:
    """``rows /= norms[:, np.newaxis]`` with the same bits, by real multiplies.

    rows is a C-ordered (n, d) complex128 array, norms its n positive finite
    norms, which are overwritten.  numpy divides x by a real r as by r + 0j,
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
    for start in range(0, len(parts), _BLOCK_ROWS):
        block, scale = parts[start:start + _BLOCK_ROWS], inv[start:start + _BLOCK_ROWS]
        for j in range(block.shape[1]):
            column = block[:, j]
            column *= scale
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
    in place, so the kernel holds two buffers, not three: a streamed block of
    rows and the kernel stay under half a loop of 20000 segments."""
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


def _row_norms(arr: np.ndarray) -> np.ndarray:
    """The bits of ``np.linalg.norm(arr, axis=-1)`` for an (n, 2) or (n, 4) arr,
    without its reduce over a short axis: the square roots of the real parts
    of <x|x>.  The real part of a complex sum is the sum of the real parts."""
    norms = np.empty(len(arr))
    for start in range(0, len(arr), _BLOCK_ROWS):
        block = arr[start:start + _BLOCK_ROWS]
        norms[start:start + len(block)] = _inner_products(block, block).real
    return np.sqrt(norms, out=norms)


def spinor_amplitudes(theta: float, phi, orientation: Orientation) -> np.ndarray:
    """Gauge-fixed spinor amplitudes at polar angle theta, one row per azimuth in phi.

    UP:   (cos(theta/2), sin(theta/2) e^{-i phi})
    DOWN: (sin(theta/2), cos(theta/2) e^{+i phi})

    The result has shape ``np.shape(phi) + (2,)``; its rows are neither checked
    nor renormalized (``Loop`` does that).  Each row has the bits of
    ``circuits.prepare_spinor``'s amplitudes before renormalization.
    """
    c, s = _spinor_gauge(orientation, theta)
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


def _spinor_rows(c: float, s: float, winding: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The rows (c, s w) over the w of winding, written into out, a C-ordered
    (len(winding), 2) complex128 array, and not normalized."""
    out.fill(c)
    np.multiply(s, winding, out=out[:, 1])
    return out


class Loop(Sequence):
    """Read-only sequence of states backed by one (n, d) complex amplitude array.

    Building a Loop copies the rows and holds each to ``states.unit_vector``'s
    contract, with its messages: finite, 2-norm within 1e-6 of 1, renormalized.
    A finite row whose squared parts overflow has norm inf and is rejected
    without a warning.  Items are ``PureState`` values with the bits of their
    rows, and slices are Loops that share the array.

    A loop from ``spinor_loop`` holds only (c, s, N) until its amplitudes, an
    item or a slice are read.  Then it builds its array (32 B a segment) from
    the cached winding grid (16 B a segment, one segment count at a time),
    with the bits it would have had if built at once.  ``holonomy_numeric``
    reads an unbuilt one a block of rows at a time and leaves it unbuilt.
    """

    __slots__ = ("_amps", "_spinor")

    def __init__(self, amplitudes) -> None:
        arr = np.array(amplitudes, dtype=np.complex128, order="C")  # _scale_rows' float view
        if arr.ndim != 2 or arr.shape[1] not in (2, 4):
            raise DomainError("loop amplitudes must have shape (n, 2) or (n, 4)")
        with np.errstate(over="ignore"):
            self._amps = _frozen(_unit_rows(arr))
        self._spinor = None

    @classmethod
    def _of(cls, amps: np.ndarray | None, spinor: tuple[float, float, int] | None = None) -> Loop:
        """A Loop over amps, a read-only array of rows that already hold the
        contract, or, with amps None, over the spinor rows (c, s e^{-i x_k}),
        x_k = 2*pi*k/N, of spinor = (c, s, N)."""
        loop = object.__new__(cls)
        loop._amps, loop._spinor = amps, spinor
        return loop

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only (n, d) complex amplitudes, one state per row."""
        if self._amps is None:
            c, s, segments = self._spinor
            rows = np.empty((segments + 1, 2), dtype=np.complex128)
            self._amps = _frozen(_unit_rows(_spinor_rows(c, s, _winding(segments), rows)))
        return self._amps

    def __len__(self) -> int:
        return len(self._amps) if self._spinor is None else self._spinor[2] + 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Loop._of(self.amplitudes[index])
        # the row already holds the contract; renormalizing it again would move
        # the last bit of about one row in eight
        state = object.__new__(PureState)
        state._amps = tuple(self.amplitudes[operator.index(index)].tolist())
        return state

    def _row_blocks(self) -> Iterator[np.ndarray]:
        """The rows in blocks of ``_BLOCK_ROWS`` + 1 from row 0, each block's
        first row the last of the block before: views of the array, or, while
        a spinor loop is unbuilt, its rows made and normalized block by block
        in one buffer, which the next block overwrites."""
        starts = range(0, len(self) - 1, _BLOCK_ROWS)
        if self._amps is not None:
            return (self._amps[start:start + _BLOCK_ROWS + 1] for start in starts)
        c, s, segments = self._spinor
        winding = _winding(segments)
        rows = np.empty((min(segments, _BLOCK_ROWS) + 1, 2), dtype=np.complex128)
        return (_unit_rows(_spinor_rows(c, s, w, rows[:len(w)]))
                for w in (winding[start:start + _BLOCK_ROWS + 1] for start in starts))


def _block_phases(rows: np.ndarray) -> tuple[float, float]:
    """The least |<r_k|r_{k+1}>| over a block's consecutive rows, and the sum of
    those overlaps' phases.  Its arrays are freed on return, before the next
    block is made."""
    overlaps = _inner_products(rows[:-1], rows[1:])
    reals = np.abs(overlaps)
    return float(reals.min()), float(np.arctan2(overlaps.imag, overlaps.real, out=reals).sum())


def holonomy_numeric(path: Sequence[PureState]) -> GeometricPhase:
    """Discrete loop transport phase -arg prod_k <psi_k | psi_{k+1}>, in [0, 2*pi).

    The path must be explicitly closed: first and last states identical to
    1e-12 componentwise.  Consecutive overlaps below 1e-9 in magnitude leave
    the transported phase ill-defined and are rejected.  The result is
    insensitive to per-point global phases (endpoints rephased together).
    A ``Loop`` is read a block of rows at a time, so an unbuilt spinor loop
    is never held whole; any other sequence of states is stacked first.
    """
    if len(path) < 2:
        raise DomainError("a loop needs at least two states")
    if not isinstance(path, Loop):
        if len({s.num_qubits for s in path}) != 1:
            raise DomainError("all loop states must have the same qubit count")
        path = Loop._of(np.stack([s.amplitudes for s in path]))
    # the overlaps <psi_k | psi_{k+1}> a block of rows at a time, and their phases
    first, smallest, block_sums = None, math.inf, []
    for rows in path._row_blocks():
        if first is None:
            first = rows[0].copy()
        least, phases = _block_phases(rows)
        smallest = min(smallest, least)
        block_sums.append(phases)
    if float(np.max(np.abs(first - rows[-1]))) > CLOSURE_TOLERANCE:
        raise DomainError("open path: first and last states differ beyond 1e-12")
    if smallest < MIN_OVERLAP:
        raise DegeneratePathError("consecutive loop states are nearly orthogonal")
    return GeometricPhase.wrapped(-math.fsum(block_sums))


def _azimuths(segments: int) -> np.ndarray:
    """The closed azimuth grid 2*pi * k/segments for k = 0..segments."""
    phi = np.arange(segments + 1, dtype=np.float64)
    phi /= segments
    phi *= TWO_PI
    return phi


@lru_cache(maxsize=1)
def _winding(segments: int) -> np.ndarray:
    """The read-only grid e^{-i x_k}, x_k = 2*pi*k/segments, for k = 0..segments.

    These are the bits of ``spinor_amplitudes``' e^{-i phi} over the UP loop's
    azimuths phi = x_k, and of its e^{+i phi} over the DOWN loop's phi = -x_k.
    Only the most recent segment count is kept.
    """
    grid = np.multiply(-1j, _azimuths(segments))
    np.exp(grid, out=grid)
    return _frozen(grid)


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
    return Loop._of(None, (c, s, operator.index(segments)))


def _antisymmetric_family(theta: float, segments: int) -> np.ndarray:
    """Rows kron(up_k, down_k) - kron(down_k, up_k) over the azimuth grid, unnormalized."""
    phi = _azimuths(segments)
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
    _scale_rows(raw, norms)
    # the rows are renormalized once more, which sets their last bits
    return Loop._of(_frozen(_unit_rows(raw)))
