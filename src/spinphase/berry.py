"""Discrete loop transport: closed loops of states as arrays, and their phase.

This is the one module that imports numpy when it loads.  A loop of N segments is an
(N+1, d) complex array; ``holonomy_numeric`` multiplies its consecutive
overlaps, and its value is checked against the closed forms of ``phases``.
Row norms and overlaps are sums of one blocked inner-product kernel, and the
spinor rows take their gauge from ``phases``.
The transport is 2*pi periodic by construction and reports values in
[0, 2*pi).  The ``holonomy`` command does not load this module: it uses
``phases.spinor_holonomy``, which streams the loop of ``spinor_loop`` in plain
Python, and the tests hold each route against the other.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence

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
    checked (the first offending row's norm is the one reported), scaled to
    unit norm in place with the bits of numpy's complex division by the norm,
    and frozen."""
    if not np.isfinite(arr).all():
        raise DomainError("state must be finite")
    norms = _row_norms(arr)
    dev = norms - 1.0
    np.abs(dev, out=dev)
    if dev.max(initial=0.0) > NORM_TOLERANCE:
        raise _off_unit(float(norms[dev > NORM_TOLERANCE][0]), "state")
    _scale_rows(arr, norms)
    arr.flags.writeable = False
    return arr


# -0.0 read as an int64
_NEGATIVE_ZERO_BITS = np.int64(-(1 << 63))
# rows per block of the column-by-column passes below: a block's rows stay in
# a core's cache from one column pass to the next, and its buffers (64 KiB
# each) are reused.  A 10^6-segment two-qubit loop built in 359 ms and was
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


def _inner_products(left: np.ndarray, right: np.ndarray):
    """Yield (start, sums) per block of rows: the inner products <left_i|right_i>
    of the rows from start, in a buffer that the next block overwrites.  Each
    adds numpy's complex products conj(a)*b (fused multiply-adds, if any, as in
    ``np.linalg.norm`` and ``einsum``) over the columns left to right, the order
    numpy's reduce adds them in, one column at a time in reused buffers."""
    sums = np.empty(min(len(left), _BLOCK_ROWS), dtype=np.complex128)
    conjugates, products = np.empty_like(sums), np.empty_like(sums)
    for start in range(0, len(left), _BLOCK_ROWS):
        a, b = left[start:start + _BLOCK_ROWS], right[start:start + _BLOCK_ROWS]
        total, conjugate, product = sums[:len(a)], conjugates[:len(a)], products[:len(a)]
        for k in range(a.shape[1]):
            np.conjugate(a[:, k], out=conjugate)
            # not in place: numpy's in-place product of a single element
            # skips the fused multiply-add that longer products may use
            np.multiply(conjugate, b[:, k], out=product if k else total)
            if k:
                total += product
        yield start, total


def _row_norms(arr: np.ndarray) -> np.ndarray:
    """The bits of ``np.linalg.norm(arr, axis=-1)`` for an (n, 2) or (n, 4) arr,
    without its reduce over a short axis: the square roots of the real parts
    of <x|x>.  The real part of a complex sum is the sum of the real parts."""
    norms = np.empty(len(arr))
    for start, sums in _inner_products(arr, arr):
        norms[start:start + len(sums)] = sums.real
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
        arr = np.array(amplitudes, dtype=np.complex128, order="C")  # _scale_rows' float view
        if arr.ndim != 2 or arr.shape[1] not in (2, 4):
            raise DomainError("loop amplitudes must have shape (n, 2) or (n, 4)")
        with np.errstate(over="ignore"):
            self._amps = _unit_rows(arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> Loop:
        """A Loop over a complex128 (n, 2) or (n, 4) array that nothing else holds,
        without copying it."""
        loop = object.__new__(cls)
        loop._amps = _unit_rows(arr)
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
    # the overlaps <psi_k | psi_{k+1}> a block of rows at a time, and their phases
    smallest, block_sums = math.inf, []
    for _, overlaps in _inner_products(amps[:-1], amps[1:]):
        reals = np.abs(overlaps)
        smallest = min(smallest, float(reals.min()))
        block_sums.append(float(np.arctan2(overlaps.imag, overlaps.real, out=reals).sum()))
    if smallest < MIN_OVERLAP:
        raise DegeneratePathError("consecutive loop states are nearly orthogonal")
    total = -math.fsum(block_sums)
    return GeometricPhase.wrapped(total)


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
    _scale_rows(raw, norms)
    # Loop renormalizes the rows once more, which sets their last bits
    return Loop._adopt(raw)
