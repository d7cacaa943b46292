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
from .circuits import Orientation
from .errors import DegeneratePathError, DomainError
from .phases import CLOSURE_TOLERANCE, MIN_OVERLAP, GeometricPhase
from .states import NORM_TOLERANCE, PureState, _off_unit

# A Loop stores 32 B per segment (spinor) or 64 B (entangled family).  Building
# and transporting a 10^6-segment loop peaks about 108 MiB (spinor) or 276 MiB
# (entangled) above the interpreter's resident size, temporaries included
# (numpy 2.4, x86-64 Linux).
MAX_SEGMENTS = 1_000_000


def unit_rows(values, what: str) -> np.ndarray:
    """The row-wise ``states.unit_vector``: a new complex array with every row at unit 2-norm.

    Every row is held to the ``unit_vector`` contract, with its messages; the
    first offending row's norm is the one reported.
    """
    arr = np.array(values, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite")
    norms = np.linalg.norm(arr, axis=-1)
    off = norms[np.abs(norms - 1.0) > NORM_TOLERANCE]
    if off.size:
        raise _off_unit(float(off[0]), what)
    arr /= norms[..., np.newaxis]
    return arr


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
    phi = np.asarray(phi, dtype=np.float64)
    out = np.empty(phi.shape + (2,), dtype=np.complex128)
    if orientation is Orientation.UP:
        out[..., 0] = c
        out[..., 1] = s * np.exp(-1j * phi)
    else:
        out[..., 0] = s
        out[..., 1] = c * np.exp(1j * phi)
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
        arr = unit_rows(amplitudes, "state")
        if arr.ndim != 2 or arr.shape[1] not in (2, 4):
            raise DomainError("loop amplitudes must have shape (n, 2) or (n, 4)")
        arr.flags.writeable = False
        self._amps = arr

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
    return sign * TWO_PI * (np.arange(segments + 1) / segments)


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
    return Loop(spinor_amplitudes(theta, _azimuths(sign, segments), orientation))


def entangled_family_loop(theta: float, segments: int) -> Loop:
    """Closed loop of the normalized two-spinor antisymmetric family over phi.

    The family is up(phi) x down(phi) - down(phi) x up(phi), renormalized.  It
    vanishes identically at theta = pi/2 where up and down coincide, which is
    rejected as degenerate.
    """
    check_theta(theta)
    _check_segments(segments)
    phi = _azimuths(1.0, segments)
    up = spinor_amplitudes(theta, phi, Orientation.UP)
    down = spinor_amplitudes(theta, phi, Orientation.DOWN)
    # row k is kron(up_k, down_k) - kron(down_k, up_k)
    raw = up[:, :, np.newaxis] * down[:, np.newaxis, :]
    raw -= down[:, :, np.newaxis] * up[:, np.newaxis, :]
    raw = raw.reshape(-1, 4)
    norms = np.linalg.norm(raw, axis=1)
    if float(norms.min()) < MIN_OVERLAP:
        raise DegeneratePathError("antisymmetric spinor family vanishes near theta = pi/2")
    raw /= norms[:, np.newaxis]
    return Loop(raw)
