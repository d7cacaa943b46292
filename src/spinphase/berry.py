"""Berry connections and phases of quantized spinors, plus a discrete loop oracle.

Analytic phases are reported raw: 0 and 2*pi label physically distinct loops
(trivial versus full solid angle) and must not be collapsed.  The numeric loop
transport is 2*pi periodic by construction and reports values in [0, 2*pi).
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._angles import TWO_PI, check_integer, check_theta, mod_two_pi
from .circuits import Orientation, spinor_amplitudes
from .errors import DegeneratePathError, DomainError
from .states import PureState, unit_rows

CLOSURE_TOLERANCE = 1e-12
MIN_OVERLAP = 1e-9
# A Loop stores 32 B per segment (spinor) or 64 B (entangled family).  Building
# and transporting a 10^6-segment loop peaks about 108 MiB (spinor) or 276 MiB
# (entangled) above the interpreter's resident size, temporaries included
# (numpy 2.4, x86-64 Linux).
MAX_SEGMENTS = 1_000_000


class PhaseConvention(Enum):
    RAW = "raw"
    MOD_2PI = "mod2pi"


@dataclass(frozen=True)
class GeometricPhase:
    value: float
    convention: PhaseConvention

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise DomainError("phase must be finite")
        if self.convention is PhaseConvention.MOD_2PI and not 0.0 <= self.value < TWO_PI:
            raise DomainError("mod-2pi phase must lie in [0, 2*pi)")

    @classmethod
    def raw(cls, value: float) -> "GeometricPhase":
        return cls(value, PhaseConvention.RAW)

    @classmethod
    def wrapped(cls, value: float) -> "GeometricPhase":
        return cls(mod_two_pi(value), PhaseConvention.MOD_2PI)

    def mod_2pi(self) -> float:
        """The phase reduced into [0, 2*pi)."""
        return mod_two_pi(self.value)


def winding_phase(mu: float, delta_chi: float) -> complex:
    """Unit phasor e^{i mu delta_chi} picked up by winding the chirality angle.

    A full 2*pi winding at mu = 1/2 returns -1: the half-integer case changes
    sign under one revolution.
    """
    if not (math.isfinite(mu) and math.isfinite(delta_chi)):
        raise DomainError("mu and delta_chi must be finite")
    return cmath.exp(1j * (mu * delta_chi))


def connection(orientation: Orientation, theta: float) -> float:
    """Berry connection of the spinor family at fixed theta: (1 -+ cos theta)/2."""
    check_theta(theta)
    c = math.cos(theta)
    if orientation is Orientation.UP:
        return 0.5 * (1.0 - c)
    return 0.5 * (1.0 + c)


def berry_phase_analytic(orientation: Orientation, theta: float) -> GeometricPhase:
    """Closed-loop geometric phase pi(1 -+ cos theta), raw convention.

    This is half the solid angle swept about the spinor's own quantization
    axis, so the UP and DOWN values always add to 2*pi.
    """
    check_theta(theta)
    c = math.cos(theta)
    if orientation is Orientation.UP:
        return GeometricPhase.raw(math.pi * (1.0 - c))
    return GeometricPhase.raw(math.pi * (1.0 + c))


def berry_phase_entangled(theta: float) -> GeometricPhase:
    """Geometric phase trapped by the two-spinor antisymmetric state: pi(1 + cos 2 theta)."""
    check_theta(theta)
    return GeometricPhase.raw(math.pi * (1.0 + math.cos(2.0 * theta)))


class Loop(Sequence):
    """Read-only sequence of states backed by one (n, d) complex amplitude array.

    Building a Loop holds every row to the package's normalization contract
    (``unit_rows``: finite, 2-norm within 1e-6 of 1, renormalized) and
    freezes the array.  Items are ``PureState`` views of the rows and slices
    are Loops; nothing is copied on access.
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
        return PureState._from_unit_row(self._amps[operator.index(index)])


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
