"""Berry connections and closed-loop phases of quantized spinors, in closed form,
their first-order shifts under polar-angle noise, and the flux line's monopole
strength: the phase its winding picks up and its flow with length scale.

The spinor's ``Orientation`` lives here too, so a closed-form call loads
neither the circuit parser nor numpy, and so does ``_sign``, +1 for UP and -1
for DOWN: the one place in the package that tells the two apart.
Closed-form phases are plain floats, reported raw: 0 and 2*pi label physically
distinct loops (trivial versus full solid angle) and must not be collapsed.  A
transport's phase is reduced into [0, 2*pi): a plain float from
``spinor_holonomy``, a ``GeometricPhase`` from ``berry.holonomy_numeric`` only.

The discrete transport that checks them has two routes.  ``berry`` builds a
loop as an array, for the library and for array speed; ``spinor_holonomy``
here streams the same spinor loop one row at a time in plain Python floats,
for the ``holonomy`` command, so that command loads no numpy.  The segment
bounds of both routes live here, and so does the spinor gauge (``_spinor_gauge``,
cos and sin of theta/2) that they and ``circuits.prepare_spinor`` build on.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

from ._angles import TWO_PI, Frozen, check_integer, check_real, check_theta, mod_two_pi
from .errors import DegeneratePathError, DomainError

CLOSURE_TOLERANCE = 1e-12
MIN_OVERLAP = 1e-9
# A berry.Loop stores 32 B per segment (spinor) or 64 B (entangled family).
# A spinor loop is built when it is made, from berry's cached winding grid:
# 16 B per segment, 16 MB here, for one segment count at a time.  At 10^6
# segments, building a spinor loop peaks about 48 MiB above the interpreter's
# resident size, the grid included, and the entangled family about 153 MiB;
# transporting either adds nothing (numpy 2.4, 2-vCPU Xeon, x86-64 Linux,
# ru_maxrss in a fresh process: tools/large_loops.py).  spinor_holonomy holds
# one row at any segment count.
MAX_SEGMENTS = 1_000_000


class Orientation(Enum):
    UP = "up"
    DOWN = "down"


class GeometricPhase(Frozen):
    """A transport's phase in [0, 2*pi), built through ``wrapped``: what
    ``berry.holonomy_numeric`` returns, and nothing else.  Every other phase is
    a plain float.  The class stays while the benchmark reads its value.
    """

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        object.__setattr__(self, "value", value)
        check_real("phase", value)
        if not 0.0 <= value < TWO_PI:
            raise DomainError("phase must be in [0, 2*pi)")

    @classmethod
    def wrapped(cls, value: float) -> "GeometricPhase":
        """The phase of value reduced into [0, 2*pi)."""
        return cls(mod_two_pi(value))


def _not_an_orientation(orientation: object) -> DomainError:
    return DomainError(f"orientation must be Orientation.UP or Orientation.DOWN, "
                       f"not {orientation!r}")


def _sign(orientation: Orientation) -> float:
    """+1.0 for UP, -1.0 for DOWN: the one place the two orientations are told
    apart, so every route rejects an orientation that is neither here.
    Multiplying by it negates exactly, signed zeros included."""
    if orientation is Orientation.UP:
        return 1.0
    if orientation is Orientation.DOWN:
        return -1.0
    raise _not_an_orientation(orientation)


def _spinor_gauge(orientation: Orientation, theta: float) -> tuple[float, float]:
    """The spinor gauge (c, s): (cos(theta/2), sin(theta/2)) for UP, swapped for
    DOWN.  Every route builds its spinor rows (c, s e^{-+i phi}) from these."""
    half = theta / 2.0
    c, s = math.cos(half), math.sin(half)
    return (c, s) if _sign(orientation) > 0.0 else (s, c)


def winding_phase(mu: float, delta_chi: float) -> complex:
    """Unit phasor e^{i mu delta_chi} picked up by winding the chirality angle.

    A full 2*pi winding at mu = 1/2 returns -1: the half-integer case changes
    sign under one revolution.
    """
    check_real("mu and delta_chi", mu, delta_chi)
    angle = mu * delta_chi
    if not math.isfinite(angle):  # finite inputs whose product overflows
        raise DomainError("winding angle mu*delta_chi is not finite")
    return cmath.exp(1j * angle)


def monopole_strength_unclamped(a: float, c: float, separation: float) -> float:
    """The flow mu(L) = -a ln(L) + c itself, at decay rate a >= 0 and length scale
    L = separation > 0; negative past its zero crossing.  Finite inputs whose
    flow overflows to -inf keep that value, which clamps to 0; +inf is an error.
    """
    check_real("a", a)
    check_real("c", c)
    check_real("separation", separation)
    if a < 0.0:
        raise DomainError("decay rate a must be nonnegative")
    if separation <= 0.0:
        raise DomainError("separation must be positive")
    mu = -a * math.log(separation) + c
    if mu == math.inf:  # a large a with a separation far below 1
        raise DomainError("flow -a*ln(separation) + c overflows")
    return mu


def monopole_strength_rg(a: float, c: float, separation: float) -> float:
    """Monopole strength mu(L) = -a ln(L) + c, clamped at zero from below.

    The linear-in-ln(L) flow crosses zero at large separation; the physical
    strength is reported as max(0, .) since mu only tends to zero there.
    """
    return max(0.0, monopole_strength_unclamped(a, c, separation))


def _solid_angle_factor(orientation: Orientation, theta: float) -> float:
    """1 - cos theta for UP, 1 + cos theta for DOWN: the solid angle the loop
    sweeps about the spinor's own axis, over 2*pi.  The connection, the loop
    phase and its noise all scale this one factor."""
    check_theta(theta)
    return 1.0 - _sign(orientation) * math.cos(theta)


def connection(orientation: Orientation, theta: float) -> float:
    """Berry connection of the spinor family at fixed theta: (1 -+ cos theta)/2."""
    return 0.5 * _solid_angle_factor(orientation, theta)


def berry_phase_analytic(orientation: Orientation, theta: float) -> float:
    """Closed-loop geometric phase pi(1 -+ cos theta), raw.

    This is half the solid angle swept about the spinor's own quantization
    axis, so the UP and DOWN values always add to 2*pi.
    """
    return math.pi * _solid_angle_factor(orientation, theta)


def berry_phase_entangled(theta: float) -> float:
    """Geometric phase trapped by the two-spinor antisymmetric state: pi(1 + cos 2 theta)."""
    check_theta(theta)
    return math.pi * (1.0 + math.cos(2.0 * theta))


MAX_SHIFT = 0.5


def _single_shift(theta: float, delta_theta: float) -> float:
    """pi sin(theta) delta_theta, with delta_theta checked before theta."""
    check_real("delta_theta", delta_theta)
    if abs(delta_theta) > MAX_SHIFT:
        raise DomainError(f"|delta_theta| above {MAX_SHIFT} leaves the small-perturbation regime")
    check_theta(theta)
    return math.pi * math.sin(theta) * delta_theta


def noisy_phase(orientation: Orientation, theta: float, delta_theta: float) -> tuple[float, float]:
    """Noise-shifted loop phase and its shift, signed + for UP and - for DOWN.

    UP:   pi (1 - cos theta + sin theta delta_theta), shift +pi sin theta delta_theta
    DOWN: pi (1 + cos theta - sin theta delta_theta), shift -pi sin theta delta_theta
    """
    shift = _single_shift(theta, delta_theta)
    factor = _solid_angle_factor(orientation, theta)
    sign = _sign(orientation)
    tilt = sign * (math.sin(theta) * delta_theta)
    # 2 pi times half the sum, not pi times it: halving rounds a subnormal sum
    return TWO_PI * (0.5 * (factor + tilt)), sign * shift


def entangled_noise_shift(theta: float, delta_theta: float) -> float:
    """Relative-phase shift of the antisymmetric two-spinor state: exactly twice
    the single-orientation shift, 2 pi sin(theta) delta_theta."""
    return 2.0 * _single_shift(theta, delta_theta)


def post_echo_noise_shift(theta: float, delta_theta: float) -> float:
    """Shift surviving an echo, where a single residual term carries the noise:
    pi sin(theta) delta_theta.  The halving relative to the entangled shift is
    a qualitative robustness statement, not a derived bound."""
    return _single_shift(theta, delta_theta)


def _check_segments(segments: int) -> None:
    check_integer(segments, "segments")
    if segments < 2:
        raise DomainError("a loop needs at least 2 segments")
    if segments > MAX_SEGMENTS:
        raise DomainError(f"a loop takes at most {MAX_SEGMENTS} segments")


def _open_path() -> DomainError:
    return DomainError("open path: first and last states differ beyond 1e-12")


def _nearly_orthogonal() -> DegeneratePathError:
    return DegeneratePathError("consecutive loop states are nearly orthogonal")


def spinor_holonomy(orientation: Orientation, theta: float, segments: int) -> float:
    """The transport of ``berry.spinor_loop(orientation, theta, segments)``, in [0, 2*pi).

    The same loop, streamed in plain Python: only the previous row and the
    exact running sum of the overlap phases (``math.fsum``) are held, so memory
    does not grow with the segment count and no value depends on the numpy
    build.  It agrees with ``berry.holonomy_numeric`` to a few ulp of 2*pi.
    """
    check_theta(theta)
    _check_segments(segments)
    c, s = _spinor_gauge(orientation, theta)
    return mod_two_pi(-math.fsum(_overlap_phases(c, s, segments)))


def _overlap_phases(c: float, s: float, segments: int):
    """arg <psi_{k-1}|psi_k> for k = 1..segments, over the rows (c, s e^{-i x_k}).

    Row k is ``berry.spinor_loop``'s row k, x_k = k/segments * 2*pi: UP winds
    e^{-i phi} over phi = +x_k, DOWN e^{+i phi} over phi = -x_k.  Each row
    is held to the ``states.unit_vector`` contract (an fsum norm within
    ``NORM_TOLERANCE`` of 1, its message, then renormalized), and the closure
    and overlap checks are ``berry.holonomy_numeric``'s, with its messages.
    The complex arithmetic is written out on real and imaginary parts, with
    the bits of ``cmath.exp``, ``cmath.phase`` and ``abs``: the row loop is the
    whole cost of a long loop, and Python ``complex`` objects made it about
    1.5 times slower.
    """
    from .states import NORM_TOLERANCE, _off_unit  # at call time: a closed form needs no states

    cos, sin, fsum, sqrt, atan2 = math.cos, math.sin, math.fsum, math.sqrt, math.atan2
    cc = c * c
    for k in range(segments + 1):
        x = -(k / segments * TWO_PI)
        w_re, w_im = s * cos(x), s * sin(x)  # s e^{-i x}, before renormalizing
        norm = sqrt(fsum((cc, w_re * w_re, w_im * w_im)))
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise _off_unit(norm, "state")
        inv = 1.0 / norm
        b0, b_re, b_im = c * inv, w_re * inv, w_im * inv
        if k:  # the overlap conj(a0) b0 + conj(a1) b1, with a0 and b0 real
            o_re = a0 * b0 + (a_re * b_re + a_im * b_im)
            o_im = a_re * b_im - a_im * b_re
            if o_re < MIN_OVERLAP and math.hypot(o_re, o_im) < MIN_OVERLAP:  # |z| >= re z
                raise _nearly_orthogonal()
            yield atan2(o_im, o_re)
        else:
            first = b0, b_re, b_im
        a0, a_re, a_im = b0, b_re, b_im
    if max(abs(first[0] - a0), math.hypot(first[1] - a_re, first[2] - a_im)) > CLOSURE_TOLERANCE:
        raise _open_path()
