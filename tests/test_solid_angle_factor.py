"""The solid-angle factor 1 -+ cos theta is shared by the connection, the loop
phase and its noise; the loop-angle concurrence is the UP connection.  Each
must keep every bit of the formula it had when it made the UP/DOWN choice itself.

The reference formulas below are those per-function forms, written out.  The
noisy phase is 2 pi times half the tilted factor: where the tilted factor is
subnormal, halving it rounds, so neither pi times that factor nor 2 pi times
(connection +- tilt/2) has its bits.
"""

from __future__ import annotations

import math
import random
import struct
import sys

from spinphase import (
    Orientation,
    berry_phase_analytic,
    connection,
    noisy_phase,
)

TWO_PI = 2.0 * math.pi
TRIPLES = 100_000


def reference(orientation: Orientation, theta: float, delta_theta: float) -> tuple:
    """connection, analytic phase, noisy phase, its shift and the concurrence,
    each by its own per-function formula."""
    c = math.cos(theta)
    tilt = math.sin(theta) * delta_theta
    shift = math.pi * math.sin(theta) * delta_theta
    if orientation is Orientation.UP:
        conn, gamma = 0.5 * (1.0 - c), math.pi * (1.0 - c)
        noisy = TWO_PI * (0.5 * (1.0 - math.cos(theta) + tilt))
    else:
        conn, gamma = 0.5 * (1.0 + c), math.pi * (1.0 + c)
        noisy, shift = TWO_PI * (0.5 * (1.0 + math.cos(theta) - tilt)), -shift
    return conn, gamma, noisy, shift, 0.5 * (1.0 - math.cos(theta))


def computed(orientation: Orientation, theta: float, delta_theta: float) -> tuple:
    gamma, shift = noisy_phase(orientation, theta, delta_theta)
    return (connection(orientation, theta), berry_phase_analytic(orientation, theta),
            gamma, shift, connection(Orientation.UP, theta))


LEAST_NORMAL = sys.float_info.min  # nonzero floats below it are subnormal


def polar_angles(rng: random.Random):
    """Edges (signed zero, the least subnormal, pi and the float below it) and
    draws from every decade down to the subnormals."""
    yield from (0.0, -0.0, 5e-324, LEAST_NORMAL, 1e-8, math.pi / 2, math.pi,
                math.nextafter(math.pi, 0.0), math.pi - 1e-12)
    while True:
        kind = rng.randrange(4)
        if kind == 0:
            yield rng.uniform(0.0, math.pi)
        elif kind == 1:  # log-uniform from the subnormals to 1
            yield 10.0 ** rng.uniform(-323.0, 0.0)
        elif kind == 2:  # a random subnormal
            yield rng.randrange(1, 2**52) * 5e-324
        else:  # just below pi, where 1 + cos theta cancels
            yield math.pi - 10.0 ** rng.uniform(-16.0, -1.0)


def shifts(rng: random.Random):
    """delta_theta in [-0.5, 0.5]: signed zeros and subnormals, then draws."""
    yield from (0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5)
    while True:
        sign = rng.choice((-1.0, 1.0))
        kind = rng.randrange(3)
        if kind == 0:
            yield sign * rng.uniform(0.0, 0.5)
        elif kind == 1:
            yield sign * 0.5 * 10.0 ** rng.uniform(-323.0, 0.0)
        else:
            yield sign * rng.randrange(1, 2**52) * 5e-324


def test_shared_factor_keeps_every_bit():
    rng = random.Random(20261019)
    thetas, deltas = polar_angles(rng), shifts(rng)
    mismatches, subnormal_tilts = [], 0
    for k in range(TRIPLES):
        orientation = Orientation.UP if k % 2 else Orientation.DOWN
        theta, delta_theta = next(thetas), next(deltas)
        got = computed(orientation, theta, delta_theta)
        want = reference(orientation, theta, delta_theta)
        if struct.pack("5d", *got) != struct.pack("5d", *want):  # the bits, signed zeros too
            mismatches.append((orientation, theta.hex(), delta_theta.hex(),
                               [x.hex() for x in got], [x.hex() for x in want]))
        tilt = abs(math.sin(theta) * delta_theta)
        subnormal_tilts += 0.0 < tilt < LEAST_NORMAL
    assert mismatches[:5] == [] and not mismatches
    # the draws reach the inputs where halving a tilted factor rounds
    assert subnormal_tilts > 1000
