"""Seeded bit-level differentials of the scalar state algebra against numpy.

The small-state code runs in plain Python and must give the bits the array
code gave: the sweep grid those of ``np.linspace``, ``prepare_spinor`` those
of the numpy spinor rows it replaced.  ``unit_vector`` takes its
norm from ``math.fsum`` rather than numpy's BLAS dot, so it may differ from a
numpy reference by a rounding or two, but in no sign and in no verdict.  Its
fast path for 2 or 4 plain floats or complexes must give the checked path's
bits, and raise its errors.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from spinphase import DomainError, Orientation, PureState, SweepSpec, prepare_spinor
from spinphase.cli import _grid
from spinphase.phases import _spinor_gauge
from spinphase.states import NORM_TOLERANCE, _checked_unit_vector, unit_vector

MAX_ULP = 2


def bits(values) -> np.ndarray:
    """The raw 64-bit patterns of floats or complexes, signed zeros distinct."""
    return np.asarray(values).view(np.uint64)


def ordered(x: np.ndarray) -> np.ndarray:
    """Float bits mapped to integers that count ulps monotonically across 0."""
    i = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(i < 0, np.int64(-(2**63)) - i, i)


def random_grid(rng: random.Random) -> tuple[float, float, int]:
    kind = rng.randrange(4)
    if kind == 0:  # magnitudes over many decades, either sign
        a, b = (rng.choice((-1, 1)) * 10.0 ** rng.uniform(-12, 12) for _ in range(2))
    elif kind == 1:  # straddling zero
        a, b = -rng.uniform(0, 5), rng.uniform(0, 5)
    elif kind == 2:  # a narrow span far from zero
        a = rng.uniform(-1e3, 1e3)
        b = a + rng.uniform(1e-9, 1e-3) * max(1.0, abs(a))
    else:  # plain parameter ranges
        a, b = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
    if a == b:
        b = a + 1.0
    return min(a, b), max(a, b), rng.randrange(2, 300)


def test_grid_is_linspace_bit_for_bit():
    rng = random.Random(20260601)
    for _ in range(3000):
        start, stop, steps = random_grid(rng)
        got = _grid(SweepSpec("theta", start, stop, steps))
        want = np.linspace(start, stop, steps)
        assert np.array_equal(bits(got), bits(want)), (start, stop, steps)


@pytest.mark.parametrize("start, stop, steps", [
    (0.0, 5e-324, 3),  # the step underflows to 0
    (-5e-324, 5e-324, 7),
    (-1e-300, 1e-300, 1000),
    (-3e-05, 0.2, 3),
    (0.0, 1.0, 2),
    (-8.9e307, 8.9e307, 5),  # the widest span whose width is finite
    (0, 3, 2),  # int bounds come out as floats, as linspace gives them
    (-2, 2**60 + 1, 4),
])
def test_grid_edges_are_linspace(start, stop, steps):
    got = _grid(SweepSpec("theta", start, stop, steps))
    assert all(type(value) is float for value in got)
    assert np.array_equal(bits(got), bits(np.linspace(start, stop, steps)))


def reference_spinor_row(theta: float, phi: float, orientation: Orientation) -> np.ndarray:
    """The numpy row prepare_spinor replaced: (c, s e^{-i phi}) for UP and
    (c, s e^{+i phi}) for DOWN, each factor made in place as numpy made it."""
    c, s = _spinor_gauge(orientation, theta)
    phi = np.asarray(phi, dtype=np.float64)
    out = np.empty(phi.shape + (2,), dtype=np.complex128)
    out.fill(c)
    second = out[..., 1]  # a 0-d view: out= holds
    np.multiply(-1j if orientation is Orientation.UP else 1j, phi, out=second)
    np.exp(second, out=second)
    np.multiply(s, second, out=second)
    return out


def spinor_cases(rng: random.Random, n: int):
    special = (0.0, -0.0, math.pi / 2, math.pi, -math.pi, 2 * math.pi, 1e-300)
    for _ in range(n):
        theta = rng.choice((0.0, math.pi / 2, math.pi, rng.uniform(0, math.pi)))
        phi = rng.choice(special) if rng.random() < 0.2 else rng.uniform(-50, 50)
        chi = rng.choice(special) if rng.random() < 0.2 else rng.uniform(-50, 50)
        yield theta, phi, chi


@pytest.mark.parametrize("orientation", list(Orientation))
@pytest.mark.parametrize("overall", [False, True], ids=["bare", "overall-phase"])
def test_prepare_spinor_is_the_array_row(orientation, overall):
    """The scalar spinor against the array route it replaced, signed zeros included."""
    rng = random.Random(f"spinor:{orientation.value}:{overall}")
    for theta, phi, chi in spinor_cases(rng, 3000):
        row = reference_spinor_row(theta, phi, orientation).tolist()
        if overall:
            sign = 0.5j if orientation is Orientation.UP else -0.5j
            phase = complex(np.exp(sign * (phi - chi)))
            row = [complex(a) * phase for a in row]
        got = prepare_spinor(orientation, theta, phi, chi if overall else None)
        assert np.array_equal(bits(got.amplitudes), bits(PureState(row).amplitudes)), \
            (theta, phi, chi)


def reference_unit_vector(values) -> np.ndarray:
    """The numpy normalization the scalar one replaced."""
    arr = np.array(values, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise DomainError("must be finite")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > NORM_TOLERANCE:
        raise DomainError("not within")
    arr /= norm
    return arr


def random_vector(rng: random.Random, n: int) -> list[complex]:
    parts = [rng.gauss(0, 1) for _ in range(2 * n)]
    for k in rng.sample(range(2 * n), rng.randrange(2 * n)):
        parts[k] = rng.choice((0.0, -0.0))  # zeros, of both signs, in some parts
    if not any(parts):
        parts[0] = 1.0
    norm = math.sqrt(math.fsum(p * p for p in parts))
    # mostly inside the tolerance, some straddling its edge
    scale = rng.choice((rng.uniform(1 - 2e-6, 1 + 2e-6), 1.0,
                        1 + rng.choice((-1, 1)) * NORM_TOLERANCE * rng.uniform(0.999, 1.001)))
    return [complex(parts[2 * k], parts[2 * k + 1]) * (scale / norm) for k in range(n)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unit_vector_within_two_ulp_of_numpy(n):
    rng = random.Random(f"unit_vector:{n}")
    checked = 0
    for _ in range(4000):
        values = random_vector(rng, n)
        try:
            want = reference_unit_vector(values)
        except DomainError:
            with pytest.raises(DomainError, match="not within"):
                unit_vector(values, "state")
            continue
        got = np.array(unit_vector(values, "state"))
        checked += 1
        for part in ("real", "imag"):
            g, w = getattr(got, part), getattr(want, part)
            assert np.array_equal(np.signbit(g), np.signbit(w)), values
            assert np.array_equal(g == 0.0, w == 0.0), values
            assert np.abs(ordered(g) - ordered(w)).max() <= MAX_ULP, values
    assert checked > 1000


def test_unit_vector_rejects_like_numpy():
    for bad in ([math.nan, 0.0], [1.0, complex(0.0, math.inf)], [1.0 + 1.1e-6, 0.0], [0.0, 0.0]):
        with pytest.raises(DomainError):
            reference_unit_vector(bad)
        with pytest.raises(DomainError):
            unit_vector(bad, "state")
    for bad in ([[1.0, 0.0]], "10", [1.0, "x"], 1.0, {1: 0, 0: 0}, {0, 1}):
        with pytest.raises(DomainError, match="flat sequence of numbers"):
            unit_vector(bad, "state")
    # an int too large for a float is not finite: numpy raises OverflowError
    for bad in ([10**400, 0], [0.0, 1.0, 0.0, -(10**400)]):
        with pytest.raises(OverflowError):
            reference_unit_vector(bad)
        with pytest.raises(DomainError, match="^state must be finite$"):
            unit_vector(bad, "state")
        with pytest.raises(DomainError, match="^state must be finite$"):
            PureState(bad)


# ---------------------------------------------------------------------------
# unit_vector's fast path (2 or 4 plain floats or complexes) against its checked path


def outcome(fn, values):
    """fn's result as part bits (signed zeros distinct), or its error's type and text."""
    try:
        result = fn(values, "state")
    except Exception as exc:  # noqa: BLE001 - the type and text are the outcome
        return type(exc), str(exc)
    return [(z.real.hex(), z.imag.hex()) for z in result]


def assert_same_outcome(values):
    assert outcome(unit_vector, values) == outcome(_checked_unit_vector, values), values


SIGNED_ZEROS = [(sr * 0.0, si * 0.0) for sr in (1, -1) for si in (1, -1)]


@pytest.mark.parametrize("zero", SIGNED_ZEROS)
@pytest.mark.parametrize("unit", SIGNED_ZEROS)
@pytest.mark.parametrize("n", [2, 4])
def test_fast_unit_vector_keeps_signed_zeros(zero, unit, n):
    """All 16 pairs of a zero amplitude's and a unit amplitude's signed-zero parts."""
    z = complex(*zero)
    for u in (complex(math.copysign(1.0, unit[0]), unit[1]),
              complex(unit[0], math.copysign(1.0, unit[1])),
              complex(0.6 * math.copysign(1.0, unit[0]), unit[1])):
        for values in ([u, z], [z, u], [u, z, z, z][:n], [z, z, z, u][:n]):
            assert_same_outcome(values)
            assert_same_outcome(tuple(values))
    # float parts: a float's imaginary part is +0.0, as complex(x) gives
    for values in ([zero[0], 1.0], [-1.0, unit[0]], [zero[0], unit[1], -0.6, 0.8][:n]):
        assert_same_outcome(values)


@pytest.mark.parametrize("n", [2, 4])
def test_fast_unit_vector_matches_checked_path_on_seeded_vectors(n):
    rng = random.Random(f"fast unit_vector:{n}")
    accepted = 0
    for _ in range(20000):
        values = random_vector(rng, n)
        if rng.random() < 0.3:  # real values as floats, some parts as plain reals
            values = [z.real if rng.random() < 0.5 else z for z in values]
        if rng.random() < 0.5:
            values = tuple(values)
        assert_same_outcome(values)
        accepted += isinstance(outcome(unit_vector, values), list)
    assert accepted > 10000


@pytest.mark.parametrize("n", [2, 4])
def test_fast_unit_vector_decides_the_tolerance_edge_as_the_checked_path(n):
    rng = random.Random(f"fast unit_vector edge:{n}")
    verdicts = set()
    for _ in range(2000):
        values = random_vector(rng, n)
        norm = math.sqrt(math.fsum([z.real * z.real for z in values]
                                   + [z.imag * z.imag for z in values]))
        # norms at 1 +- 1e-6, a few parts in 10^10 to either side of the bound
        target = 1.0 + rng.choice((-1, 1)) * NORM_TOLERANCE * (1.0 + rng.uniform(-1e-10, 1e-10))
        values = [z * (target / norm) for z in values]
        assert_same_outcome(values)
        verdicts.add(isinstance(outcome(unit_vector, values), list))
    assert verdicts == {True, False}


@pytest.mark.parametrize("values", [
    [1e200, 0.0], [0.0, complex(0.0, -1e200)], [1.2e154, 1.2e154],  # squares overflow
    [complex(1e154, 1e154), 1e154, 0.0, 1.0], [1.3407807929942596e154, 0.0],
    [math.nan, 1.0], [1.0, complex(0.0, math.nan)], [math.inf, 0.0],
    [complex(-math.inf, 0.0), 0.0, 0.0, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0, 5e-324],
    [1.0, 0.0, 0.0], [1.0], [], [1.0, 0.0, 0.0, 0.0, 0.0],
    [np.float64(0.6), 0.8], [0.6, np.complex128(0.8j)], [np.float32(1.0), 0.0],
    [1, 0], [0, 1, 0, 0], [True, False], [1.0, False], ["1", "0"], ["1.0", 0.0], ["a", 1.0],
    "10", np.array([0.6, 0.8]), {1.0: 0, 0.0: 1}, [[1.0, 0.0]],
], ids=repr)
def test_fast_unit_vector_leaves_every_other_input_to_the_checked_path(values):
    assert_same_outcome(values)
    if isinstance(values, list):
        assert_same_outcome(tuple(values))


def test_fast_unit_vector_leaves_iterators_to_the_checked_path():
    assert (outcome(unit_vector, iter([0.6, 0.8j]))
            == outcome(_checked_unit_vector, iter([0.6, 0.8j])))


def test_fast_unit_vector_takes_plain_floats_and_complexes(monkeypatch):
    def unexpected(values, what):
        raise AssertionError(f"checked path taken for {values!r}")

    monkeypatch.setattr("spinphase.states._checked_unit_vector", unexpected)
    for values in ([0.6, 0.8j], (1.0, 0.0), [0.5, -0.5, 0.5j, complex(0.5, -0.0)]):
        unit_vector(values, "state")
