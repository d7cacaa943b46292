"""The package's value types keep the behaviour of the frozen dataclasses they
replaced: constructors and defaults, checks, equality, hash, repr, immutability,
and copies and pickles that equal the original."""

import copy
import math
import pickle
import random

import pytest

from spinphase import (
    BellCoefficients,
    BipartiteCoefficients,
    DomainError,
    GeometricPhase,
    NoiseSpec,
    NoiseTarget,
    PhaseConvention,
    PhaseLedger,
    PulseKind,
    PulseSpec,
    RabiParams,
    RgFlowParams,
    RunRecord,
    SpinorParams,
    SweepSpec,
)

# (value, its fields in order, its repr)
VALUES = [
    (GeometricPhase(1.5, PhaseConvention.RAW), dict(value=1.5, convention=PhaseConvention.RAW),
     "GeometricPhase(value=1.5, convention=<PhaseConvention.RAW: 'raw'>)"),
    (SpinorParams(1.0, 0.5, 0.2), dict(theta=1.0, phi=0.5, chi=0.2, mu=0.5),
     "SpinorParams(theta=1.0, phi=0.5, chi=0.2, mu=0.5)"),
    (RabiParams(0.0, 1.0, 2.0), dict(omega0=0.0, omega=1.0, duration=2.0),
     "RabiParams(omega0=0.0, omega=1.0, duration=2.0)"),
    (PulseSpec.custom(RabiParams(0.0, 1.0, 2.0)),
     dict(kind=PulseKind.CUSTOM, params=RabiParams(0.0, 1.0, 2.0)),
     "PulseSpec(kind=<PulseKind.CUSTOM: 'custom'>, "
     "params=RabiParams(omega0=0.0, omega=1.0, duration=2.0))"),
    (PhaseLedger.of(-1.0, 0.5), dict(geometric=-1.0, dynamical=0.5, total=-0.5),
     "PhaseLedger(geometric=-1.0, dynamical=0.5, total=-0.5)"),
    (BellCoefficients(0.6, 0.8j), dict(alpha=(0.6 + 0j), beta=0.8j),
     "BellCoefficients(alpha=(0.6+0j), beta=0.8j)"),
    (BipartiteCoefficients(0.0, 0.6, -0.8, 0.0),
     dict(a_dd=0j, a_du=(0.6 + 0j), a_ud=(-0.8 + 0j), a_uu=0j),
     "BipartiteCoefficients(a_dd=0j, a_du=(0.6+0j), a_ud=(-0.8+0j), a_uu=0j)"),
    (RgFlowParams(0.3, 1.0, 2.0), dict(a=0.3, c=1.0, separation=2.0),
     "RgFlowParams(a=0.3, c=1.0, separation=2.0)"),
    (NoiseSpec(0.02, NoiseTarget.UP), dict(delta_theta=0.02, applies_to=NoiseTarget.UP),
     "NoiseSpec(delta_theta=0.02, applies_to=<NoiseTarget.UP: 'up'>)"),
    (SweepSpec("theta", 0.0, 1.0, 3), dict(parameter="theta", start=0.0, stop=1.0, steps=3),
     "SweepSpec(parameter='theta', start=0.0, stop=1.0, steps=3)"),
    (RunRecord("phase", {"theta": 1.0}, {"gamma": 2.0}),
     dict(command="phase", inputs={"theta": 1.0}, outputs={"gamma": 2.0}, metadata={}),
     "RunRecord(command='phase', inputs={'theta': 1.0}, outputs={'gamma': 2.0}, metadata={})"),
]
IDS = [type(value).__name__ for value, _, _ in VALUES]


def fields_of(value, fields: dict) -> dict:
    return {name: getattr(value, name) for name in fields}


@pytest.mark.parametrize(("value", "fields", "text"), VALUES, ids=IDS)
def test_fields_repr_and_equality(value, fields, text):
    cls = type(value)
    assert fields_of(value, fields) == fields
    assert repr(value) == text
    twin = cls(**fields)
    assert twin == cls(*fields.values())
    assert twin == value and not twin != value
    assert value != fields  # another type compares unequal, as a dataclass does
    if cls is not RunRecord:  # a record holds dicts, so it is unhashable
        assert hash(twin) == hash(value) == hash(tuple(fields.values()))


@pytest.mark.parametrize(("value", "fields", "text"), VALUES, ids=IDS)
def test_fields_cannot_change(value, fields, text):
    name, field = next(iter(fields.items()))
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(value, name, field)
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1.0


@pytest.mark.parametrize(("value", "fields", "text"), VALUES, ids=IDS)
def test_fields_are_slots(value, fields, text):
    assert type(value).__slots__ == tuple(fields)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize(("value", "fields", "text"), VALUES, ids=IDS)
def test_copies_and_pickles_equal_the_original(value, fields, text):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert fields_of(twin, fields) == fields


def test_copies_keep_the_bits_of_renormalized_weights():
    # a copy is not built again: renormalizing the weights a second time would
    # move the last bit of some of them
    rng = random.Random(1)
    for _ in range(200):
        a, b = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))
        scale = (1 + 3e-7) / math.hypot(abs(a), abs(b))
        bell = BellCoefficients(a * scale, b * scale)
        for twin in (copy.copy(bell), pickle.loads(pickle.dumps(bell))):
            assert (twin.alpha, twin.beta) == (bell.alpha, bell.beta)


def test_unhashable_record():
    with pytest.raises(TypeError, match="unhashable"):
        hash(RunRecord("phase", {}, {"gamma": 1.0}))


def test_keywords_and_defaults():
    assert SpinorParams(theta=1.0, phi=0.5, chi=0.2, mu=1.0).mu == 1.0
    assert RunRecord(command="x", inputs={}, outputs={"y": 1.0}).metadata == {}
    # each record gets its own metadata dict
    assert RunRecord("x", {}, {"y": 1.0}).metadata is not RunRecord("x", {}, {"y": 1.0}).metadata
    with pytest.raises(TypeError):
        RabiParams(0.0, 1.0)


def test_checks_still_run():
    with pytest.raises(DomainError, match="theta"):
        SpinorParams(4.0, 0.0, 0.0)
    with pytest.raises(DomainError, match="duration"):
        RabiParams(0.0, 1.0, -1.0)
    with pytest.raises(DomainError, match="coefficients"):
        BellCoefficients(0.9, 0.9)
    with pytest.raises(DomainError, match="mod-2pi"):
        GeometricPhase(7.0, PhaseConvention.MOD_2PI)
    # weights are held at unit norm
    bell = BellCoefficients(0.6 * (1 + 5e-7), 0.8 * (1 + 5e-7))
    assert abs(abs(bell.alpha) ** 2 + abs(bell.beta) ** 2 - 1.0) < 1e-15
