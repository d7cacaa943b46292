"""The package's value types keep the behaviour of the frozen dataclasses they
replaced: constructors and defaults, checks, equality, hash, repr, immutability,
and copies and pickles that equal the original."""

import copy
import pickle
import re
from decimal import Decimal
from enum import Enum

import numpy as np
import pytest

from spinphase import (
    DomainError,
    GeometricPhase,
    Orientation,
    PhaseLedger,
    RunRecord,
    SweepSpec,
    berry_phase_analytic,
    connection,
    entanglement_entropy,
    evolve_coefficients,
    ket,
    noisy_phase,
    parse_circuit,
    prepare_spinor,
    spinor_loop,
    winding_phase,
)
from spinphase._angles import mod_two_pi
from spinphase.phases import spinor_holonomy

# (value, its fields in order, its repr)
VALUES = [
    (GeometricPhase(1.5), dict(value=1.5), "GeometricPhase(value=1.5)"),
    (PhaseLedger(-1.0, 0.5), dict(geometric=-1.0, dynamical=0.5),
     "PhaseLedger(geometric=-1.0, dynamical=0.5)"),
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


def test_unhashable_record():
    with pytest.raises(TypeError, match="unhashable"):
        hash(RunRecord("phase", {}, {"gamma": 1.0}))


def test_keywords_and_defaults():
    assert RunRecord(command="x", inputs={}, outputs={"y": 1.0}).metadata == {}
    # each record gets its own metadata dict
    assert RunRecord("x", {}, {"y": 1.0}).metadata is not RunRecord("x", {}, {"y": 1.0}).metadata
    with pytest.raises(TypeError):
        PhaseLedger(1.0)


def test_checks_still_run():
    with pytest.raises(DomainError, match="total"):
        PhaseLedger(1e308, 1e308)


# a value that is no real number is a DomainError, as a non-finite one is, not
# the TypeError of math.isfinite
@pytest.mark.parametrize(("call", "message"), [
    (lambda: evolve_coefficients(1.0, 0.0, "1", 1.0), "omega must be real"),
    (lambda: SweepSpec("theta", "0", 1.0, 3), "start and stop must be real"),
    (lambda: noisy_phase(Orientation.UP, 1.0, "0.1"), "delta_theta must be real"),
    (lambda: berry_phase_analytic(Orientation.UP, None), "theta must be real"),
    (lambda: GeometricPhase("1"), "phase must be real"),
    (lambda: winding_phase(0.5, 1j), "mu and delta_chi must be real"),
    (lambda: entanglement_entropy("0.5"), "concurrence magnitude must be real"),
    (lambda: ket(5), "basis label must be 1 or 2 bits, got 5"),
    # a Decimal is no numbers.Real, as for a circuit binding
    (lambda: noisy_phase(Orientation.UP, 1.0, Decimal("0.1")), "delta_theta must be real"),
    (lambda: berry_phase_analytic(Orientation.UP, Decimal("1")), "theta must be real"),
    # an int too large for a float is not finite, not an OverflowError
    (lambda: berry_phase_analytic(Orientation.UP, 10**400), "theta must be finite"),
    (lambda: SweepSpec("theta", 0, 10**400, 3), "start and stop must be finite"),
    (lambda: evolve_coefficients(1.0, 0.0, 10**400, 1.0), "omega must be finite"),
    (lambda: mod_two_pi(-10**400), "angle must be finite"),
    (lambda: spinor_loop(Orientation.UP, 10**400, 8), "theta must be finite"),
    (lambda: prepare_spinor(Orientation.UP, 1.0, 10**400), "phi must be finite"),
    # inputs of the wrong type: a DomainError, not the TypeError of len or hash
    (lambda: parse_circuit(None), "circuit text must be str"),
    (lambda: parse_circuit(b"H"), "circuit text must be str"),
    (lambda: SweepSpec([], 0.0, 1.0, 2),
     r"parameter must be one of \['delta_theta', 'omega_t', 'separation', 'theta'\]"),
], ids=["evolve_coefficients", "SweepSpec", "noisy_phase", "berry_phase_analytic",
        "GeometricPhase", "winding_phase", "entanglement_entropy", "ket",
        "noisy_phase-Decimal", "berry_phase_analytic-Decimal", "berry_phase_analytic-huge-int",
        "SweepSpec-huge-int", "evolve_coefficients-huge-int", "mod_two_pi-huge-int",
        "spinor_loop-huge-int", "prepare_spinor-huge-int", "parse_circuit-None",
        "parse_circuit-bytes", "SweepSpec-list"])
def test_non_real_inputs_rejected(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


# a bool is no real number, Python's or numpy's, as for a circuit binding
@pytest.mark.parametrize("flag", [True, False, np.bool_(True), np.bool_(False)],
                         ids=["True", "False", "numpy-True", "numpy-False"])
@pytest.mark.parametrize(("call", "message"), [
    (lambda b: evolve_coefficients(1.0, 0.0, b, 1.0), "omega must be real"),
    (lambda b: berry_phase_analytic(Orientation.UP, b), "theta must be real"),
    (lambda b: spinor_loop(Orientation.UP, b, 8), "theta must be real"),
    (lambda b: SweepSpec("theta", b, 1.0, 5), "start and stop must be real"),
], ids=["evolve_coefficients", "berry_phase_analytic", "spinor_loop", "SweepSpec"])
def test_bools_rejected(call, message, flag):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call(flag)


# every route that takes an orientation goes through phases._spinor_gauge or
# phases._solid_angle_factor; a value that is no member is an error there, not
# the DOWN branch
@pytest.mark.parametrize("orientation", ["up", "down", None, 1, Orientation.UP.value,
                                         Enum("Spin", {"UP": "up"}).UP],
                         ids=["up", "down", "None", "int", "member-value", "other-enum"])
@pytest.mark.parametrize("call", [
    lambda o: berry_phase_analytic(o, 1.0),
    lambda o: connection(o, 1.0),
    lambda o: noisy_phase(o, 1.0, 0.1),
    lambda o: prepare_spinor(o, 1.0, 0.5),
    lambda o: prepare_spinor(o, 1.0, 0.5, chi=0.2),
    lambda o: spinor_loop(o, 1.0, 8),
    lambda o: spinor_holonomy(o, 1.0, 8),
], ids=["berry_phase_analytic", "connection", "noisy_phase", "prepare_spinor",
        "prepare_spinor-chi", "spinor_loop", "spinor_holonomy"])
def test_orientation_must_be_a_member(call, orientation):
    message = ("orientation must be Orientation.UP or Orientation.DOWN, "
               f"not {orientation!r}")
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(orientation)
    call(Orientation.UP)
    call(Orientation.DOWN)
