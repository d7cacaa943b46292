"""Circuit language: tokenizing, parsing, folding, formatting, execution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphase import (
    Circuit,
    CircuitSyntaxError,
    DomainError,
    Gate,
    Orientation,
    PureState,
    SpinorParams,
    UnboundSymbolError,
    UnknownSymbolError,
    apply_gate,
    equal_up_to_global_phase,
    format_circuit,
    general_state_circuit,
    ket,
    parse_circuit,
    prepare_spinor,
    run_circuit,
    spinor_state_circuit,
)
from spinphase.circuits import _angle

FOUR_PI = 4.0 * math.pi


class TestParsing:
    def test_single_hadamard(self):
        c = parse_circuit("H")
        assert c == Circuit((Gate("H", None),), frozenset())
        assert c.gates[0].kind == "H"

    def test_gate_sequence_and_whitespace(self):
        c = parse_circuit("  H\n\tP( pi )  H ")
        assert [g.kind for g in c.gates] == ["H", "P", "H"]

    def test_circuit_is_plain_tuples(self):
        c = parse_circuit("H P(-theta + 2*phi)")
        assert c == ((("H", None), ("P", ("+", ("-", "theta"), ("*", 2.0, "phi")))),
                     frozenset({"theta", "phi"}))
        assert type(c.gates[1].argument[1]) is tuple

    @pytest.mark.parametrize("text, symbols", [
        ("H", set()),
        ("P(pi/2) H", set()),
        ("P(-theta*2) P(pi)", {"theta"}),
        ("P(phi) H P(theta - phi)", {"theta", "phi"}),
        ("P(0*theta)", {"theta"}),  # a symbol times a constant does not fold away
    ])
    def test_free_symbols_collected_by_parser(self, text, symbols):
        assert parse_circuit(text).free_symbols == frozenset(symbols)

    def test_comments_run_to_end_of_line(self):
        c = parse_circuit("H # prepare superposition\nP(pi) # flip sign\n# trailing\nH")
        assert len(c.gates) == 3

    def test_constant_folding(self):
        c = parse_circuit("P(1+2*3)")
        assert c.gates[0].argument == 7.0
        c = parse_circuit("P(pi/2)")
        assert c.gates[0].argument == math.pi / 2
        c = parse_circuit("P(-pi)")
        assert c.gates[0].argument == -math.pi
        c = parse_circuit("P((1+1)/4)")
        assert c.gates[0].argument == 0.5
        assert type(c.gates[0].argument) is float

    def test_symbols_stay_free(self):
        c = parse_circuit("P(2*theta) P(pi/2 + phi)")
        assert c.free_symbols == {"theta", "phi"}
        assert c.gates[0].argument == ("*", 2.0, "theta")

    def test_precedence(self):
        c = parse_circuit("P(theta + 2*phi)")
        arg = c.gates[0].argument
        assert arg == ("+", "theta", ("*", 2.0, "phi"))

    def test_parenthesized_grouping(self):
        c = parse_circuit("P((theta + phi)/2)")
        arg = c.gates[0].argument
        assert arg == ("/", ("+", "theta", "phi"), 2.0)

    def test_unary_minus_on_symbol(self):
        c = parse_circuit("P(-theta)")
        assert c.gates[0].argument == ("-", "theta")

    def test_empty_input_rejected(self):
        with pytest.raises(CircuitSyntaxError, match="empty circuit"):
            parse_circuit("")
        with pytest.raises(CircuitSyntaxError, match="empty circuit"):
            parse_circuit("  # only a comment\n")

    def test_constant_division_by_zero_is_a_parse_error(self):
        with pytest.raises(CircuitSyntaxError, match="division by zero"):
            parse_circuit("P(1/0)")
        with pytest.raises(CircuitSyntaxError, match="division by zero"):
            parse_circuit("P(pi/(2-2))")

    def test_symbolic_division_by_zero_surfaces_at_run_time(self):
        c = parse_circuit("P(theta/0)")
        with pytest.raises(DomainError, match="division by zero"):
            run_circuit(c, {"theta": 1.0}, ket("0"))

    def test_unknown_symbol_with_position(self):
        with pytest.raises(UnknownSymbolError) as err:
            parse_circuit("H\nP(tau)")
        assert err.value.line == 2
        assert err.value.column == 3
        assert "tau" in str(err.value)

    def test_error_positions_track_lines_and_columns(self):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit("H\n  Q")
        assert err.value.line == 2
        assert err.value.column == 3
        assert "line 2" in str(err.value)

    def test_unexpected_character(self):
        with pytest.raises(CircuitSyntaxError, match="unexpected character"):
            parse_circuit("H @")

    def test_unterminated_phase(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("P(1")
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("P()")

    def test_bad_number(self):
        with pytest.raises(CircuitSyntaxError, match="bad number"):
            parse_circuit("P(1.2.3)")

    def test_syntax_errors_are_domain_errors(self):
        with pytest.raises(DomainError):
            parse_circuit("Q")


class TestFormatting:
    CASES = [
        "H",
        "P(pi)",
        "H P(2*theta) H P(pi/2 + phi)",
        "H P(theta) H P(pi/2 - phi)",
        "P(-theta)",
        "P(theta - (phi - 1.0))",
        "P(theta/(phi/2.0))",
        "P((theta + phi)*2.0)",
        "P(2.0*theta + 1e-09)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip_is_identity(self, text):
        c = parse_circuit(text)
        assert parse_circuit(format_circuit(c)) == c

    def test_format_shape(self):
        c = parse_circuit("H P( pi / 2+phi )")
        assert format_circuit(c) == f"H P({repr(math.pi / 2)} + phi)"

    # fixpoint: once parsed, format/parse cycles are stable even though the
    # first parse may fold constants out of a hand-built tree
    @given(st.recursive(
        st.one_of(
            st.floats(-100.0, 100.0, allow_nan=False),
            st.sampled_from(["theta", "phi"]),
        ),
        lambda kids: st.one_of(
            kids.map(lambda operand: ("-", operand)),
            st.tuples(st.sampled_from(["+", "-", "*"]), kids, kids),
        ),
        max_leaves=8,
    ))
    @settings(max_examples=150)
    def test_round_trip_fixpoint_property(self, expr):
        # format reads only the gates, so the hand-built circuit names no symbols
        source = Circuit((Gate("P", expr),), frozenset())
        c1 = parse_circuit(format_circuit(source))
        c2 = parse_circuit(format_circuit(c1))
        assert c1 == c2
        assert c1.free_symbols <= {"theta", "phi"}


class TestBinding:
    def test_unbound_symbol_listed(self):
        c = general_state_circuit()
        with pytest.raises(UnboundSymbolError, match="unbound symbols: phi$"):
            run_circuit(c, {"theta": 0.3}, ket("0"))
        with pytest.raises(UnboundSymbolError, match="unbound symbols: phi, theta$"):
            run_circuit(c, {}, ket("0"))

    def test_extra_bindings_ignored(self):
        s = PureState([0.6, 0.8])
        out = run_circuit(parse_circuit("P(theta)"), {"theta": 1.0, "phi": 2.0, "unused": 3.0}, s)
        assert out.amplitudes == apply_gate(Gate("P", 1.0), s).amplitudes

    def test_each_gate_gets_its_evaluated_angle(self):
        out = run_circuit(general_state_circuit(), {"theta": 0.25, "phi": 0.5}, ket("0"))
        state = ket("0")
        for gate in [Gate("H"), Gate("P", 2 * 0.25), Gate("H"), Gate("P", math.pi / 2 + 0.5)]:
            state = apply_gate(gate, state)
        assert out.amplitudes == state.amplitudes

    def test_apply_gate_binds_nothing(self):
        with pytest.raises(UnboundSymbolError, match="symbol 'theta' is unbound"):
            apply_gate(Gate("P", ("*", 2.0, "theta")), ket("0"))

    @pytest.mark.parametrize("text, message", [
        ("H P(theta/0)", "division by zero"),
        ("H P(theta * 1e308 * 10)", "finite angle"),
        ("H P(theta)", "single-qubit"),
    ])
    def test_argument_errors_come_before_state_errors(self, text, message):
        # every angle is evaluated before the first gate meets the state
        with pytest.raises(DomainError, match=message):
            run_circuit(parse_circuit(text), {"theta": 1.0}, ket("00"))


class TestGateValidation:
    def test_phase_needs_finite_angle(self):
        for angle in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="phase gate needs a finite angle"):
                apply_gate(Gate("P", angle), ket("0"))
        # a constant that overflows folds to inf at parse time and fails at run time
        circuit = parse_circuit("P(1e308*10)")
        with pytest.raises(DomainError, match="phase gate needs a finite angle"):
            run_circuit(circuit, {}, ket("0"))

    @pytest.mark.parametrize("raw,canonical", [
        (0.0, 0.0),
        (math.pi, math.pi),
        (9.0 * math.pi, math.pi),
        (FOUR_PI, FOUR_PI),
        (-FOUR_PI, FOUR_PI),
        (12.0 * math.pi, FOUR_PI),
        (-5.0 * math.pi, 3.0 * math.pi),
    ])
    def test_angle_reduced_into_canonical_interval(self, raw, canonical):
        assert _angle(Gate("P", raw), {}) == pytest.approx(canonical, abs=1e-12)

    @given(st.floats(-1e6, 1e6))
    def test_canonical_interval_property(self, raw):
        angle = _angle(Gate("P", raw), {})
        assert -FOUR_PI < angle <= FOUR_PI
        # same gate action either way
        assert math.cos(angle) == pytest.approx(math.cos(raw), abs=1e-6)
        assert math.sin(angle) == pytest.approx(math.sin(raw), abs=1e-6)


class TestExecution:
    def test_hadamard_action(self):
        out = apply_gate(Gate("H"), ket("0"))
        np.testing.assert_allclose(out.amplitudes, [2**-0.5, 2**-0.5])
        out = apply_gate(Gate("H"), ket("1"))
        np.testing.assert_allclose(out.amplitudes, [2**-0.5, -(2**-0.5)])

    def test_hadamard_involution(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            s = PureState(v / np.linalg.norm(v))
            back = apply_gate(Gate("H"), apply_gate(Gate("H"), s))
            np.testing.assert_allclose(back.amplitudes, s.amplitudes, atol=1e-15)

    def test_phase_gate_action(self):
        s = PureState(np.array([0.6, 0.8], dtype=complex))
        out = apply_gate(Gate("P", math.pi / 3), s)
        assert out.amplitudes[0] == pytest.approx(0.6)
        assert out.amplitudes[1] == pytest.approx(0.8 * np.exp(1j * math.pi / 3))

    def test_phase_gates_compose_additively(self):
        s = PureState(np.array([0.6, 0.8], dtype=complex))
        one = apply_gate(Gate("P", 0.7), apply_gate(Gate("P", 0.4), s))
        both = apply_gate(Gate("P", 1.1), s)
        np.testing.assert_allclose(one.amplitudes, both.amplitudes, atol=1e-15)

    def test_two_qubit_state_rejected(self):
        with pytest.raises(DomainError):
            apply_gate(Gate("H"), ket("00"))


class TestPreparationCircuits:
    def test_general_circuit_hits_target_with_global_phase(self):
        theta, phi = 0.7, -1.3
        out = run_circuit(general_state_circuit(), {"theta": theta, "phi": phi}, ket("0"))
        target = np.exp(1j * theta) * np.array(
            [math.cos(theta), math.sin(theta) * np.exp(1j * phi)]
        )
        np.testing.assert_allclose(out.amplitudes, target, atol=1e-12)

    def test_spinor_circuit_hits_target_with_global_phase(self):
        theta, phi = 2.1, 0.4
        out = run_circuit(spinor_state_circuit(), {"theta": theta, "phi": phi}, ket("0"))
        target = np.exp(0.5j * theta) * np.array(
            [math.cos(theta / 2), math.sin(theta / 2) * np.exp(-1j * phi)]
        )
        np.testing.assert_allclose(out.amplitudes, target, atol=1e-12)

    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    @settings(max_examples=150)
    def test_general_circuit_property(self, theta, phi):
        out = run_circuit(general_state_circuit(), {"theta": theta, "phi": phi}, ket("0"))
        target = PureState(np.array(
            [math.cos(theta), math.sin(theta) * np.exp(1j * phi)]
        ))
        assert equal_up_to_global_phase(out, target, 1e-10)

    @given(st.floats(0.0, math.pi), st.floats(-10.0, 10.0))
    @settings(max_examples=150)
    def test_spinor_circuit_matches_prepared_spinor(self, theta, phi):
        out = run_circuit(spinor_state_circuit(), {"theta": theta, "phi": phi}, ket("0"))
        direct = prepare_spinor(SpinorParams(theta, phi, 0.0), Orientation.UP)
        assert equal_up_to_global_phase(out, direct, 1e-10)


class TestSpinorConstructors:
    def test_up_components(self):
        p = SpinorParams(theta=1.0, phi=0.5, chi=0.2)
        s = prepare_spinor(p, Orientation.UP)
        np.testing.assert_allclose(
            s.amplitudes,
            [math.cos(0.5), math.sin(0.5) * np.exp(-0.5j)],
            atol=1e-15,
        )

    def test_up_overall_phase(self):
        p = SpinorParams(theta=1.0, phi=0.5, chi=0.2)
        bare = prepare_spinor(p, Orientation.UP)
        full = prepare_spinor(p, Orientation.UP, include_overall_phase=True)
        np.testing.assert_allclose(
            full.amplitudes,
            np.array(bare.amplitudes) * np.exp(0.5j * (0.5 - 0.2)),
            atol=1e-15,
        )

    def test_down_components(self):
        p = SpinorParams(theta=1.0, phi=0.5, chi=0.0)
        s = prepare_spinor(p, Orientation.DOWN)
        np.testing.assert_allclose(
            s.amplitudes,
            [math.sin(0.5), math.cos(0.5) * np.exp(0.5j)],
            atol=1e-15,
        )

    def test_down_overall_phase_is_conjugate(self):
        p = SpinorParams(theta=1.0, phi=0.5, chi=0.2)
        full = prepare_spinor(p, Orientation.DOWN, include_overall_phase=True)
        bare = prepare_spinor(p, Orientation.DOWN)
        np.testing.assert_allclose(
            full.amplitudes,
            np.array(bare.amplitudes) * np.exp(-0.5j * (0.5 - 0.2)),
            atol=1e-15,
        )

    def test_down_equals_up_at_antipode_with_reversed_azimuth(self):
        theta, phi = 0.9, 2.2
        down = prepare_spinor(SpinorParams(theta, phi, 0.0), Orientation.DOWN)
        up_antipode = prepare_spinor(
            SpinorParams(math.pi - theta, -phi, 0.0), Orientation.UP
        )
        np.testing.assert_allclose(down.amplitudes, up_antipode.amplitudes, atol=1e-15)

    def test_theta_domain_enforced(self):
        with pytest.raises(DomainError, match=r"theta out of \[0, pi\]"):
            SpinorParams(theta=4.0, phi=0.0, chi=0.0)
        with pytest.raises(DomainError, match="finite"):
            SpinorParams(theta=0.5, phi=math.inf, chi=0.0)
