"""Circuit language: tokenizing, parsing, folding, formatting, execution."""

import cmath
import math
import random

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
    UnboundSymbolError,
    UnknownSymbolError,
    apply_gate,
    dispatch,
    equal_up_to_global_phase,
    format_circuit,
    general_state_circuit,
    ket,
    parse_circuit,
    prepare_spinor,
    run_circuit,
    spinor_state_circuit,
)
from spinphase.circuits import MAX_DEPTH, _angle

FOUR_PI = 4.0 * math.pi
INV_SQRT2 = complex(1.0 / math.sqrt(2.0))


def part_bits(amplitudes):
    """The amplitudes' parts as hex text: equal bits, signed zeros included."""
    return [(z.real.hex(), z.imag.hex()) for z in amplitudes]


def compose_once(angles, state):
    """Hadamards (None) and phase rotations by already reduced angles, applied to
    the plain amplitude pair, then one checked state."""
    a, b = state.amplitudes
    for angle in angles:
        if angle is None:
            a, b = (a + b) * INV_SQRT2, (a - b) * INV_SQRT2
        else:
            b = b * cmath.exp(1j * angle)
    return PureState([a, b]).amplitudes


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

    @pytest.mark.parametrize("text, message, column", [
        ("P(1e400)", "number '1e400' is not finite", 3),
        ("P(1e308*10)", "constant expression is not finite", 8),
        ("P(1e400 - 1e400)", "number '1e400' is not finite", 3),
        ("P(pi/1e-308)", "constant expression is not finite", 5),
        ("H\nP(-1e308 - 1e308 + theta)", "constant expression is not finite", 10),
    ])
    def test_constants_that_are_not_finite_are_parse_errors(self, text, message, column):
        # inf and nan would print as names that do not parse back
        with pytest.raises(CircuitSyntaxError, match=message) as err:
            parse_circuit(text)
        assert err.value.column == column

    def test_syntax_errors_are_domain_errors(self):
        with pytest.raises(DomainError):
            parse_circuit("Q")


def nested(shape: str, levels: int) -> str:
    """A phase argument of one shape, nested levels deep."""
    if shape == "sum":  # folded left-deep: levels + 1 terms, levels operators
        return "theta" + " + theta" * levels
    if shape == "parentheses":
        return "(" * levels + "theta" + ")" * levels
    return "-" * levels + "theta"


SHAPES = ("sum", "parentheses", "unary-minus")


class TestDepthBound:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_an_argument_at_the_bound_parses_formats_and_runs(self, shape):
        c = parse_circuit(f"H P({nested(shape, MAX_DEPTH)})")
        assert parse_circuit(format_circuit(c)) == c
        run_circuit(c, {"theta": 0.5}, ket("0"))

    # the sum is measured on its tree, at its P; the others on the token past the bound
    @pytest.mark.parametrize(("shape", "column"), [
        ("sum", 3), ("parentheses", 5 + MAX_DEPTH), ("unary-minus", 5 + MAX_DEPTH)])
    def test_one_level_past_the_bound_is_a_syntax_error(self, shape, column):
        with pytest.raises(CircuitSyntaxError, match=f"deeper than {MAX_DEPTH} levels") as err:
            parse_circuit(f"H P({nested(shape, MAX_DEPTH + 1)})")
        assert (err.value.line, err.value.column) == (1, column)

    # before the bound, each of these exhausted the recursion limit
    @pytest.mark.parametrize("shape", SHAPES)
    def test_ten_thousand_levels_are_a_syntax_error(self, shape):
        with pytest.raises(CircuitSyntaxError, match="nested deeper"):
            parse_circuit(f"H P({nested(shape, 10**4)})")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ten_thousand_levels_exit_1_with_one_line(self, shape, tmp_path, capsys):
        file = tmp_path / "deep.circ"
        file.write_text(f"H P({nested(shape, 10**4)})", encoding="utf-8")
        assert dispatch(["circuit", "--file", str(file), "--theta", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "nested deeper" in err


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
    # its trees are at most a few levels deep, far inside MAX_DEPTH
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
        # the evaluated gates composed on plain amplitudes, checked once at the end
        out = run_circuit(general_state_circuit(), {"theta": 0.25, "phi": 0.5}, ket("0"))
        assert part_bits(out.amplitudes) == part_bits(
            compose_once([None, 2 * 0.25, None, math.pi / 2 + 0.5], ket("0")))

    def test_apply_gate_binds_nothing(self):
        with pytest.raises(UnboundSymbolError, match="symbol 'theta' is unbound"):
            apply_gate(Gate("P", ("*", 2.0, "theta")), ket("0"))

    @pytest.mark.parametrize("value", [
        0.5, 2, np.float64(0.5), np.float32(0.5), np.int64(-3), np.uint8(7),
    ])
    def test_real_bindings_are_accepted(self, value):
        plus = PureState([0.6, 0.8])
        got = run_circuit(parse_circuit("P(theta)"), {"theta": value}, plus)
        assert got.amplitudes == apply_gate(Gate("P", float(value)), plus).amplitudes

    @pytest.mark.parametrize("value", [
        "0.5", "abc", None, 1j, 0.5 + 0j, np.complex128(0.5), True, np.bool_(False), [0.5],
    ])
    def test_bindings_that_are_not_real_numbers_are_rejected(self, value):
        with pytest.raises(DomainError, match="symbol 'phi' must be bound to a real number"):
            run_circuit(parse_circuit("P(theta + phi)"), {"theta": 1.0, "phi": value}, ket("0"))

    def test_binding_too_large_for_a_float_is_a_domain_error(self):
        with pytest.raises(DomainError, match="symbol 'theta' is bound to a number too large"):
            run_circuit(parse_circuit("P(theta)"), {"theta": 10**400}, ket("0"))

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
        # a symbol's angle can still overflow, which only shows at run time
        circuit = parse_circuit("P(theta*1e308*10)")
        with pytest.raises(DomainError, match="phase gate needs a finite angle"):
            run_circuit(circuit, {"theta": 1.0}, ket("0"))

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

    def test_checked_once_stays_within_two_ulp_of_a_check_per_gate(self):
        """run_circuit checks its state once, after the last gate; the apply_gate
        chain checks (and renormalizes) after every gate.  Over 4000 seeded
        circuits of 1 to 10 gates the parts differ by at most 2 ulp of 1, the
        scale of a unit vector's parts (1.5 measured; 2796 of the 4000 differ),
        and the bits agree exactly for one-gate circuits."""
        rng = random.Random("checked once")
        ulp_of_one = math.ulp(1.0)
        worst, differing = 0.0, 0
        for _ in range(4000):
            gates = tuple(Gate("H") if rng.random() < 0.5 else Gate("P", rng.uniform(-20.0, 20.0))
                          for _ in range(rng.randint(1, 10)))
            theta, phi = rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi)
            state = PureState([math.cos(theta), math.sin(theta) * cmath.exp(1j * phi)])
            once = run_circuit(Circuit(gates, frozenset()), {}, state).amplitudes
            chained = state
            for gate in gates:
                chained = apply_gate(gate, chained)
            if len(gates) == 1:
                assert part_bits(once) == part_bits(chained.amplitudes)
            for x, y in zip(once, chained.amplitudes):
                worst = max(worst, abs(x.real - y.real) / ulp_of_one,
                            abs(x.imag - y.imag) / ulp_of_one)
            differing += part_bits(once) != part_bits(chained.amplitudes)
        assert worst <= 2.0, f"largest gap {worst} ulp of 1"
        assert differing > 0  # the routes do differ, so the bound is a real check

    def test_run_circuit_is_the_compose_once_reference(self):
        rng = random.Random("compose once")
        for _ in range(500):
            gates = tuple(Gate("H") if rng.random() < 0.5 else Gate("P", rng.uniform(-60.0, 60.0))
                          for _ in range(rng.randint(1, 8)))
            state = PureState([complex(0.6, rng.choice((0.0, -0.0))), 0.8j])
            out = run_circuit(Circuit(gates, frozenset()), {}, state)
            angles = [_angle(gate, {}) for gate in gates]
            assert part_bits(out.amplitudes) == part_bits(compose_once(angles, state))


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
        direct = prepare_spinor(Orientation.UP, theta, phi)
        assert equal_up_to_global_phase(out, direct, 1e-10)


class TestSpinorConstructors:
    def test_up_components(self):
        s = prepare_spinor(Orientation.UP, 1.0, 0.5)
        np.testing.assert_allclose(
            s.amplitudes,
            [math.cos(0.5), math.sin(0.5) * np.exp(-0.5j)],
            atol=1e-15,
        )

    def test_up_overall_phase(self):
        bare = prepare_spinor(Orientation.UP, 1.0, 0.5)
        full = prepare_spinor(Orientation.UP, 1.0, 0.5, chi=0.2)
        np.testing.assert_allclose(
            full.amplitudes,
            np.array(bare.amplitudes) * np.exp(0.5j * (0.5 - 0.2)),
            atol=1e-15,
        )

    def test_down_components(self):
        s = prepare_spinor(Orientation.DOWN, 1.0, 0.5)
        np.testing.assert_allclose(
            s.amplitudes,
            [math.sin(0.5), math.cos(0.5) * np.exp(0.5j)],
            atol=1e-15,
        )

    def test_down_overall_phase_is_conjugate(self):
        full = prepare_spinor(Orientation.DOWN, 1.0, 0.5, chi=0.2)
        bare = prepare_spinor(Orientation.DOWN, 1.0, 0.5)
        np.testing.assert_allclose(
            full.amplitudes,
            np.array(bare.amplitudes) * np.exp(-0.5j * (0.5 - 0.2)),
            atol=1e-15,
        )

    def test_down_equals_up_at_antipode_with_reversed_azimuth(self):
        theta, phi = 0.9, 2.2
        down = prepare_spinor(Orientation.DOWN, theta, phi)
        up_antipode = prepare_spinor(Orientation.UP, math.pi - theta, -phi)
        np.testing.assert_allclose(down.amplitudes, up_antipode.amplitudes, atol=1e-15)

    def test_theta_domain_enforced(self):
        with pytest.raises(DomainError, match=r"theta out of \[0, pi\]"):
            prepare_spinor(Orientation.UP, 4.0, 0.0)
        with pytest.raises(DomainError, match="^phi must be finite$"):
            prepare_spinor(Orientation.UP, 0.5, math.inf)
        # theta, then phi, then chi, which is checked only when given
        with pytest.raises(DomainError, match=r"theta out of \[0, pi\]"):
            prepare_spinor(Orientation.DOWN, 4.0, math.nan, math.nan)
        with pytest.raises(DomainError, match="^chi must be finite$"):
            prepare_spinor(Orientation.DOWN, 0.5, 0.0, math.inf)
