"""Single-qubit gate set, a small circuit language, and spinor constructors.

Circuit text is applied left to right to the input state:

    circuit := gate+
    gate    := "H" | "P(" expr ")"
    expr    := term (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := number | "pi" | "theta" | "phi" | "-" factor | "(" expr ")"

"#" starts a comment running to end of line.  theta and phi stay free until
run time; every constant subexpression is folded during parsing, so division
by zero among constants, or a number or fold that is not finite, is a parse
error, not a runtime surprise.  Bindings must be real numbers.

A parsed circuit has one form.  An expression is a float (a folded constant),
a symbol's name, ``("-", operand)`` or ``(op, left, right)`` with op one of
+ - * /.  A ``Gate`` is ``("H", None)`` or ``("P", expression)``, and a
``Circuit`` is ``(gates, free_symbols)``.  ``run_circuit`` evaluates each phase
argument under its bindings; nothing is bound ahead of time.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping, NamedTuple, Union

from .errors import (
    CircuitSyntaxError,
    DomainError,
    UnboundSymbolError,
    UnknownSymbolError,
)
from .phases import Orientation, SpinorParams
from .states import PureState

FREE_SYMBOLS = ("theta", "phi")

# A complex, so that scaling by it is a full complex product, as it was in numpy:
# its signed zeros then do not depend on the Python version (3.14 changed the
# rules for complex-by-float arithmetic).
_INV_SQRT2 = complex(1.0 / math.sqrt(2.0))
_FOUR_PI = 4.0 * math.pi

Expr = Union[float, str, tuple]


# ---------------------------------------------------------------------------
# expressions


def evaluate_expr(expr: Expr, bindings: Mapping[str, float]) -> float:
    """expr's value with its symbols read from bindings, left operand first."""
    if isinstance(expr, str):
        if expr not in bindings:
            raise UnboundSymbolError(f"symbol '{expr}' is unbound")
        return _real_binding(expr, bindings[expr])
    if not isinstance(expr, tuple):
        return expr
    if len(expr) == 2:
        return -evaluate_expr(expr[1], bindings)
    op, left, right = expr
    left = evaluate_expr(left, bindings)
    right = evaluate_expr(right, bindings)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right == 0.0:
        raise DomainError("division by zero while evaluating a phase argument")
    return left / right


def _real_binding(symbol: str, value) -> float:
    """A symbol's binding as a float; anything but a real number (bool included) is rejected."""
    if type(value) is not float:
        import numbers  # not needed at import time: the CLI binds plain floats

        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"symbol '{symbol}' must be bound to a real number, "
                              f"not {type(value).__name__}")
        try:
            return float(value)
        except OverflowError:
            raise DomainError(f"symbol '{symbol}' is bound to a number too large "
                              "for a float") from None
    return value


def _format_expr(expr: Expr, parent_prec: int = 0) -> str:
    # precedence: +,- are 1; *,/ are 2; unary minus binds as a factor
    if isinstance(expr, str):
        return expr
    if not isinstance(expr, tuple):
        return repr(expr)
    if len(expr) == 2:
        return "-" + _format_expr(expr[1], 3)
    op, left, right = expr
    prec = 1 if op in "+-" else 2
    sep = f" {op} " if prec == 1 else op
    # right child of - or / needs parens at equal precedence (a - (b - c))
    text = f"{_format_expr(left, prec)}{sep}{_format_expr(right, prec + (op in '-/'))}"
    return f"({text})" if prec < parent_prec else text


# ---------------------------------------------------------------------------
# gates and circuits


class Gate(NamedTuple):
    """One gate: a Hadamard ("H", None), or a rotation of the |1> amplitude
    ("P", argument) whose argument expression may hold free symbols."""

    kind: str
    argument: Expr | None = None


class Circuit(NamedTuple):
    """Gates applied left to right, and the symbols their arguments leave free."""

    gates: tuple[Gate, ...]
    free_symbols: frozenset[str]


# ---------------------------------------------------------------------------
# parsing


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """Tokens (kind, text, line, column); kind is NAME, NUMBER, END or the character."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(("NAME", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":  # exponent form shows up in round-tripped floats
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            word = text[i:j]
            try:
                float(word)
            except ValueError:
                raise CircuitSyntaxError(f"bad number {word!r}", line, start_col) from None
            tokens.append(("NUMBER", word, line, start_col))
            col += j - i
            i = j
            continue
        if ch in "()+-*/":
            tokens.append((ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise CircuitSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(("END", "", line, col))
    return tokens


def _unexpected(what: str, token: tuple) -> CircuitSyntaxError:
    _, text, line, column = token
    return CircuitSyntaxError(f"expected {what}, found {text or 'end of input'!r}", line, column)


class _Parser:
    def __init__(self, tokens: list[tuple]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._symbols: set[str] = set()

    def _peek(self) -> str:
        return self._tokens[self._pos][0]

    def _next(self) -> tuple:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: str) -> None:
        tok = self._next()
        if tok[0] != kind:
            raise _unexpected(repr(kind), tok)

    def parse_circuit(self) -> Circuit:
        gates: list[Gate] = []
        while self._peek() != "END":
            tok = self._next()
            if tok[:2] == ("NAME", "H"):
                gates.append(Gate("H"))
            elif tok[:2] == ("NAME", "P"):
                self._expect("(")
                arg = self._expr()
                self._expect(")")
                gates.append(Gate("P", arg))
            else:
                raise _unexpected("a gate", tok)
        if not gates:
            _, _, line, column = self._tokens[self._pos]
            raise CircuitSyntaxError("empty circuit", line, column)
        return Circuit(tuple(gates), frozenset(self._symbols))

    def _expr(self) -> Expr:
        node = self._term()
        while self._peek() in "+-":
            op = self._next()
            node = self._fold(op, node, self._term())
        return node

    def _term(self) -> Expr:
        node = self._factor()
        while self._peek() in "*/":
            op = self._next()
            node = self._fold(op, node, self._factor())
        return node

    def _factor(self) -> Expr:
        tok = self._next()
        kind, text, line, column = tok
        if kind == "NUMBER":
            return _finite_constant(float(text), f"number {text!r}", tok)
        if kind == "NAME":
            if text == "pi":
                return math.pi
            if text in FREE_SYMBOLS:
                self._symbols.add(text)
                return text
            raise UnknownSymbolError(f"unknown symbol {text!r}", line, column)
        if kind == "-":
            operand = self._factor()
            return -operand if isinstance(operand, float) else ("-", operand)
        if kind == "(":
            node = self._expr()
            self._expect(")")
            return node
        raise _unexpected("a value", tok)

    @staticmethod
    def _fold(op_token: tuple, left: Expr, right: Expr) -> Expr:
        op, _, line, column = op_token
        node = (op, left, right)
        if not (isinstance(left, float) and isinstance(right, float)):
            return node
        if op == "/" and right == 0.0:
            raise CircuitSyntaxError("division by zero", line, column)
        return _finite_constant(evaluate_expr(node, {}), "constant expression", op_token)


def _finite_constant(value: float, what: str, token: tuple) -> float:
    """value, if finite: a circuit's constants must print as text that parses back."""
    if not math.isfinite(value):
        _, _, line, column = token
        raise CircuitSyntaxError(f"{what} is not finite", line, column)
    return value


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text into a Circuit, folding constant subexpressions."""
    return _Parser(_tokenize(text)).parse_circuit()


def format_circuit(circuit: Circuit) -> str:
    """Render a circuit back to source text; reparsing yields an identical Circuit."""
    return " ".join("H" if kind == "H" else f"P({_format_expr(argument)})"
                    for kind, argument in circuit.gates)


# ---------------------------------------------------------------------------
# execution


def _angle(gate: Gate, bindings: Mapping[str, float]) -> float | None:
    """A phase gate's angle under bindings, reduced into (-4 pi, 4 pi]; None for H.

    Phase gates are 2 pi periodic; the reduced angle, not the raw one, sets the
    bits of the rotated amplitude.
    """
    if gate.kind == "H":
        return None
    angle = evaluate_expr(gate.argument, bindings)
    if not math.isfinite(angle):
        raise DomainError("phase gate needs a finite angle")
    r = math.fmod(angle, 2.0 * _FOUR_PI)
    if r > _FOUR_PI:
        r -= 2.0 * _FOUR_PI
    elif r <= -_FOUR_PI:
        r += 2.0 * _FOUR_PI
    return r


def _act(angle: float | None, state: PureState) -> PureState:
    """A Hadamard (angle None) or a phase rotation by angle, on one qubit."""
    if state.num_qubits != 1:
        raise DomainError("gates act on single-qubit states")
    a, b = state.amplitudes
    # a checked state per gate: its renormalization sets the bits of the output
    if angle is None:
        return PureState([(a + b) * _INV_SQRT2, (a - b) * _INV_SQRT2])
    return PureState([a, b * cmath.exp(1j * angle)])


def apply_gate(gate: Gate, state: PureState) -> PureState:
    """Apply one gate, whose argument holds no free symbol, to a single-qubit state."""
    return _act(_angle(gate, {}), state)


def run_circuit(circuit: Circuit, bindings: Mapping[str, float], state: PureState) -> PureState:
    """Apply the circuit left to right, its free symbols read from bindings.

    Every phase angle is evaluated before the first gate acts, so an error in
    the bindings or the arguments is reported ahead of an error in the state.
    """
    missing = sorted(circuit.free_symbols - set(bindings))
    if missing:
        raise UnboundSymbolError(f"unbound symbols: {', '.join(missing)}")
    for angle in [_angle(gate, bindings) for gate in circuit.gates]:
        state = _act(angle, state)
    return state


GENERAL_STATE_TEXT = "H P(2*theta) H P(pi/2 + phi)"
SPINOR_STATE_TEXT = "H P(theta) H P(pi/2 - phi)"


def general_state_circuit() -> Circuit:
    """Circuit taking |0> to cos(theta)|0> + sin(theta) e^{i phi} |1>, up to a global phase."""
    return parse_circuit(GENERAL_STATE_TEXT)


def spinor_state_circuit() -> Circuit:
    """Circuit taking |0> to the gauge-fixed half-angle form
    cos(theta/2)|0> + sin(theta/2) e^{-i phi} |1>, up to a global phase (e^{i theta/2})."""
    return parse_circuit(SPINOR_STATE_TEXT)


# ---------------------------------------------------------------------------
# spinor constructor (its parameter types live in phases)


def prepare_spinor(
    params: SpinorParams,
    orientation: Orientation,
    include_overall_phase: bool = False,
) -> PureState:
    """Spinor state at (theta, phi), optionally carrying its overall winding phase.

    UP:   (cos(theta/2), sin(theta/2) e^{-i phi}) times e^{+i(phi-chi)/2}
    DOWN: (sin(theta/2), cos(theta/2) e^{+i phi}) times e^{-i(phi-chi)/2}
    """
    half = params.theta / 2.0
    # complex factors, as for _INV_SQRT2: the bits of berry.spinor_amplitudes' rows
    c, s = complex(math.cos(half)), complex(math.sin(half))
    if orientation is Orientation.UP:
        amps = [c, s * cmath.exp(-1j * params.phi)]
    else:
        amps = [s, c * cmath.exp(1j * params.phi)]
    if include_overall_phase:
        if orientation is Orientation.UP:
            phase = cmath.exp(0.5j * (params.phi - params.chi))
        else:
            phase = cmath.exp(-0.5j * (params.phi - params.chi))
        amps = [a * phase for a in amps]
    return PureState(amps)
