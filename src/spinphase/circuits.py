"""Single-qubit gate set, a small circuit language, and spinor constructors.

Circuit text is applied left to right to the input state:

    circuit := gate+
    gate    := "H" | "P(" expr ")"
    expr    := term (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := number | "pi" | "theta" | "phi" | "-" factor | "(" expr ")"

"#" starts a comment running to end of line; a name is a run of letters and a
number starts with a decimal digit.  Text longer than ``MAX_TEXT_LENGTH``
characters is rejected before it is scanned.  theta and phi stay free until
run time; every constant subexpression is folded during parsing, so division
by zero among constants, or a number or fold that is not finite, is a parse
error, not a runtime surprise; so is a phase argument nested deeper than
``MAX_DEPTH`` levels.  Bindings must be real numbers.

A parsed circuit has one form.  An expression is a float (a folded constant),
a symbol's name, ``("-", operand)`` or ``(op, left, right)`` with op one of
+ - * /.  A ``Gate`` is ``("H", None)`` or ``("P", expression)``, and a
``Circuit`` is ``(gates, free_symbols)``.  ``run_circuit`` evaluates each phase
argument under its bindings; nothing is bound ahead of time.
"""

from __future__ import annotations

import cmath
import math
import re
from typing import Mapping, NamedTuple, Union

from ._angles import check_real, check_theta
from .errors import (
    CircuitSyntaxError,
    DomainError,
    UnboundSymbolError,
    UnknownSymbolError,
)
from .phases import Orientation, _sign, _spinor_gauge
from .states import PureState

FREE_SYMBOLS = ("theta", "phi")
# each level costs up to 3 Python frames to parse and 1 to format or run, of 1000
MAX_DEPTH = 100
_TOO_DEEP = f"phase argument nested deeper than {MAX_DEPTH} levels"
# a parse peaks near 100 B a character, so text at the bound near 13 MiB
MAX_TEXT_LENGTH = 2**17

# A complex, so that scaling by it is a full complex product, as it was in numpy:
# its signed zeros then do not depend on the Python version (3.14 changed the
# rules for complex-by-float arithmetic).
_INV_SQRT2 = complex(1.0 / math.sqrt(2.0))
_FOUR_PI = 4.0 * math.pi

Expr = Union[float, str, tuple]


# ---------------------------------------------------------------------------
# expressions


def _evaluate_expr(expr: Expr, bindings: Mapping[str, float]) -> float:
    """expr's value with its symbols read from bindings, left operand first."""
    if isinstance(expr, str):
        if expr not in bindings:
            raise UnboundSymbolError(f"symbol '{expr}' is unbound")
        return _real_binding(expr, bindings[expr])
    if not isinstance(expr, tuple):
        return expr
    if len(expr) == 2:
        return -_evaluate_expr(expr[1], bindings)
    op, left, right = expr
    left = _evaluate_expr(left, bindings)
    right = _evaluate_expr(right, bindings)
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


# Group k holds token kind k below; a blank run matches no group (its lastindex is None).
_TOKEN = re.compile(r"[ \t\r]+|(#[^\n]*)|(\n)|([^\W\d_]+)"
                    r"|((?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?)|([()+*/-])|(.)")
_COMMENT, _NEWLINE, _NAME, _NUMBER, _OPERATOR, _OTHER = range(1, 7)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """Tokens (kind, text, line, column); kind is NAME, NUMBER, END or the character."""
    tokens = []
    line, line_start, end = 1, 0, 0  # end: past the last token or blank, not a comment
    for match in _TOKEN.finditer(text):
        kind, word = match.lastindex, match.group()
        column = match.start() - line_start + 1
        if kind == _NEWLINE:
            line, line_start = line + 1, match.end()
        elif kind == _NAME:
            tokens.append(("NAME", word, line, column))
        elif kind == _NUMBER:
            try:
                float(word)
            except ValueError:
                raise CircuitSyntaxError(f"bad number {word!r}", line, column) from None
            tokens.append(("NUMBER", word, line, column))
        elif kind == _OPERATOR:
            tokens.append((word, word, line, column))
        elif kind == _OTHER:
            raise CircuitSyntaxError(f"unexpected character {word!r}", line, column)
        if kind != _COMMENT:
            end = match.end()
    tokens.append(("END", "", line, end - line_start + 1))
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
                level = [arg]  # a long sum parses without recursion; walk its tree's levels
                for _ in range(MAX_DEPTH + 1):
                    level = [kid for node in level if isinstance(node, tuple) for kid in node[1:]]
                    if not level:
                        break
                if level:
                    raise CircuitSyntaxError(_TOO_DEEP, *tok[2:])
                gates.append(Gate("P", arg))
            else:
                raise _unexpected("a gate", tok)
        if not gates:
            _, _, line, column = self._tokens[self._pos]
            raise CircuitSyntaxError("empty circuit", line, column)
        return Circuit(tuple(gates), frozenset(self._symbols))

    # nesting counts the parentheses and minus signs open around the text parsed
    def _expr(self, nesting: int = 0) -> Expr:
        node = self._term(nesting)
        while self._peek() in "+-":
            op = self._next()
            node = self._fold(op, node, self._term(nesting))
        return node

    def _term(self, nesting: int) -> Expr:
        node = self._factor(nesting)
        while self._peek() in "*/":
            op = self._next()
            node = self._fold(op, node, self._factor(nesting))
        return node

    def _factor(self, nesting: int) -> Expr:
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
        if kind in ("-", "(") and nesting == MAX_DEPTH:
            raise CircuitSyntaxError(_TOO_DEEP, line, column)
        if kind == "-":
            operand = self._factor(nesting + 1)
            return -operand if isinstance(operand, float) else ("-", operand)
        if kind == "(":
            node = self._expr(nesting + 1)
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
        return _finite_constant(_evaluate_expr(node, {}), "constant expression", op_token)


def _finite_constant(value: float, what: str, token: tuple) -> float:
    """value, if finite: a circuit's constants must print as text that parses back."""
    if not math.isfinite(value):
        _, _, line, column = token
        raise CircuitSyntaxError(f"{what} is not finite", line, column)
    return value


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text into a Circuit, folding constant subexpressions."""
    if not isinstance(text, str):
        raise DomainError("circuit text must be str")
    if len(text) > MAX_TEXT_LENGTH:
        raise DomainError(f"circuit text longer than {MAX_TEXT_LENGTH} characters")
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
    angle = _evaluate_expr(gate.argument, bindings)
    if not math.isfinite(angle):
        raise DomainError("phase gate needs a finite angle")
    r = math.fmod(angle, 2.0 * _FOUR_PI)
    if r > _FOUR_PI:
        r -= 2.0 * _FOUR_PI
    elif r <= -_FOUR_PI:
        r += 2.0 * _FOUR_PI
    return r


def apply_gate(gate: Gate, state: PureState) -> PureState:
    """Apply one gate, whose argument holds no free symbol, to a single-qubit state."""
    return run_circuit(Circuit((gate,), frozenset()), {}, state)


def run_circuit(circuit: Circuit, bindings: Mapping[str, float], state: PureState) -> PureState:
    """Apply the circuit left to right, its free symbols read from bindings.

    Every phase angle is evaluated before the first gate acts, so an error in
    the bindings or the arguments is reported ahead of an error in the state.
    The gates act on the plain amplitude pair and the result is checked once,
    after the last gate: the gates are unitary, so a state on the contract
    stays on it, and that one check's renormalization sets the output bits.
    """
    missing = sorted(circuit.free_symbols - set(bindings))
    if missing:
        raise UnboundSymbolError(f"unbound symbols: {', '.join(missing)}")
    angles = [_angle(gate, bindings) for gate in circuit.gates]
    if state.num_qubits != 1:
        raise DomainError("gates act on single-qubit states")
    a, b = state.amplitudes
    for angle in angles:
        if angle is None:  # a Hadamard
            a, b = (a + b) * _INV_SQRT2, (a - b) * _INV_SQRT2
        else:
            b = b * cmath.exp(1j * angle)
    return PureState((a, b))


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
# spinor constructor


def prepare_spinor(orientation: Orientation, theta: float, phi: float,
                   chi: float | None = None) -> PureState:
    """Spinor state at polar angle theta in [0, pi] and azimuth phi; given the
    chirality winding angle chi, it carries its overall winding phase too.

    UP:   (cos(theta/2), sin(theta/2) e^{-i phi}) times e^{+i(phi-chi)/2}
    DOWN: (sin(theta/2), cos(theta/2) e^{+i phi}) times e^{-i(phi-chi)/2}
    """
    check_theta(theta)
    check_real("phi", phi)
    if chi is not None:
        check_real("chi", chi)
    # complex factors, as for _INV_SQRT2: the bits of numpy's real-by-complex products
    c, s = map(complex, _spinor_gauge(orientation, theta))
    sign = _sign(orientation)
    amps = [c, s * cmath.exp(-sign * 1j * phi)]
    if chi is not None:
        phase = cmath.exp(sign * 0.5j * (phi - chi))
        amps = [a * phase for a in amps]
    return PureState(amps)
