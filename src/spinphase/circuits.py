"""Single-qubit gate set, a small circuit language, and spinor constructors.

Circuit text is applied left to right to the input state:

    circuit := gate+
    gate    := "H" | "P(" expr ")"
    expr    := term (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := number | "pi" | "theta" | "phi" | "-" factor | "(" expr ")"

"#" starts a comment running to end of line.  theta and phi stay free until
bind time; every constant subexpression is folded during parsing, so division
by zero among constants is a parse error, not a runtime surprise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Union

from ._angles import check_finite, check_theta
from .errors import (
    CircuitSyntaxError,
    DomainError,
    UnboundSymbolError,
    UnknownSymbolError,
)
from .states import PureState

FREE_SYMBOLS = ("theta", "phi")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Sym, Neg, BinOp]


def expr_symbols(expr: Expr) -> frozenset[str]:
    if isinstance(expr, Sym):
        return frozenset((expr.name,))
    if isinstance(expr, Neg):
        return expr_symbols(expr.operand)
    if isinstance(expr, BinOp):
        return expr_symbols(expr.left) | expr_symbols(expr.right)
    return frozenset()


def evaluate_expr(expr: Expr, bindings: Mapping[str, float]) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Sym):
        if expr.name not in bindings:
            raise UnboundSymbolError(f"symbol '{expr.name}' is unbound")
        return float(bindings[expr.name])
    if isinstance(expr, Neg):
        return -evaluate_expr(expr.operand, bindings)
    left = evaluate_expr(expr.left, bindings)
    right = evaluate_expr(expr.right, bindings)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if right == 0.0:
        raise DomainError("division by zero while evaluating a phase argument")
    return left / right


def _format_expr(expr: Expr, parent_prec: int = 0) -> str:
    # precedence: +,- are 1; *,/ are 2; unary minus binds as a factor
    if isinstance(expr, Num):
        text = repr(expr.value)
        return text
    if isinstance(expr, Sym):
        return expr.name
    if isinstance(expr, Neg):
        inner = _format_expr(expr.operand, 3)
        return f"-{inner}"
    prec = 1 if expr.op in "+-" else 2
    sep = f" {expr.op} " if prec == 1 else expr.op
    left = _format_expr(expr.left, prec)
    # right child of - or / needs parens at equal precedence (a - (b - c))
    right = _format_expr(expr.right, prec + (1 if expr.op in "-/" else 0))
    text = f"{left}{sep}{right}"
    if prec < parent_prec:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# gates and circuits


class GateKind(Enum):
    HADAMARD = "H"
    PHASE = "P"


def _canonical_angle(angle: float) -> float:
    # phase gates are 2*pi periodic; stored representative lives in (-4*pi, 4*pi]
    r = math.fmod(angle, 2.0 * _FOUR_PI)
    if r > _FOUR_PI:
        r -= 2.0 * _FOUR_PI
    elif r <= -_FOUR_PI:
        r += 2.0 * _FOUR_PI
    return r


@dataclass(frozen=True)
class Gate:
    """Concrete executable gate: a Hadamard, or a phase rotation of the |1> amplitude."""

    kind: GateKind
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind is GateKind.HADAMARD:
            if self.angle is not None:
                raise DomainError("Hadamard takes no angle")
            return
        if self.angle is None or not math.isfinite(self.angle):
            raise DomainError("phase gate needs a finite angle")
        object.__setattr__(self, "angle", _canonical_angle(float(self.angle)))


@dataclass(frozen=True)
class GateNode:
    """One gate slot of a circuit; phase arguments may still contain free symbols."""

    kind: GateKind
    argument: Expr | None = None


@dataclass(frozen=True)
class Circuit:
    gates: tuple[GateNode, ...]

    @property
    def free_symbols(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for node in self.gates:
            if node.argument is not None:
                out |= expr_symbols(node.argument)
        return out

    def bind(self, bindings: Mapping[str, float]) -> tuple[Gate, ...]:
        """Evaluate every phase argument, producing executable gates."""
        missing = sorted(self.free_symbols - set(bindings))
        if missing:
            raise UnboundSymbolError(f"unbound symbols: {', '.join(missing)}")
        bound = []
        for node in self.gates:
            if node.kind is GateKind.HADAMARD:
                bound.append(Gate(GateKind.HADAMARD))
            else:
                bound.append(Gate(GateKind.PHASE, evaluate_expr(node.argument, bindings)))
        return tuple(bound)


# ---------------------------------------------------------------------------
# parsing


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME NUMBER ( ) + - * / END
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
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
            tokens.append(_Token("NAME", text[i:j], line, start_col))
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
            tokens.append(_Token("NUMBER", word, line, start_col))
            col += j - i
            i = j
            continue
        if ch in "()+-*/":
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise CircuitSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("END", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._next()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise CircuitSyntaxError(f"expected {kind!r}, found {shown!r}", tok.line, tok.column)
        return tok

    def parse_circuit(self) -> Circuit:
        gates: list[GateNode] = []
        while self._peek().kind != "END":
            tok = self._next()
            if tok.kind == "NAME" and tok.text == "H":
                gates.append(GateNode(GateKind.HADAMARD))
            elif tok.kind == "NAME" and tok.text == "P":
                self._expect("(")
                arg = self._expr()
                self._expect(")")
                gates.append(GateNode(GateKind.PHASE, arg))
            else:
                shown = tok.text or "end of input"
                raise CircuitSyntaxError(f"expected a gate, found {shown!r}", tok.line, tok.column)
        if not gates:
            tok = self._peek()
            raise CircuitSyntaxError("empty circuit", tok.line, tok.column)
        return Circuit(tuple(gates))

    def _expr(self) -> Expr:
        node = self._term()
        while self._peek().kind in "+-":
            op = self._next()
            right = self._term()
            node = self._fold(BinOp(op.kind, node, right), op)
        return node

    def _term(self) -> Expr:
        node = self._factor()
        while self._peek().kind in "*/":
            op = self._next()
            right = self._factor()
            node = self._fold(BinOp(op.kind, node, right), op)
        return node

    def _factor(self) -> Expr:
        tok = self._next()
        if tok.kind == "NUMBER":
            return Num(float(tok.text))
        if tok.kind == "NAME":
            if tok.text == "pi":
                return Num(math.pi)
            if tok.text in FREE_SYMBOLS:
                return Sym(tok.text)
            raise UnknownSymbolError(f"unknown symbol {tok.text!r}", tok.line, tok.column)
        if tok.kind == "-":
            operand = self._factor()
            if isinstance(operand, Num):
                return Num(-operand.value)
            return Neg(operand)
        if tok.kind == "(":
            node = self._expr()
            self._expect(")")
            return node
        shown = tok.text or "end of input"
        raise CircuitSyntaxError(f"expected a value, found {shown!r}", tok.line, tok.column)

    @staticmethod
    def _fold(node: BinOp, op_token: _Token) -> Expr:
        if not isinstance(node.left, Num) or not isinstance(node.right, Num):
            return node
        if node.op == "/" and node.right.value == 0.0:
            raise CircuitSyntaxError("division by zero", op_token.line, op_token.column)
        return Num(evaluate_expr(node, {}))


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text into a Circuit, folding constant subexpressions."""
    return _Parser(_tokenize(text)).parse_circuit()


def format_circuit(circuit: Circuit) -> str:
    """Render a circuit back to source text; reparsing yields an identical Circuit."""
    pieces = []
    for node in circuit.gates:
        if node.kind is GateKind.HADAMARD:
            pieces.append("H")
        else:
            pieces.append(f"P({_format_expr(node.argument)})")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# execution


def apply_gate(gate: Gate, state: PureState) -> PureState:
    """Apply one gate to a single-qubit state."""
    if state.num_qubits != 1:
        raise DomainError("gates act on single-qubit states")
    a, b = state.amplitudes
    if gate.kind is GateKind.HADAMARD:
        return PureState([(a + b) * _INV_SQRT2, (a - b) * _INV_SQRT2])
    return PureState([a, b * cmath.exp(1j * gate.angle)])


def run_circuit(circuit: Circuit, bindings: Mapping[str, float], state: PureState) -> PureState:
    """Bind free symbols and apply the circuit left to right."""
    out = state
    for gate in circuit.bind(bindings):
        out = apply_gate(gate, out)
    return out


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
# spinor constructors


class Orientation(Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class SpinorParams:
    """Angles on the sphere plus the chirality winding number of the carrier loop.

    theta is polar in [0, pi]; phi azimuthal; chi the extra winding angle that
    only shows up in the overall phase; mu the winding strength (1/2 for a
    fermionic spinor).
    """

    theta: float
    phi: float
    chi: float
    mu: float = 0.5

    def __post_init__(self) -> None:
        check_theta(self.theta)
        check_finite(self, "phi", "chi", "mu")


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
    c, s = math.cos(half), math.sin(half)
    if orientation is Orientation.UP:
        amps = [c, s * cmath.exp(-1j * params.phi)]
        phase = cmath.exp(0.5j * (params.phi - params.chi))
    else:
        amps = [s, c * cmath.exp(1j * params.phi)]
        phase = cmath.exp(-0.5j * (params.phi - params.chi))
    if include_overall_phase:
        amps = [a * phase for a in amps]
    return PureState(amps)
