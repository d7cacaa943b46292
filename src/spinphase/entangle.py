"""Bell-state evolution under spinor loops, entanglement measures, and the
renormalization flow of the monopole strength.

The antisymmetric reference state is (|1>|0> - |0>|1>)/sqrt(2); its alpha term
lives on |10> and its beta term on |01>.  One closed spinor loop multiplies
those terms by e^{i gamma_up} and e^{i gamma_down}; dropping the common factor
leaves the residual relative phase 2 gamma_up (mod 2*pi) on the alpha term.
"""

from __future__ import annotations

import cmath
import math

from ._angles import Frozen, check_finite, check_theta, mod_two_pi
from .errors import DomainError
from .phases import Orientation, berry_phase_analytic
from .states import PureState, unit_vector

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class BellCoefficients(Frozen):
    """Weights of the antisymmetric combination alpha |10> - beta |01>, held at unit norm."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: complex, beta: complex) -> None:
        alpha, beta = unit_vector([alpha, beta], "coefficients")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def equal_weight(cls) -> "BellCoefficients":
        return cls(complex(_SQRT_HALF), complex(_SQRT_HALF))


class BipartiteCoefficients(Frozen):
    """General two-spin amplitudes in the (down-down, down-up, up-down, up-up) order,
    held at unit norm."""

    __slots__ = ("a_dd", "a_du", "a_ud", "a_uu")

    def __init__(self, a_dd: complex, a_du: complex, a_ud: complex, a_uu: complex) -> None:
        a_dd, a_du, a_ud, a_uu = unit_vector([a_dd, a_du, a_ud, a_uu], "coefficients")
        object.__setattr__(self, "a_dd", a_dd)
        object.__setattr__(self, "a_du", a_du)
        object.__setattr__(self, "a_ud", a_ud)
        object.__setattr__(self, "a_uu", a_uu)

    @classmethod
    def from_state(cls, state: PureState) -> "BipartiteCoefficients":
        if state.num_qubits != 2:
            raise DomainError("bipartite coefficients need a two-qubit state")
        return cls(*state.amplitudes)


class RgFlowParams(Frozen):
    """Flow inputs: decay rate a >= 0, integration constant c, length scale."""

    __slots__ = ("a", "c", "separation")

    def __init__(self, a: float, c: float, separation: float) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "separation", separation)
        check_finite(self, "a", "c", "separation")
        if self.a < 0.0:
            raise DomainError("decay rate a must be nonnegative")
        if self.separation <= 0.0:
            raise DomainError("separation must be positive")


def bell_singlet_qubits() -> PureState:
    """The antisymmetric reference state (|1>|0> - |0>|1>)/sqrt(2)."""
    return PureState([0.0, -_SQRT_HALF, _SQRT_HALF, 0.0])


def evolve_bell(coeffs: BellCoefficients, theta: float) -> tuple[PureState, float]:
    """Apply one closed spinor loop at polar angle theta to the Bell weights.

    The alpha (|10>) term picks up e^{i gamma_up}, the beta (|01>) term
    e^{i gamma_down}; the common phase e^{i gamma_down} is dropped.  Returns
    the evolved state and the residual relative phase 2 gamma_up mod 2*pi
    (equal to gamma_up - gamma_down mod 2*pi, since the two phases sum to 2*pi).
    """
    check_theta(theta)
    gamma_up = berry_phase_analytic(Orientation.UP, theta).value
    gamma_down = berry_phase_analytic(Orientation.DOWN, theta).value
    residual = cmath.exp(1j * (gamma_up - gamma_down))
    state = PureState([0.0, -coeffs.beta, residual * coeffs.alpha, 0.0])
    return state, mod_two_pi(2.0 * gamma_up)


def swap_expectation(state: PureState) -> float:
    """<s|SWAP|s> in [-1, 1]: +1 flags a symmetric state, -1 an antisymmetric one."""
    if state.num_qubits != 2:
        raise DomainError("swap expectation needs a two-qubit state")
    a = state.amplitudes
    return abs(a[0]) ** 2 + abs(a[3]) ** 2 + 2.0 * (a[1].conjugate() * a[2]).real


def concurrence_general(coeffs: BipartiteCoefficients) -> complex:
    """Concurrence 2 (a_dd a_uu - a_du a_ud) of a general two-spin pure state."""
    return 2.0 * (coeffs.a_dd * coeffs.a_uu - coeffs.a_du * coeffs.a_ud)


def concurrence_from_theta(theta: float) -> float:
    """Asserted loop-angle form of the concurrence magnitude, (1 - cos theta)/2.

    This is the anisotropy measure of the UP spinor; it is kept separate from
    concurrence_general so the two routes can be compared rather than conflated.
    """
    check_theta(theta)
    return 0.5 * (1.0 - math.cos(theta))


def entanglement_entropy(concurrence_norm: float) -> float:
    """Entropy of formation in bits as a function of the concurrence magnitude.

    Evaluates the binary entropy at (1 + sqrt(1 - C^2))/2; 0 at C = 0
    (product state) and 1 bit at C = 1 (maximal entanglement).
    """
    if not math.isfinite(concurrence_norm) or not 0.0 <= concurrence_norm <= 1.0:
        raise DomainError("concurrence magnitude out of [0, 1]")
    x = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - concurrence_norm**2)))
    if x <= 0.0 or x >= 1.0:
        return 0.0  # binary entropy vanishes at both endpoints by continuity
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def monopole_strength_unclamped(params: RgFlowParams) -> float:
    """The flow mu(L) = -a ln(L) + c itself, negative past its zero crossing."""
    return -params.a * math.log(params.separation) + params.c


def monopole_strength_rg(params: RgFlowParams) -> float:
    """Monopole strength mu(L) = -a ln(L) + c, clamped at zero from below.

    The linear-in-ln(L) flow crosses zero at large separation; the physical
    strength is reported as max(0, .) since mu only tends to zero there.
    """
    return max(0.0, monopole_strength_unclamped(params))
