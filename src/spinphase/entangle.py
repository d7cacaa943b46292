"""Bell-state evolution under spinor loops, and entanglement measures of
two-qubit states.

The antisymmetric reference state is (|1>|0> - |0>|1>)/sqrt(2); its alpha term
lives on |10> and its beta term on |01>.  One closed spinor loop multiplies
those terms by e^{i gamma_up} and e^{i gamma_down}; dropping the common factor
leaves the residual relative phase 2 gamma_up (mod 2*pi) on the alpha term.
"""

from __future__ import annotations

import cmath
import math

from ._angles import check_real, mod_two_pi
from .errors import DomainError
from .phases import Orientation, berry_phase_analytic
from .states import PureState, unit_vector


def evolve_bell(alpha: complex, beta: complex, theta: float) -> tuple[PureState, float]:
    """Apply one closed spinor loop at polar angle theta to the Bell weights
    alpha |10> - beta |01>, held at unit norm.

    The alpha (|10>) term picks up e^{i gamma_up}, the beta (|01>) term
    e^{i gamma_down}; the common phase e^{i gamma_down} is dropped.  Returns
    the evolved state and the residual relative phase 2 gamma_up mod 2*pi
    (equal to gamma_up - gamma_down mod 2*pi, since the two phases sum to 2*pi).
    """
    alpha, beta = unit_vector([alpha, beta], "coefficients")
    gamma_up = berry_phase_analytic(Orientation.UP, theta)
    gamma_down = berry_phase_analytic(Orientation.DOWN, theta)
    residual = cmath.exp(1j * (gamma_up - gamma_down))
    state = PureState([0.0, -beta, residual * alpha, 0.0])
    return state, mod_two_pi(2.0 * gamma_up)


def swap_expectation(state: PureState) -> float:
    """<s|SWAP|s> in [-1, 1]: +1 flags a symmetric state, -1 an antisymmetric one."""
    if state.num_qubits != 2:
        raise DomainError("swap expectation needs a two-qubit state")
    a = state.amplitudes
    return abs(a[0]) ** 2 + abs(a[3]) ** 2 + 2.0 * (a[1].conjugate() * a[2]).real


def concurrence_general(a00: complex, a01: complex, a10: complex, a11: complex) -> complex:
    """Concurrence 2 (a00 a11 - a01 a10) of a general two-spin pure state.

    The amplitudes are held at unit norm, so a state's own amplitudes
    (``*state.amplitudes``) are normalized again, which can move the last bits
    of the concurrence.
    """
    a00, a01, a10, a11 = unit_vector([a00, a01, a10, a11], "coefficients")
    return 2.0 * (a00 * a11 - a01 * a10)


def entanglement_entropy(concurrence_norm: float) -> float:
    """Entropy of formation in bits as a function of the concurrence magnitude.

    Evaluates the binary entropy at (1 + sqrt(1 - C^2))/2; 0 at C = 0
    (product state) and 1 bit at C = 1 (maximal entanglement).
    """
    check_real("concurrence magnitude", concurrence_norm)
    if not 0.0 <= concurrence_norm <= 1.0:
        raise DomainError("concurrence magnitude out of [0, 1]")
    x = 0.5 * (1.0 + math.sqrt(1.0 - concurrence_norm**2))  # in [1/2, 1]: C <= 1 gives C^2 <= 1
    if x >= 1.0:
        return 0.0  # the binary entropy vanishes at x = 1 by continuity
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))

