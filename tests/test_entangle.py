"""Bell-state loop evolution, entanglement measures, and the strength flow."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphase import (
    DomainError,
    Orientation,
    PureState,
    concurrence_general,
    connection,
    entanglement_entropy,
    evolve_bell,
    ket,
    monopole_strength_rg,
    swap_expectation,
)
from spinphase.phases import monopole_strength_unclamped

SQRT_HALF = 1.0 / math.sqrt(2.0)
# the antisymmetric reference state (|1>|0> - |0>|1>)/sqrt(2)
SINGLET = PureState([0.0, -SQRT_HALF, SQRT_HALF, 0.0])
# the loop-angle form of the concurrence magnitude, (1 - cos theta)/2
loop_angle_form = partial(connection, Orientation.UP)

# binary entropy at (1 + sqrt(1 - C^2))/2, evaluated independently and frozen
FROZEN_ENTROPY = [
    (0.0, 0.0),
    (0.5, 0.35457890266527003),
    (math.sqrt(3) / 2, 0.8112781244591328),
    (0.8, 0.7219280948873624),
    (1.0, 1.0),
]


def random_qubit(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return PureState(v / np.linalg.norm(v))


def kron(a, b):
    """Two-qubit product state; the first factor is the most significant qubit."""
    return PureState([x * y for x in a.amplitudes for y in b.amplitudes])


class TestCoefficients:
    def test_equal_weight(self):
        # a loop moves only the phases of the weights
        state, _ = evolve_bell(SQRT_HALF, SQRT_HALF, 1.0)
        a = state.amplitudes
        assert abs(a[1]) == pytest.approx(SQRT_HALF)
        assert abs(a[2]) == pytest.approx(SQRT_HALF)

    def test_renormalizes_small_drift(self):
        state, _ = evolve_bell(SQRT_HALF * (1 + 1e-7), SQRT_HALF * (1 + 1e-7), 0.0)
        assert -state.amplitudes[1] == pytest.approx(SQRT_HALF, abs=1e-15)
        c = concurrence_general(0.0, -SQRT_HALF * (1 + 1e-7), SQRT_HALF * (1 + 1e-7), 0.0)
        assert abs(c) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        for theta in (1.0, 3.5):  # the coefficients are checked before theta
            with pytest.raises(DomainError, match="coefficients norm"):
                evolve_bell(1.0, 1.0, theta)
        with pytest.raises(DomainError, match="coefficients norm"):
            concurrence_general(1.0, 0.0, 0.0, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError, match="coefficients must be finite"):
            evolve_bell(complex(math.nan), complex(1.0), 1.0)
        with pytest.raises(DomainError, match="coefficients must be finite"):
            concurrence_general(complex(math.nan), 0.0, 0.0, 1.0)

    def test_bipartite_from_state_ordering(self):
        # a state's amplitudes in |00>, |01>, |10>, |11> order: the sign of
        # C = 2 (a00 a11 - a01 a10) tells the outer pair from the inner
        outer = PureState([SQRT_HALF, 0.0, 0.0, SQRT_HALF])
        inner = PureState([0.0, SQRT_HALF, SQRT_HALF, 0.0])
        assert concurrence_general(*outer.amplitudes) == pytest.approx(1.0, abs=1e-15)
        assert concurrence_general(*inner.amplitudes) == pytest.approx(-1.0, abs=1e-15)
        assert concurrence_general(*ket("01").amplitudes) == 0.0


class TestSinglet:
    def test_amplitudes(self):
        # the reference state is (ket("10") - ket("01"))/sqrt(2)
        up_down, down_up = ket("10").amplitudes, ket("01").amplitudes
        want = [SQRT_HALF * (x - y) for x, y in zip(up_down, down_up)]
        np.testing.assert_allclose(SINGLET.amplitudes, want, atol=1e-15)

    def test_maximally_entangled(self):
        assert abs(concurrence_general(*SINGLET.amplitudes)) == pytest.approx(1.0, abs=1e-12)
        assert entanglement_entropy(1.0) == 1.0

    def test_antisymmetric_under_swap(self):
        assert swap_expectation(SINGLET) == pytest.approx(-1.0, abs=1e-12)


class TestEvolveBell:
    def test_trivial_loop_returns_singlet(self):
        state, rel = evolve_bell(SQRT_HALF, SQRT_HALF, 0.0)
        np.testing.assert_allclose(
            state.amplitudes, SINGLET.amplitudes, atol=1e-12
        )
        assert rel == pytest.approx(0.0, abs=1e-12)

    def test_quarter_loop_symmetrizes(self):
        # at theta = pi/3 the residual phase is pi: the state turns symmetric
        state, rel = evolve_bell(SQRT_HALF, SQRT_HALF, math.pi / 3)
        assert rel == pytest.approx(math.pi, abs=1e-12)
        assert swap_expectation(state) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            state.amplitudes, [0.0, -SQRT_HALF, -SQRT_HALF, 0.0], atol=1e-12
        )

    def test_full_solid_angle_restores_antisymmetry(self):
        state, rel = evolve_bell(SQRT_HALF, SQRT_HALF, math.pi)
        assert rel == pytest.approx(0.0, abs=1e-12)
        assert swap_expectation(state) == pytest.approx(-1.0, abs=1e-12)

    def test_residual_phase_equals_twice_up_phase(self):
        from spinphase import berry_phase_analytic
        from spinphase._angles import mod_two_pi

        for theta in (0.3, 1.0, 2.5):
            _, rel = evolve_bell(SQRT_HALF, SQRT_HALF, theta)
            gamma_up = berry_phase_analytic(Orientation.UP, theta).value
            assert rel == pytest.approx(mod_two_pi(2.0 * gamma_up), abs=1e-12)

    @given(st.floats(0.0, math.pi))
    @settings(max_examples=150)
    def test_swap_follows_cosine_of_relative_phase(self, theta):
        state, _ = evolve_bell(SQRT_HALF, SQRT_HALF, theta)
        gamma_up = math.pi * (1.0 - math.cos(theta))
        assert swap_expectation(state) == pytest.approx(
            -math.cos(2.0 * gamma_up), abs=1e-9
        )

    @given(st.floats(0.0, math.pi), st.floats(0.05, 1.5), st.floats(-3.0, 3.0))
    @settings(max_examples=150)
    def test_loop_preserves_entanglement(self, theta, weight, phase):
        alpha = complex(math.cos(weight))
        beta = math.sin(weight) * complex(math.cos(phase), math.sin(phase))
        before = abs(concurrence_general(0.0, -beta, alpha, 0.0))
        state, _ = evolve_bell(alpha, beta, theta)
        after = abs(concurrence_general(*state.amplitudes))
        assert after == pytest.approx(before, abs=1e-12)

    def test_theta_domain(self):
        with pytest.raises(DomainError, match=r"out of \[0, pi\]"):
            evolve_bell(SQRT_HALF, SQRT_HALF, 3.5)


class TestSwapExpectation:
    def test_product_basis_states(self):
        assert swap_expectation(ket("00")) == 1.0
        assert swap_expectation(ket("11")) == 1.0
        assert swap_expectation(ket("01")) == 0.0

    def test_triplet_is_symmetric(self):
        triplet = PureState([0.0, SQRT_HALF, SQRT_HALF, 0.0])
        assert swap_expectation(triplet) == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_rejected(self):
        with pytest.raises(DomainError):
            swap_expectation(ket("0"))

    @given(st.floats(-math.pi, math.pi))
    def test_range_property(self, mix):
        state = PureState([0.0, math.cos(mix / 2), math.sin(mix / 2), 0.0])
        assert -1.0 - 1e-12 <= swap_expectation(state) <= 1.0 + 1e-12


class TestConcurrence:
    def test_product_states_have_zero_concurrence(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            state = kron(random_qubit(rng), random_qubit(rng))
            c = concurrence_general(*state.amplitudes)
            assert abs(c) == pytest.approx(0.0, abs=1e-12)

    def test_magnitude_bounded_by_one(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            state = PureState(v / np.linalg.norm(v))
            c = concurrence_general(*state.amplitudes)
            assert abs(c) <= 1.0 + 1e-12

    def test_loop_angle_form_checkpoints(self):
        assert loop_angle_form(0.0) == pytest.approx(0.0, abs=1e-15)
        assert loop_angle_form(math.pi / 2) == pytest.approx(0.5, abs=1e-15)
        assert loop_angle_form(math.pi) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(0.0, math.pi))
    @settings(max_examples=150)
    def test_loop_angle_form_matches_general_route(self, theta):
        # witness family with a_dd = a_uu = sin(theta/2)/sqrt(2), a_du = cos(theta/2):
        # the general determinant form lands exactly on (1 - cos theta)/2
        s = math.sin(theta / 2.0)
        c = math.cos(theta / 2.0)
        general = abs(concurrence_general(s * SQRT_HALF, c, 0.0, s * SQRT_HALF))
        assert general == pytest.approx(loop_angle_form(theta), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            loop_angle_form(-0.5)


class TestEntropy:
    @pytest.mark.parametrize("conc,entropy", FROZEN_ENTROPY)
    def test_frozen_values(self, conc, entropy):
        assert entanglement_entropy(conc) == pytest.approx(entropy, abs=1e-12)

    def test_domain_enforced(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(DomainError, match="concurrence magnitude"):
                entanglement_entropy(bad)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=150)
    def test_monotone_in_concurrence(self, c1, c2):
        lo, hi = sorted((c1, c2))
        assert entanglement_entropy(lo) <= entanglement_entropy(hi) + 1e-12

    def test_endpoints_exact(self):
        assert entanglement_entropy(0.0) == 0.0
        assert entanglement_entropy(1.0) == 1.0


class TestStrengthFlow:
    def test_validation(self):
        for flow in (monopole_strength_rg, monopole_strength_unclamped):
            with pytest.raises(DomainError, match="nonnegative"):
                flow(-1.0, 0.0, 1.0)
            with pytest.raises(DomainError, match="positive"):
                flow(1.0, 0.0, 0.0)
            with pytest.raises(DomainError, match="positive"):
                flow(1.0, 0.0, -2.0)
            # a, c and separation finite, then a >= 0, then separation > 0
            with pytest.raises(DomainError, match="^c must be finite$"):
                flow(-1.0, math.nan, -1.0)
            with pytest.raises(DomainError, match="^separation must be real$"):
                flow(-1.0, 0.0, "1")
            with pytest.raises(DomainError, match="^decay rate a must be nonnegative$"):
                flow(-1.0, 0.0, -1.0)

    def test_overflow(self):
        # finite inputs: +inf is an error naming the inputs, -inf clamps to 0
        for flow in (monopole_strength_rg, monopole_strength_unclamped):
            with pytest.raises(DomainError, match=r"^flow -a\*ln\(separation\) \+ c overflows$"):
                flow(1e308, 0.0, 1e-310)
        assert monopole_strength_unclamped(1e308, 0.0, 1e300) == -math.inf
        assert monopole_strength_rg(1e308, 0.0, 1e300) == 0.0

    def test_frozen_values(self):
        assert monopole_strength_rg(1.0, 0.0, 1.0) == 0.0
        assert monopole_strength_rg(0.3, 1.0, 2.0) == pytest.approx(
            1.0 - 0.3 * math.log(2.0), abs=1e-15
        )

    def test_clamped_at_zero(self):
        assert monopole_strength_rg(2.0, 0.1, 10.0) == 0.0

    def test_zero_rate_freezes_the_flow(self):
        for sep in (0.5, 1.0, 7.0):
            assert monopole_strength_rg(0.0, 0.8, sep) == 0.8

    def test_crossing_point(self):
        assert monopole_strength_rg(1.0, math.log(2.0), 2.0) == 0.0
        assert monopole_strength_rg(1.0, math.log(2.0), 1.9) > 0.0

    def test_unclamped_flow_keeps_its_sign(self):
        assert monopole_strength_unclamped(1.0, math.log(2.0), 2.0) == 0.0
        assert monopole_strength_unclamped(2.0, 0.1, 10.0) == pytest.approx(
            0.1 - 2.0 * math.log(10.0), abs=1e-15)
        assert monopole_strength_unclamped(0.3, 1.0, 2.0) == monopole_strength_rg(0.3, 1.0, 2.0)

    @given(st.floats(0.0, 5.0), st.floats(-5.0, 5.0),
           st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    @settings(max_examples=200)
    def test_nonincreasing_in_separation(self, a, c, s1, s2):
        lo, hi = sorted((s1, s2))
        assert monopole_strength_rg(a, c, hi) <= monopole_strength_rg(a, c, lo) + 1e-12

    @given(st.floats(0.0, 5.0), st.floats(-5.0, 5.0), st.floats(0.01, 100.0))
    def test_never_negative(self, a, c, sep):
        assert monopole_strength_rg(a, c, sep) >= 0.0
