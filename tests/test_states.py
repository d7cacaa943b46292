"""State container: validation, renormalization, products, phase comparison."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinphase import (
    BellCoefficients,
    BipartiteCoefficients,
    DomainError,
    PureState,
    RabiParams,
    equal_up_to_global_phase,
    evolve_coefficients,
    hamiltonian_matrix,
    inner_product,
    ket,
    tensor_product,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def random_amplitudes(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _state_norm(values):
    return np.linalg.norm(PureState(values).amplitudes)


def _bell_norm(values):
    c = BellCoefficients(*values)
    return np.linalg.norm([c.alpha, c.beta])


def _bipartite_norm(values):
    c = BipartiteCoefficients(*values)
    return np.linalg.norm([c.a_dd, c.a_du, c.a_ud, c.a_uu])


def _rabi_norm(values):
    # a zero-length pulse hands the renormalized coefficients straight back
    return np.linalg.norm(evolve_coefficients(*values, RabiParams(0.0, 1.0, 0.0)))


def _direction_norm(values):
    h = hamiltonian_matrix(RabiParams(0.0, 2.0, 1.0), values)  # h = n . sigma
    return np.linalg.norm([h[1, 0].real, h[1, 0].imag, h[0, 0].real])


# every caller of the one normalization contract, with a unit input vector
CONTRACT_SITES = {
    "state": (_state_norm, [0.6, 0.8j]),
    "bell": (_bell_norm, [0.6, 0.8j]),
    "bipartite": (_bipartite_norm, [0.5, 0.5j, -0.5, 0.5]),
    "rabi": (_rabi_norm, [0.6, 0.8j]),
    "direction": (_direction_norm, [0.48, 0.6, 0.64]),
}


@pytest.mark.parametrize("site", sorted(CONTRACT_SITES))
class TestNormalizationContract:
    @pytest.mark.parametrize("scale", [1.0 - 0.9e-6, 1.0 + 0.9e-6])
    def test_within_tolerance_renormalized(self, site, scale):
        norm_of, unit = CONTRACT_SITES[site]
        assert abs(norm_of([scale * v for v in unit]) - 1.0) <= 1e-15

    @pytest.mark.parametrize("scale", [1.0 - 1.1e-6, 1.0 + 1.1e-6])
    def test_beyond_tolerance_rejected(self, site, scale):
        norm_of, unit = CONTRACT_SITES[site]
        with pytest.raises(DomainError, match="not within 1e-06 of 1"):
            norm_of([scale * v for v in unit])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_component_rejected(self, site, bad):
        norm_of, unit = CONTRACT_SITES[site]
        for k in range(len(unit)):
            values = list(unit)
            values[k] = bad
            with pytest.raises(DomainError, match="must be finite"):
                norm_of(values)


class TestConstruction:
    def test_single_qubit_roundtrip(self):
        s = PureState(np.array([SQRT_HALF, SQRT_HALF * 1j]))
        assert s.num_qubits == 1
        np.testing.assert_allclose(s.amplitudes, [SQRT_HALF, SQRT_HALF * 1j])

    def test_two_qubit_roundtrip(self):
        s = PureState(np.array([0.0, -SQRT_HALF, SQRT_HALF, 0.0], dtype=complex))
        assert s.num_qubits == 2

    def test_norm_is_exactly_one_after_renormalization(self):
        s = PureState(np.array([1.0 + 2e-7, 0.0], dtype=complex))
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_norm_far_from_one_rejected(self):
        with pytest.raises(DomainError):
            PureState(np.array([1.1, 0.0], dtype=complex))
        with pytest.raises(DomainError):
            PureState(np.array([0.5, 0.0], dtype=complex))

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            PureState(np.zeros(2, dtype=complex))

    def test_bad_lengths_rejected(self):
        for n in (1, 3, 5, 8):
            v = np.zeros(n, dtype=complex)
            v[0] = 1.0
            with pytest.raises(DomainError):
                PureState(v)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            PureState(np.array([np.nan, 0.0], dtype=complex))
        with pytest.raises(DomainError):
            PureState(np.array([1.0, np.inf * 1j], dtype=complex))

    def test_amplitudes_not_writable(self):
        s = ket("0")
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    @given(st.floats(-1e-6 + 1e-9, 1e-6 - 1e-9))
    def test_norm_within_tolerance_accepted(self, eps):
        PureState(np.array([1.0 + eps, 0.0], dtype=complex))


class TestKet:
    def test_basis_labels(self):
        np.testing.assert_array_equal(ket("0").amplitudes, [1, 0])
        np.testing.assert_array_equal(ket("1").amplitudes, [0, 1])
        np.testing.assert_array_equal(ket("10").amplitudes, [0, 0, 1, 0])
        np.testing.assert_array_equal(ket("01").amplitudes, [0, 1, 0, 0])

    def test_first_factor_is_most_significant(self):
        left = ket("1")
        right = ket("0")
        np.testing.assert_array_equal(
            tensor_product(left, right).amplitudes, ket("10").amplitudes
        )

    def test_bad_labels(self):
        for label in ("", "2", "012", "abc"):
            with pytest.raises(DomainError):
                ket(label)


class TestInnerProduct:
    def test_conjugate_linear_in_first_argument(self):
        a = PureState(np.array([SQRT_HALF, SQRT_HALF * 1j]))
        b = ket("1")
        assert inner_product(a, b) == pytest.approx(-SQRT_HALF * 1j)
        assert inner_product(b, a) == pytest.approx(SQRT_HALF * 1j)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            inner_product(ket("0"), ket("00"))

    def test_unit_self_overlap_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = PureState(random_amplitudes(rng, 4))
            assert inner_product(s, s) == pytest.approx(1.0, abs=1e-12)


class TestTensorProduct:
    def test_kron_order(self):
        a = PureState(np.array([SQRT_HALF, SQRT_HALF], dtype=complex))
        b = ket("1")
        out = tensor_product(a, b).amplitudes
        np.testing.assert_allclose(out, [0, SQRT_HALF, 0, SQRT_HALF])

    def test_two_qubit_factors_rejected(self):
        with pytest.raises(DomainError):
            tensor_product(ket("00"), ket("0"))


class TestGlobalPhaseEquality:
    def test_detects_pure_phase(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            v = random_amplitudes(rng, 2)
            a = PureState(v)
            b = PureState(v * np.exp(1j * rng.uniform(-np.pi, np.pi)))
            assert equal_up_to_global_phase(a, b, 1e-10)

    def test_rejects_relative_phase(self):
        a = PureState(np.array([SQRT_HALF, SQRT_HALF], dtype=complex))
        b = PureState(np.array([SQRT_HALF, -SQRT_HALF], dtype=complex))
        assert not equal_up_to_global_phase(a, b, 1e-10)

    def test_orthogonal_states_differ(self):
        assert not equal_up_to_global_phase(ket("0"), ket("1"), 1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            equal_up_to_global_phase(ket("0"), ket("00"), 1e-10)

    @given(
        st.floats(0.0, math.pi),
        st.floats(-math.pi, math.pi),
        st.floats(-math.pi, math.pi),
    )
    def test_phase_invariance_property(self, theta, phi, gauge):
        v = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)])
        if np.linalg.norm(v) < 0.5:
            return
        a = PureState(v)
        b = PureState(v * np.exp(1j * gauge))
        assert equal_up_to_global_phase(a, b, 1e-10)
