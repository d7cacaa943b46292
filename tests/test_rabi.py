"""Resonant drive: closed-form rotation against a matrix-exponential oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinphase import (
    DomainError,
    PhaseLedger,
    PulseKind,
    PulseSpec,
    RabiParams,
    SpinorParams,
    apply_pulse,
    evolve_coefficients,
    hamiltonian_matrix,
    ket,
    matched_echo_params,
    pulse_ledger,
    spin_echo_ledger,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)
X_AXIS = (1.0, 0.0, 0.0)


def expm_route(c0, c1, params):
    """Independent propagator: exponentiate the traceless drive matrix."""
    h = hamiltonian_matrix(RabiParams(0.0, params.omega, params.duration), X_AXIS)
    u = expm(1j * params.duration * h)
    out = u @ np.array([c0, c1])
    return complex(out[0]), complex(out[1])


class TestParams:
    def test_negative_duration_rejected(self):
        with pytest.raises(DomainError):
            RabiParams(0.0, 1.0, -0.1)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            RabiParams(math.nan, 1.0, 1.0)


class TestEvolve:
    def test_pi_pulse_inverts_ground_state(self):
        c0, c1 = evolve_coefficients(1.0, 0.0, RabiParams(0.0, 1.0, math.pi))
        assert c0 == pytest.approx(0.0, abs=1e-12)
        assert c1 == pytest.approx(1j, abs=1e-12)

    def test_half_pi_pulse_makes_equal_superposition(self):
        c0, c1 = evolve_coefficients(1.0, 0.0, RabiParams(0.0, 1.0, math.pi / 2))
        assert c0 == pytest.approx(SQRT_HALF, abs=1e-12)
        assert c1 == pytest.approx(1j * SQRT_HALF, abs=1e-12)

    def test_full_turn_flips_sign(self):
        # 2*pi of drive returns the state with the half-winding sign flip
        c0, c1 = evolve_coefficients(1.0, 0.0, RabiParams(0.0, 1.0, 2.0 * math.pi))
        assert c0 == pytest.approx(-1.0, abs=1e-12)
        assert c1 == pytest.approx(0.0, abs=1e-12)

    def test_double_turn_restores(self):
        c0, c1 = evolve_coefficients(1.0, 0.0, RabiParams(0.0, 1.0, 4.0 * math.pi))
        assert c0 == pytest.approx(1.0, abs=1e-12)
        assert c1 == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_coefficients_rejected(self):
        with pytest.raises(DomainError):
            evolve_coefficients(1.0, 1.0, RabiParams(0.0, 1.0, 1.0))

    def test_matches_matrix_exponential_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            params = RabiParams(0.0, rng.uniform(0.1, 5.0), rng.uniform(0.0, 10.0))
            got = evolve_coefficients(complex(v[0]), complex(v[1]), params)
            want = expm_route(complex(v[0]), complex(v[1]), params)
            assert got[0] == pytest.approx(want[0], abs=1e-10)
            assert got[1] == pytest.approx(want[1], abs=1e-10)

    @given(st.floats(0.1, 5.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    @settings(max_examples=100)
    def test_composition_property(self, omega, t1, t2):
        a = evolve_coefficients(1.0, 0.0, RabiParams(0.0, omega, t1))
        b = evolve_coefficients(*a, RabiParams(0.0, omega, t2))
        direct = evolve_coefficients(1.0, 0.0, RabiParams(0.0, omega, t1 + t2))
        assert b[0] == pytest.approx(direct[0], abs=1e-9)
        assert b[1] == pytest.approx(direct[1], abs=1e-9)

    @given(st.floats(0.1, 5.0), st.floats(0.0, 50.0), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=100)
    def test_unitarity_property(self, omega, t, mix):
        c0, c1 = math.cos(mix), 1j * math.sin(mix)
        o0, o1 = evolve_coefficients(c0, c1, RabiParams(0.0, omega, t))
        assert abs(o0) ** 2 + abs(o1) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestHamiltonian:
    def test_frozen_x_drive(self):
        h = hamiltonian_matrix(RabiParams(2.0, 3.0, 1.0), X_AXIS)
        np.testing.assert_allclose(h, [[1.0, 1.5], [1.5, 1.0]], atol=1e-15)

    def test_hermitian_for_any_axis(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            h = hamiltonian_matrix(RabiParams(0.7, 1.3, 1.0), n)
            np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
            eig = np.linalg.eigvalsh(h)
            np.testing.assert_allclose(eig, [(0.7 - 1.3) / 2, (0.7 + 1.3) / 2], atol=1e-12)

    def test_direction_must_be_unit(self):
        with pytest.raises(DomainError):
            hamiltonian_matrix(RabiParams(0.0, 1.0, 1.0), (1.0, 1.0, 0.0))
        with pytest.raises(DomainError):
            hamiltonian_matrix(RabiParams(0.0, 1.0, 1.0), (1.0, 0.0))

    @pytest.mark.parametrize("direction", [
        np.array([0.8 + 0.6j, 0.0, 0.0]),
        [1j, 0, 0],
    ], ids=["complex-ndarray", "complex-list"])
    def test_non_real_direction_rejected(self, direction):
        # a unit-norm complex vector is no direction; its imaginary part must not be dropped
        with pytest.raises(DomainError, match="direction must be real"):
            hamiltonian_matrix(RabiParams(0.0, 1.0, 1.0), direction)

    def test_complex_typed_real_direction_accepted(self):
        params = RabiParams(0.5, 1.0, 1.0)
        np.testing.assert_array_equal(
            hamiltonian_matrix(params, [0.8 + 0j, 0.6, 0]),
            hamiltonian_matrix(params, [0.8, 0.6, 0.0]),
        )


class TestPulses:
    def test_pi_pulse_duration(self):
        p = PulseSpec.pi_pulse(omega=2.0)
        assert p.kind is PulseKind.PI
        assert p.params.duration == math.pi / 2.0

    def test_half_pi_pulse_duration(self):
        p = PulseSpec.half_pi_pulse(omega=2.0)
        assert p.params.duration == math.pi / 4.0

    def test_duration_mismatch_rejected(self):
        with pytest.raises(DomainError, match="duration"):
            PulseSpec(PulseKind.PI, RabiParams(0.0, 1.0, 3.0))

    def test_custom_is_unconstrained(self):
        PulseSpec.custom(RabiParams(0.0, 1.0, 3.0))

    def test_nonpositive_omega_rejected(self):
        with pytest.raises(DomainError):
            PulseSpec.pi_pulse(omega=0.0)

    def test_apply_pi_pulse(self):
        out = apply_pulse(ket("0"), PulseSpec.pi_pulse(omega=1.0))
        np.testing.assert_allclose(out.amplitudes, [0.0, 1j], atol=1e-12)

    def test_two_pi_pulses_echo_back(self):
        pulse = PulseSpec.pi_pulse(omega=1.0)
        out = apply_pulse(apply_pulse(ket("0"), pulse), pulse)
        np.testing.assert_allclose(out.amplitudes, [-1.0, 0.0], atol=1e-12)

    def test_two_qubit_state_rejected(self):
        with pytest.raises(DomainError):
            apply_pulse(ket("00"), PulseSpec.pi_pulse(omega=1.0))


class TestLedger:
    def test_total_must_balance(self):
        with pytest.raises(DomainError):
            PhaseLedger(1.0, 1.0, 3.0)

    def test_of_balances_exactly(self):
        ledger = PhaseLedger.of(0.3, -0.8)
        assert ledger.total == 0.3 + -0.8

    def test_identity_term_accrues_dynamical_phase_only(self):
        pulse = PulseSpec.pi_pulse(omega=1.0, omega0=2.0)
        ledger = pulse_ledger(pulse)
        assert ledger.geometric == 0.0
        assert ledger.dynamical == pytest.approx(-math.pi, abs=1e-12)

    def test_resonant_pulse_has_no_identity_phase(self):
        ledger = pulse_ledger(PulseSpec.pi_pulse(omega=1.0))
        assert ledger.total == 0.0


class TestSpinEcho:
    def test_matched_params_satisfy_both_matchings(self):
        p = matched_echo_params()
        assert p.theta == math.pi
        assert 0.5 * (p.phi + p.chi) == pytest.approx(-math.pi / 2)
        assert 0.5 * (p.phi - p.chi) == pytest.approx(math.pi / 2)

    def test_matched_echo_cancels_dynamical_phase(self):
        ledger = spin_echo_ledger(matched_echo_params())
        assert ledger.dynamical == pytest.approx(0.0, abs=1e-12)
        assert abs(ledger.geometric) == pytest.approx(math.pi, abs=1e-12)

    def test_unmatched_echo_keeps_dynamical_phase(self):
        ledger = spin_echo_ledger(SpinorParams(theta=math.pi, phi=0.4, chi=-math.pi + 0.1))
        assert ledger.dynamical == pytest.approx(0.4, abs=1e-12)
        assert ledger.geometric == pytest.approx(-math.pi + 0.1, abs=1e-12)

    @given(
        st.floats(-math.pi + 1e-9, math.pi - 1e-9),
        st.floats(-math.pi + 1e-9, math.pi - 1e-9),
    )
    @settings(max_examples=200)
    def test_split_recovers_azimuth_and_winding(self, phi, chi):
        # inside one branch the dynamical slot is exactly the azimuth phase
        # and the geometric slot exactly the winding angle
        ledger = spin_echo_ledger(SpinorParams(theta=math.pi, phi=phi, chi=chi))
        assert ledger.dynamical == pytest.approx(phi, abs=1e-12)
        assert ledger.geometric == pytest.approx(chi, abs=1e-12)
