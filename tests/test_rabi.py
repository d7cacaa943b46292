"""Resonant drive: closed-form rotation against a matrix-exponential oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinphase import (
    DomainError,
    evolve_coefficients,
    matched_echo_params,
    spin_echo_ledger,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def expm_route(c0, c1, omega, duration):
    """Independent propagator: exponentiate the traceless drive (omega / 2) sigma_x."""
    h = 0.5 * omega * SIGMA_X
    u = expm(1j * duration * h)
    out = u @ np.array([c0, c1])
    return complex(out[0]), complex(out[1])


class TestParams:
    def test_negative_duration_rejected(self):
        with pytest.raises(DomainError, match="^duration must be nonnegative$"):
            evolve_coefficients(1.0, 0.0, 1.0, -0.1)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError, match="^omega must be finite$"):
            evolve_coefficients(1.0, 0.0, math.nan, 1.0)
        with pytest.raises(DomainError, match="^duration must be finite$"):
            evolve_coefficients(1.0, 0.0, 1.0, math.inf)

    def test_drive_checked_before_coefficients(self):
        # omega, then duration, then the coefficients' norm
        with pytest.raises(DomainError, match="^omega must be finite$"):
            evolve_coefficients(1.0, 1.0, math.inf, -1.0)
        with pytest.raises(DomainError, match="^duration must be nonnegative$"):
            evolve_coefficients(1.0, 1.0, 1.0, -1.0)


class TestEvolve:
    def test_pi_pulse_inverts_ground_state(self):
        c0, c1 = evolve_coefficients(1.0, 0.0, 1.0, math.pi)
        assert c0 == pytest.approx(0.0, abs=1e-12)
        assert c1 == pytest.approx(1j, abs=1e-12)

    def test_half_pi_pulse_makes_equal_superposition(self):
        c0, c1 = evolve_coefficients(1.0, 0.0, 1.0, math.pi / 2)
        assert c0 == pytest.approx(SQRT_HALF, abs=1e-12)
        assert c1 == pytest.approx(1j * SQRT_HALF, abs=1e-12)

    def test_full_turn_flips_sign(self):
        # 2*pi of drive returns the state with the half-winding sign flip
        c0, c1 = evolve_coefficients(1.0, 0.0, 1.0, 2.0 * math.pi)
        assert c0 == pytest.approx(-1.0, abs=1e-12)
        assert c1 == pytest.approx(0.0, abs=1e-12)

    def test_double_turn_restores(self):
        c0, c1 = evolve_coefficients(1.0, 0.0, 1.0, 4.0 * math.pi)
        assert c0 == pytest.approx(1.0, abs=1e-12)
        assert c1 == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_coefficients_rejected(self):
        with pytest.raises(DomainError):
            evolve_coefficients(1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize(("omega", "t"), [(1e308, 1e10), (-1e308, 1e308), (4.0, 1e308)])
    def test_overflowing_rotation_angle_rejected(self, omega, t):
        # each flag is finite; omega*t/2 is not, and cos(inf) has no value
        with pytest.raises(DomainError, match=r"omega\*t/2 is not finite"):
            evolve_coefficients(1.0, 0.0, omega, t)

    def test_matches_matrix_exponential_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            drive = rng.uniform(0.1, 5.0), rng.uniform(0.0, 10.0)
            got = evolve_coefficients(complex(v[0]), complex(v[1]), *drive)
            want = expm_route(complex(v[0]), complex(v[1]), *drive)
            assert got[0] == pytest.approx(want[0], abs=1e-10)
            assert got[1] == pytest.approx(want[1], abs=1e-10)

    @given(st.floats(0.1, 5.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    @settings(max_examples=100)
    def test_composition_property(self, omega, t1, t2):
        a = evolve_coefficients(1.0, 0.0, omega, t1)
        b = evolve_coefficients(*a, omega, t2)
        direct = evolve_coefficients(1.0, 0.0, omega, t1 + t2)
        assert b[0] == pytest.approx(direct[0], abs=1e-9)
        assert b[1] == pytest.approx(direct[1], abs=1e-9)

    @given(st.floats(0.1, 5.0), st.floats(0.0, 50.0), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=100)
    def test_unitarity_property(self, omega, t, mix):
        c0, c1 = math.cos(mix), 1j * math.sin(mix)
        o0, o1 = evolve_coefficients(c0, c1, omega, t)
        assert abs(o0) ** 2 + abs(o1) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestSpinEcho:
    def test_matched_params_satisfy_both_matchings(self):
        phi, chi = matched_echo_params()
        assert 0.5 * (phi + chi) == pytest.approx(-math.pi / 2)
        assert 0.5 * (phi - chi) == pytest.approx(math.pi / 2)

    def test_matched_echo_cancels_dynamical_phase(self):
        geometric, dynamical = spin_echo_ledger(*matched_echo_params())
        assert dynamical == pytest.approx(0.0, abs=1e-12)
        assert abs(geometric) == pytest.approx(math.pi, abs=1e-12)

    def test_unmatched_echo_keeps_dynamical_phase(self):
        geometric, dynamical = spin_echo_ledger(0.4, -math.pi + 0.1)
        assert dynamical == pytest.approx(0.4, abs=1e-12)
        assert geometric == pytest.approx(-math.pi + 0.1, abs=1e-12)

    def test_overflowing_half_angles_rejected(self):
        # phi and chi are finite, (phi + chi)/2 overflows before the halving
        with pytest.raises(DomainError, match="angle must be finite"):
            spin_echo_ledger(1e308, 1e308)

    def test_angles_checked_first(self):
        with pytest.raises(DomainError, match="^phi must be finite$"):
            spin_echo_ledger(math.inf, math.nan)
        with pytest.raises(DomainError, match="^chi must be real$"):
            spin_echo_ledger(0.0, "1")

    @given(
        st.floats(-math.pi + 1e-9, math.pi - 1e-9),
        st.floats(-math.pi + 1e-9, math.pi - 1e-9),
    )
    @settings(max_examples=200)
    def test_split_recovers_azimuth_and_winding(self, phi, chi):
        # inside one branch the dynamical slot is exactly the azimuth phase
        # and the geometric slot exactly the winding angle
        geometric, dynamical = spin_echo_ledger(phi, chi)
        # two plain floats, not a float subclass or a wrapper
        assert {type(geometric), type(dynamical)} == {float}
        assert dynamical == pytest.approx(phi, abs=1e-12)
        assert geometric == pytest.approx(chi, abs=1e-12)
