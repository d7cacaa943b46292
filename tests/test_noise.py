"""First-order polar-angle noise on connections and loop phases."""

import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphase import (
    DomainError,
    Orientation,
    berry_phase_analytic,
    entangled_noise_shift,
    noisy_phase,
    post_echo_noise_shift,
)

TWO_PI = 2.0 * math.pi

small_shift = st.floats(-0.1, 0.1)
theta_range = st.floats(0.0, math.pi)


# every entry point, as f(theta, delta_theta)
SHIFTS = {
    "noisy_phase-up": partial(noisy_phase, Orientation.UP),
    "noisy_phase-down": partial(noisy_phase, Orientation.DOWN),
    "entangled_noise_shift": entangled_noise_shift,
    "post_echo_noise_shift": post_echo_noise_shift,
}


@pytest.mark.parametrize("shift", SHIFTS.values(), ids=SHIFTS.keys())
class TestShiftBound:
    def test_boundary_allowed(self, shift):
        shift(1.0, 0.5)
        shift(1.0, -0.5)

    def test_large_shift_rejected(self, shift):
        with pytest.raises(DomainError, match=r"^\|delta_theta\| above 0.5 leaves the "
                           "small-perturbation regime$"):
            shift(1.0, 0.51)

    def test_nonfinite_rejected(self, shift):
        with pytest.raises(DomainError, match="^delta_theta must be finite$"):
            shift(1.0, math.inf)

    def test_shift_checked_before_theta(self, shift):
        with pytest.raises(DomainError, match="small-perturbation"):
            shift(-1.0, 0.9)
        with pytest.raises(DomainError, match="^delta_theta must be real$"):
            shift(None, "0.1")


class TestPerturbedConnection:
    """The loop phase is 2 pi times the tilted connection (1 -+ cos theta +- sin theta d)/2."""

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, math.pi / 2, 2.2, math.pi])
    @pytest.mark.parametrize("d", [-0.5, -0.013, 0.0, 3e-05, 0.2, 0.5])
    def test_phase_is_exactly_two_pi_times_connection(self, theta, d):
        # bit for bit: 2 pi times half of (...) rounds as pi times (...) does
        tilt = math.sin(theta) * d
        up, up_shift = noisy_phase(Orientation.UP, theta, d)
        down, down_shift = noisy_phase(Orientation.DOWN, theta, d)
        # closed forms return plain floats, not a float subclass or a wrapper
        assert {type(up), type(up_shift), type(down), type(down_shift)} == {float}
        assert up == math.pi * (1.0 - math.cos(theta) + tilt)
        assert down == math.pi * (1.0 + math.cos(theta) - tilt)

    def test_frozen_values_at_equator(self):
        up, _ = noisy_phase(Orientation.UP, math.pi / 2, 0.01)
        down, _ = noisy_phase(Orientation.DOWN, math.pi / 2, 0.01)
        assert up / TWO_PI == pytest.approx(0.505, abs=1e-15)
        assert down / TWO_PI == pytest.approx(0.495, abs=1e-15)

    def test_zero_shift_recovers_clean_connection(self):
        for orientation in (Orientation.UP, Orientation.DOWN):
            for theta in (0.0, 0.7, math.pi / 2, 2.9, math.pi):
                gamma, shift = noisy_phase(orientation, theta, 0.0)
                assert gamma == berry_phase_analytic(orientation, theta)
                assert shift == 0.0

    @given(theta_range, small_shift)
    @settings(max_examples=200)
    def test_pair_still_sums_to_one(self, theta, d):
        # the connection is the loop phase over 2 pi
        total = (noisy_phase(Orientation.UP, theta, d)[0]
                 + noisy_phase(Orientation.DOWN, theta, d)[0]) / TWO_PI
        assert total == pytest.approx(1.0, abs=1e-12)


class TestNoisyPhase:
    def test_frozen_equator_value(self):
        gamma, shift = noisy_phase(Orientation.UP, math.pi / 2, 0.01)
        assert gamma == pytest.approx(1.01 * math.pi, abs=1e-12)
        assert shift == pytest.approx(0.01 * math.pi, abs=1e-12)

    def test_down_shift_has_opposite_sign(self):
        _, up_shift = noisy_phase(Orientation.UP, 0.8, 0.02)
        _, down_shift = noisy_phase(Orientation.DOWN, 0.8, 0.02)
        assert down_shift == -up_shift

    @given(theta_range, small_shift)
    @settings(max_examples=300)
    def test_pair_sums_to_two_pi(self, theta, d):
        up_val = noisy_phase(Orientation.UP, theta, d)[0]
        down_val = noisy_phase(Orientation.DOWN, theta, d)[0]
        assert up_val + down_val == pytest.approx(TWO_PI, abs=1e-12)

    @given(st.floats(0.0, math.pi - 0.1), st.floats(0.0, 0.1))
    @settings(max_examples=300)
    def test_first_order_accuracy(self, theta, d):
        # the linearized phase must track the exact phase at the shifted angle
        # to second order: |error| <= pi d^2 / 2
        noisy = noisy_phase(Orientation.UP, theta, d)[0]
        exact = berry_phase_analytic(Orientation.UP, theta + d)
        assert abs(noisy - exact) <= 0.5 * math.pi * d * d + 1e-12

    def test_shift_vanishes_at_poles(self):
        for theta in (0.0, math.pi):
            _, shift = noisy_phase(Orientation.UP, theta, 0.3)
            assert shift == pytest.approx(0.0, abs=1e-15)

    def test_theta_domain(self):
        with pytest.raises(DomainError, match=r"out of \[0, pi\]"):
            noisy_phase(Orientation.UP, -1.0, 0.01)


class TestEntangledShift:
    def test_exactly_twice_the_single_shift(self):
        for theta in (0.1, 0.7, 1.9, 3.0):
            for d in (-0.3, -0.01, 0.02, 0.4):
                single = noisy_phase(Orientation.UP, theta, d)[1]
                assert entangled_noise_shift(theta, d) == 2.0 * single

    def test_frozen_value(self):
        assert entangled_noise_shift(math.pi / 2, 0.01) == pytest.approx(
            0.02 * math.pi, abs=1e-15
        )

    @given(theta_range, small_shift)
    @settings(max_examples=200)
    def test_doubling_property(self, theta, d):
        single = math.pi * math.sin(theta) * d
        assert entangled_noise_shift(theta, d) == 2.0 * single


class TestPostEchoShift:
    def test_single_residual_term(self):
        for theta in (0.3, 1.2, 2.8):
            d = 0.05
            assert post_echo_noise_shift(theta, d) == (
                math.pi * math.sin(theta) * d
            )

    def test_smaller_than_entangled_exposure(self):
        theta, d = 1.1, 0.04
        assert abs(post_echo_noise_shift(theta, d)) < abs(
            entangled_noise_shift(theta, d)
        )

