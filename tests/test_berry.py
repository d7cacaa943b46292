"""Analytic loop phases against the discrete transport oracle.

The numeric side never reuses the closed forms: it transports gauge-fixed
states segment by segment and accumulates overlap arguments, so agreement is
evidence, not tautology.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphase import (
    DegeneratePathError,
    DomainError,
    GeometricPhase,
    Orientation,
    PhaseConvention,
    PureState,
    SpinorParams,
    berry_phase_analytic,
    berry_phase_entangled,
    connection,
    entangled_family_loop,
    holonomy_numeric,
    ket,
    prepare_spinor,
    spinor_loop,
    winding_phase,
)
from spinphase import berry

TWO_PI = 2.0 * math.pi

# loop phases at hand-checked angles: (theta, up value, down value)
FROZEN_PHASES = [
    (0.0, 0.0, TWO_PI),
    (math.pi / 3, math.pi / 2, 3.0 * math.pi / 2),
    (math.pi / 2, math.pi, math.pi),
    (2.0 * math.pi / 3, 3.0 * math.pi / 2, math.pi / 2),
    (math.pi, TWO_PI, 0.0),
]


class TestPhaseContainer:
    def test_raw_keeps_value(self):
        gp = GeometricPhase.raw(TWO_PI)
        assert gp.value == TWO_PI
        assert gp.convention is PhaseConvention.RAW

    def test_raw_zero_and_two_pi_stay_distinct(self):
        assert GeometricPhase.raw(0.0).value != GeometricPhase.raw(TWO_PI).value
        assert GeometricPhase.raw(TWO_PI).mod_2pi() == 0.0

    def test_wrapped_reduces(self):
        assert GeometricPhase.wrapped(-math.pi).value == pytest.approx(math.pi)
        assert GeometricPhase.wrapped(5.0 * math.pi).value == pytest.approx(math.pi)

    def test_wrapped_range_enforced(self):
        with pytest.raises(DomainError):
            GeometricPhase(TWO_PI, PhaseConvention.MOD_2PI)
        with pytest.raises(DomainError):
            GeometricPhase(-0.1, PhaseConvention.MOD_2PI)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            GeometricPhase.raw(math.inf)


class TestWindingPhase:
    def test_half_winding_full_turn_flips_sign(self):
        assert winding_phase(0.5, TWO_PI) == pytest.approx(-1.0)

    def test_integer_winding_full_turn_is_trivial(self):
        assert winding_phase(1.0, TWO_PI) == pytest.approx(1.0)

    def test_half_winding_double_turn_restores(self):
        assert winding_phase(0.5, 2.0 * TWO_PI) == pytest.approx(1.0)

    @given(st.floats(-5.0, 5.0), st.floats(-20.0, 20.0))
    def test_unit_modulus(self, mu, dchi):
        assert abs(winding_phase(mu, dchi)) == pytest.approx(1.0, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            winding_phase(math.nan, 1.0)


class TestConnection:
    @pytest.mark.parametrize("theta,up_value", [
        (0.0, 0.0),
        (math.pi / 2, 0.5),
        (math.pi, 1.0),
    ])
    def test_up_values(self, theta, up_value):
        assert connection(Orientation.UP, theta) == pytest.approx(up_value, abs=1e-15)

    @given(st.floats(0.0, math.pi))
    def test_up_down_sum_to_one(self, theta):
        total = connection(Orientation.UP, theta) + connection(Orientation.DOWN, theta)
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError, match=r"out of \[0, pi\]"):
            connection(Orientation.UP, -0.1)


class TestAnalyticPhases:
    @pytest.mark.parametrize("theta,up_value,down_value", FROZEN_PHASES)
    def test_frozen_values(self, theta, up_value, down_value):
        assert berry_phase_analytic(Orientation.UP, theta).value == pytest.approx(
            up_value, abs=1e-12
        )
        assert berry_phase_analytic(Orientation.DOWN, theta).value == pytest.approx(
            down_value, abs=1e-12
        )

    def test_raw_convention(self):
        gp = berry_phase_analytic(Orientation.UP, math.pi)
        assert gp.convention is PhaseConvention.RAW
        assert gp.value == pytest.approx(TWO_PI)

    @given(st.floats(0.0, math.pi))
    @settings(max_examples=200)
    def test_pair_sums_to_two_pi(self, theta):
        up = berry_phase_analytic(Orientation.UP, theta).value
        down = berry_phase_analytic(Orientation.DOWN, theta).value
        assert up + down == pytest.approx(TWO_PI, abs=1e-12)

    @given(st.floats(0.0, math.pi))
    def test_monotone_in_solid_angle(self, theta):
        # the up phase grows with the enclosed solid angle
        eps = 1e-6
        if theta + eps > math.pi:
            return
        lo = berry_phase_analytic(Orientation.UP, theta).value
        hi = berry_phase_analytic(Orientation.UP, theta + eps).value
        assert hi >= lo

    def test_entangled_checkpoints(self):
        assert berry_phase_entangled(0.0).value == pytest.approx(TWO_PI, abs=1e-12)
        assert berry_phase_entangled(math.pi / 2).value == pytest.approx(0.0, abs=1e-12)
        assert berry_phase_entangled(math.pi).value == pytest.approx(TWO_PI, abs=1e-12)

    @given(st.floats(0.0, math.pi))
    def test_entangled_range(self, theta):
        v = berry_phase_entangled(theta).value
        assert 0.0 <= v <= TWO_PI + 1e-12


class TestHolonomyOracle:
    def test_loop_phase_matches_analytic_up(self):
        theta = 1.1
        got = holonomy_numeric(spinor_loop(Orientation.UP, theta, 4000))
        want = berry_phase_analytic(Orientation.UP, theta).mod_2pi()
        assert got.value == pytest.approx(want, abs=1e-6)

    def test_loop_phase_matches_analytic_down(self):
        theta = 2.0
        got = holonomy_numeric(spinor_loop(Orientation.DOWN, theta, 4000))
        want = berry_phase_analytic(Orientation.DOWN, theta).mod_2pi()
        assert got.value == pytest.approx(want, abs=1e-6)

    def test_convergence_improves_with_segments(self):
        theta = 0.8
        want = berry_phase_analytic(Orientation.UP, theta).mod_2pi()
        coarse = abs(holonomy_numeric(spinor_loop(Orientation.UP, theta, 50)).value - want)
        fine = abs(holonomy_numeric(spinor_loop(Orientation.UP, theta, 5000)).value - want)
        assert fine < coarse / 100.0

    def test_gauge_invariance_under_per_point_rephasing(self):
        rng = np.random.default_rng(42)
        loop = spinor_loop(Orientation.UP, 1.3, 500)
        base = holonomy_numeric(loop).value
        phases = rng.uniform(-math.pi, math.pi, size=len(loop))
        phases[-1] = phases[0]  # keep the loop closed
        rephased = [
            PureState(s.amplitudes * np.exp(1j * p)) for s, p in zip(loop, phases)
        ]
        assert holonomy_numeric(rephased).value == pytest.approx(base, abs=1e-9)

    def test_open_path_rejected(self):
        loop = spinor_loop(Orientation.UP, 1.0, 100)
        with pytest.raises(DomainError, match="open path"):
            holonomy_numeric(loop[:-1])

    def test_orthogonal_consecutive_states_rejected(self):
        path = [ket("0"), ket("1"), ket("0")]
        with pytest.raises(DegeneratePathError):
            holonomy_numeric(path)

    def test_short_path_rejected(self):
        with pytest.raises(DomainError):
            holonomy_numeric([ket("0")])

    def test_mixed_qubit_counts_rejected(self):
        with pytest.raises(DomainError):
            holonomy_numeric([ket("0"), ket("00"), ket("0")])

    def test_trivial_loop_carries_no_phase(self):
        s = ket("0")
        assert holonomy_numeric([s, s, s]).value == pytest.approx(0.0, abs=1e-15)

    @given(st.floats(0.05, math.pi - 0.05))
    @settings(max_examples=25, deadline=None)
    def test_oracle_agreement_property(self, theta):
        got = holonomy_numeric(spinor_loop(Orientation.UP, theta, 2000)).value
        want = berry_phase_analytic(Orientation.UP, theta).mod_2pi()
        dev = abs(got - want)
        assert min(dev, TWO_PI - dev) < 1e-4


class TestSpinorLoop:
    def test_closed_and_sized(self):
        loop = spinor_loop(Orientation.UP, 1.0, 64)
        assert len(loop) == 65
        np.testing.assert_allclose(
            loop[0].amplitudes, loop[-1].amplitudes, atol=1e-12
        )

    def test_down_loop_winds_backwards(self):
        # the second point of the down loop sits at negative azimuth
        loop = spinor_loop(Orientation.DOWN, 1.0, 8)
        expected = prepare_spinor(
            SpinorParams(1.0, -TWO_PI / 8, 0.0), Orientation.DOWN
        )
        np.testing.assert_allclose(loop[1].amplitudes, expected.amplitudes, atol=1e-15)

    def test_degenerate_segment_count_rejected(self):
        with pytest.raises(DomainError):
            spinor_loop(Orientation.UP, 1.0, 1)

    @pytest.mark.parametrize("build", [
        lambda n: spinor_loop(Orientation.DOWN, 1.0, n),
        lambda n: entangled_family_loop(1.0, n),
    ], ids=["spinor", "entangled"])
    def test_segment_count_bounded(self, build, monkeypatch):
        with pytest.raises(DomainError, match="at most 1000000 segments"):
            build(berry.MAX_SEGMENTS + 1)
        for bad in (2.5, 3.0, "3"):
            with pytest.raises(DomainError, match="segments must be an integer"):
                build(bad)
        monkeypatch.setattr(berry, "MAX_SEGMENTS", 10)
        assert len(build(10)) == 11
        assert len(build(np.int64(4))) == 5
        with pytest.raises(DomainError, match="at most 10 segments"):
            build(11)


class TestEntangledFamily:
    def test_loop_states_are_normalized_two_qubit(self):
        loop = entangled_family_loop(0.6, 16)
        assert all(s.num_qubits == 2 for s in loop)

    def test_degenerate_at_equator(self):
        with pytest.raises(DegeneratePathError):
            entangled_family_loop(math.pi / 2, 16)

    def test_transported_phase_is_zero_not_the_closed_form(self):
        # the closed form pi(1 + cos 2 theta) is nonzero here; the transported
        # phase of this family is identically zero
        theta = 0.4
        diag = holonomy_numeric(entangled_family_loop(theta, 400))
        assert diag.value == pytest.approx(0.0, abs=1e-9)
        assert berry_phase_entangled(theta).value > 1.0
