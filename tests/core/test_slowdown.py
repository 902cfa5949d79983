"""Unit tests for the EA-DVFS slow-down math (equations (5)-(12))."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slowdown import compute_plan, minimum_feasible_level
from repro.cpu.presets import (
    motivational_example_scale,
    stretch_example_scale,
    xscale_pxa,
)
from repro.timeutils import time_ge, time_le


class TestMotivationalExampleNumbers:
    """Section 2 / Figure 1: tau1 = (0, 16, 4), E_avail = 24 + 8 = 32."""

    def test_tau1_plan(self):
        scale = motivational_example_scale()
        plan = compute_plan(
            now=0.0, deadline=16.0, remaining_work=4.0,
            available_energy=32.0, scale=scale,
        )
        # Low speed S=0.5 is feasible (4/0.5 = 8 <= 16); P_n = 8/3.
        assert plan.level.speed == pytest.approx(0.5)
        # eq. (5): sr_n = 32 / (8/3) = 12 -> s1 = max(0, 16 - 12) = 4.
        assert plan.s1 == pytest.approx(4.0)
        # eq. (9): sr_max = 32 / 8 = 4 -> s2 = max(0, 16 - 4) = 12.
        assert plan.s2 == pytest.approx(12.0)
        assert plan.start_at == pytest.approx(4.0)
        assert plan.switch_to_max_at == pytest.approx(12.0)
        assert not plan.sufficient_energy
        assert plan.deadline_reachable

    def test_lsa_start_time_is_s2(self):
        """LSA's 'start when max power is sustainable' instant is s2 = 12."""
        scale = motivational_example_scale()
        plan = compute_plan(0.0, 16.0, 4.0, 32.0, scale)
        assert plan.s2 == pytest.approx(12.0)


class TestStretchExampleNumbers:
    """Section 4.3 / Figure 3: f_n = 0.25 f_max, P_n = 1, E_avail = 32."""

    def test_tau1_plan(self):
        scale = stretch_example_scale()
        plan = compute_plan(
            now=0.0, deadline=16.0, remaining_work=4.0,
            available_energy=32.0, scale=scale,
        )
        # sr_n = 32 / 1 = 32 -> s1 = max(0, 16 - 32) = 0 (paper's text).
        assert plan.s1 == pytest.approx(0.0)
        # sr_max = 32 / 8 = 4 -> s2 = 12 (paper's Figure 3).
        assert plan.s2 == pytest.approx(12.0)
        assert plan.level.speed == pytest.approx(0.25)
        assert plan.start_at == pytest.approx(0.0)
        assert plan.switch_to_max_at == pytest.approx(12.0)


class TestSufficientEnergyCase:
    def test_s1_equals_s2_at_now_runs_full_speed(self):
        """Case (a): plenty of energy -> both start times collapse to now."""
        scale = xscale_pxa()
        plan = compute_plan(
            now=0.0, deadline=10.0, remaining_work=2.0,
            available_energy=1e6, scale=scale,
        )
        assert plan.sufficient_energy
        assert plan.level.speed == 1.0
        assert plan.start_at == 0.0
        assert plan.switch_to_max_at is None

    def test_infinite_energy_is_edf(self):
        """Section 4.3 special case: infinite storage -> s1 = s2 = now."""
        scale = xscale_pxa()
        plan = compute_plan(
            now=5.0, deadline=20.0, remaining_work=3.0,
            available_energy=math.inf, scale=scale,
        )
        assert plan.s1 == 5.0
        assert plan.s2 == 5.0
        assert plan.sufficient_energy
        assert plan.level.speed == 1.0

    def test_inequality_12_boundary(self):
        """s1 == s2 == now iff sr_max >= window (ineq. (12))."""
        scale = xscale_pxa()
        window, work = 10.0, 2.0
        exactly_enough = scale.max_power * window  # sr_max == window
        plan = compute_plan(0.0, window, work, exactly_enough, scale)
        assert plan.sufficient_energy
        slightly_short = exactly_enough * 0.99
        plan = compute_plan(0.0, window, work, slightly_short, scale)
        assert not plan.sufficient_energy


class TestScarceEnergyCase:
    def test_zero_energy_defers_to_deadline(self):
        scale = xscale_pxa()
        plan = compute_plan(0.0, 10.0, 2.0, 0.0, scale)
        # sr = 0 for every level: both start times collapse at the deadline.
        assert plan.s1 == pytest.approx(10.0)
        assert plan.s2 == pytest.approx(10.0)
        assert plan.start_at == pytest.approx(10.0)
        assert not plan.sufficient_energy

    def test_negative_energy_clamped(self):
        scale = xscale_pxa()
        plan = compute_plan(0.0, 10.0, 2.0, -5.0, scale)
        assert plan.s1 == pytest.approx(10.0)

    def test_degenerate_when_only_full_speed_fits(self):
        """No slower feasible level: the plan is LSA-like (wait, then max)."""
        scale = xscale_pxa()
        # work 9 in window 10: 9/0.8 > 10, only S=1 fits.
        plan = compute_plan(0.0, 10.0, 9.0, 16.0, scale)
        assert plan.level.speed == 1.0
        assert plan.switch_to_max_at is None
        # sr_max = 16/3.2 = 5 -> start at 5.
        assert plan.start_at == pytest.approx(5.0)
        assert not plan.sufficient_energy

    def test_unreachable_deadline_flagged(self):
        scale = xscale_pxa()
        plan = compute_plan(0.0, 5.0, 6.0, 1e9, scale)
        assert not plan.deadline_reachable
        assert plan.level.speed == 1.0
        assert plan.start_at == 0.0


class TestMinimumFeasibleLevel:
    def test_delegates_to_scale(self):
        scale = xscale_pxa()
        assert minimum_feasible_level(scale, 4.0, 16.0).speed == pytest.approx(0.4)
        assert minimum_feasible_level(scale, 4.0, 3.0) is None


class TestPlanInvariants:
    @given(
        now=st.floats(min_value=0, max_value=100),
        window=st.floats(min_value=0.1, max_value=100),
        work=st.floats(min_value=0.01, max_value=100),
        energy=st.floats(min_value=0, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_structural_invariants(self, now, window, work, energy):
        scale = xscale_pxa()
        plan = compute_plan(now, now + window, work, energy, scale)
        # s1 never after s2 (P_n <= P_max in eq. (5)).
        assert time_le(plan.s1, plan.s2)
        # start never before now, never after the deadline.
        assert time_ge(plan.start_at, now)
        assert time_le(plan.start_at, now + window)
        # a slow phase always carries its switch-up point, at s2.
        if plan.switch_to_max_at is not None:
            assert plan.level.speed < 1.0
            assert plan.switch_to_max_at == pytest.approx(plan.s2)
            # ineq. (6): the stretched execution fits the window.
            assert work / plan.level.speed <= window + 1e-6
        # sufficiency implies an immediate full-speed start.
        if plan.sufficient_energy:
            assert plan.start_at == pytest.approx(now)
            assert plan.level.speed == 1.0

    @given(
        energy_lo=st.floats(min_value=0, max_value=1000),
        extra=st.floats(min_value=0, max_value=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_more_energy_never_delays_start(self, energy_lo, extra):
        """start_at is non-increasing in available energy."""
        scale = xscale_pxa()
        lo = compute_plan(0.0, 50.0, 5.0, energy_lo, scale)
        hi = compute_plan(0.0, 50.0, 5.0, energy_lo + extra, scale)
        assert time_le(hi.start_at, lo.start_at)
