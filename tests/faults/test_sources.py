"""Tests for the harvest-side fault injectors."""

import math

import pytest

from repro.energy.source import ConstantSource, SolarStochasticSource
from repro.faults import BlackoutSource, BrownoutSource, SensorDropoutSource


def series(source, n):
    return [source.power(float(t)) for t in range(n)]


class TestDeterminism:
    def test_same_seed_same_series(self):
        a = BlackoutSource(ConstantSource(2.0), seed=7, start_probability=0.2)
        b = BlackoutSource(ConstantSource(2.0), seed=7, start_probability=0.2)
        assert series(a, 500) == series(b, 500)

    def test_out_of_order_queries_match_in_order(self):
        # An oracle predictor integrates the future before the simulator
        # reaches it; querying ahead must not change the realization.
        a = BlackoutSource(ConstantSource(1.0), seed=3, start_probability=0.3)
        b = BlackoutSource(ConstantSource(1.0), seed=3, start_probability=0.3)
        a.power(400.0)  # far-future query first
        assert series(a, 500) == series(b, 500)

    def test_different_seeds_differ(self):
        a = SensorDropoutSource(ConstantSource(1.0), seed=0, drop_probability=0.5)
        b = SensorDropoutSource(ConstantSource(1.0), seed=1, drop_probability=0.5)
        assert series(a, 200) != series(b, 200)

    def test_schedule_independent_of_inner(self):
        # Equal seeds give identical attenuation schedules regardless of
        # what they decorate.
        a = BlackoutSource(ConstantSource(5.0), seed=11, start_probability=0.2)
        b = BlackoutSource(SolarStochasticSource(seed=0), seed=11, start_probability=0.2)
        atts_a = [a.attenuation_at(float(t)) for t in range(300)]
        atts_b = [b.attenuation_at(float(t)) for t in range(300)]
        assert atts_a == atts_b


class TestBlackout:
    def test_factors_are_zero_or_one(self):
        src = BlackoutSource(ConstantSource(3.0), seed=1, start_probability=0.3)
        values = set(series(src, 1000))
        assert values == {0.0, 3.0}

    def test_outage_durations_within_range(self):
        src = BlackoutSource(
            ConstantSource(1.0), seed=5, start_probability=0.1,
            min_duration=3, max_duration=6,
        )
        atts = [src.attenuation_at(float(t)) for t in range(5000)]
        runs, current = [], 0
        for a in atts:
            if a == 0.0:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert runs, "expected at least one outage in 5000 quanta"
        # Consecutive outages can merge (a new outage may start in the
        # quantum after one ends), so runs are unions of [3, 6] blocks.
        assert min(runs) >= 3

    def test_outage_fraction_closed_form(self):
        src = BlackoutSource(
            ConstantSource(1.0), seed=0, start_probability=0.1,
            min_duration=5, max_duration=15,
        )
        # p*m / (p*m + 1 - p) with m = 10.
        assert src.outage_fraction() == pytest.approx(1.0 / (1.0 + 0.9))

    def test_outage_fraction_matches_empirical(self):
        src = BlackoutSource(
            ConstantSource(1.0), seed=9, start_probability=0.05,
            min_duration=5, max_duration=15,
        )
        n = 20_000
        dark = sum(1 for t in range(n) if src.attenuation_at(float(t)) == 0.0)
        assert dark / n == pytest.approx(src.outage_fraction(), abs=0.05)

    def test_mean_power(self):
        src = BlackoutSource(ConstantSource(4.0), seed=0, start_probability=0.1)
        assert src.mean_power() == pytest.approx(
            4.0 * (1.0 - src.outage_fraction())
        )

    def test_zero_probability_is_transparent(self):
        src = BlackoutSource(ConstantSource(2.5), seed=0, start_probability=0.0)
        assert series(src, 100) == [2.5] * 100
        assert src.outage_fraction() == 0.0
        assert src.mean_power() == pytest.approx(2.5)


class TestBrownout:
    def test_attenuates_instead_of_zeroing(self):
        src = BrownoutSource(
            ConstantSource(2.0), seed=1, start_probability=0.3,
            brownout_factor=0.25,
        )
        values = set(series(src, 1000))
        assert values == {0.5, 2.0}
        assert src.brownout_factor == 0.25

    def test_mean_power_accounts_for_partial_attenuation(self):
        src = BrownoutSource(
            ConstantSource(1.0), seed=0, start_probability=0.1,
            brownout_factor=0.5,
        )
        expected = 1.0 - src.outage_fraction() * 0.5
        assert src.mean_power() == pytest.approx(expected)


class TestSensorDropout:
    def test_iid_drop_rate(self):
        src = SensorDropoutSource(ConstantSource(1.0), seed=2, drop_probability=0.25)
        n = 20_000
        dropped = sum(1 for t in range(n) if src.power(float(t)) == 0.0)
        assert dropped / n == pytest.approx(0.25, abs=0.02)

    def test_mean_power(self):
        src = SensorDropoutSource(ConstantSource(8.0), seed=0, drop_probability=0.25)
        assert src.mean_power() == pytest.approx(6.0)


class TestPiecewiseConstantContract:
    def test_next_boundary_is_own_grid_for_constant_inner(self):
        src = BlackoutSource(ConstantSource(1.0), seed=0, quantum=2.0)
        assert src.next_boundary(0.3) == 2.0
        assert src.next_boundary(2.0) == 4.0

    def test_next_boundary_respects_inner_boundaries(self):
        inner = SolarStochasticSource(seed=0)  # quantum-1 boundaries
        src = BlackoutSource(inner, seed=0, quantum=5.0)
        assert src.next_boundary(0.5) == inner.next_boundary(0.5)

    def test_energy_integral_matches_quantum_sum(self):
        src = BlackoutSource(ConstantSource(2.0), seed=4, start_probability=0.3)
        total = sum(src.power(float(t)) for t in range(50))
        assert src.energy(0.0, 50.0) == pytest.approx(total)

    def test_negative_time_rejected(self):
        src = BlackoutSource(ConstantSource(1.0), seed=0)
        with pytest.raises(ValueError, match=">= 0"):
            src.attenuation_at(-1.0)


class TestValidation:
    def test_bad_probability(self):
        with pytest.raises(ValueError, match="start_probability"):
            BlackoutSource(ConstantSource(1.0), start_probability=1.5)
        with pytest.raises(ValueError, match="drop_probability"):
            SensorDropoutSource(ConstantSource(1.0), drop_probability=-0.1)

    def test_bad_durations(self):
        with pytest.raises(ValueError, match="durations"):
            BlackoutSource(ConstantSource(1.0), min_duration=0)
        with pytest.raises(ValueError, match="durations"):
            BlackoutSource(ConstantSource(1.0), min_duration=10, max_duration=5)

    def test_bad_quantum(self):
        with pytest.raises(ValueError, match="quantum"):
            BlackoutSource(ConstantSource(1.0), quantum=0.0)
        with pytest.raises(ValueError, match="quantum"):
            BlackoutSource(ConstantSource(1.0), quantum=math.inf)

    def test_bad_brownout_factor(self):
        with pytest.raises(ValueError, match="attenuation"):
            BrownoutSource(ConstantSource(1.0), brownout_factor=1.5)

    def test_introspection(self):
        inner = ConstantSource(1.0)
        src = BlackoutSource(inner, seed=42, min_duration=2, max_duration=9)
        assert src.inner is inner
        assert src.seed == 42
        assert src.duration_range == (2, 9)
        assert src.quantum == 1.0
        assert "BlackoutSource" in repr(src)
