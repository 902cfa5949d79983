"""Unit tests for the DVFS frequency/power model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.dvfs import FrequencyLevel, FrequencyScale, SwitchingOverhead


class TestFrequencyLevel:
    def test_valid_level(self):
        level = FrequencyLevel(speed=0.5, power=2.0, frequency_hz=500e6)
        assert level.energy_per_work == pytest.approx(4.0)

    def test_execution_time_scales_inversely(self):
        level = FrequencyLevel(speed=0.25, power=1.0)
        assert level.execution_time(4.0) == pytest.approx(16.0)

    def test_full_speed_execution_time(self):
        level = FrequencyLevel(speed=1.0, power=8.0)
        assert level.execution_time(4.0) == pytest.approx(4.0)

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            FrequencyLevel(speed=0.0, power=1.0)
        with pytest.raises(ValueError):
            FrequencyLevel(speed=1.5, power=1.0)

    def test_invalid_power_rejected(self):
        with pytest.raises(ValueError):
            FrequencyLevel(speed=0.5, power=0.0)

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            FrequencyLevel(speed=0.5, power=1.0).execution_time(-1.0)

    def test_ordering_by_speed(self):
        slow = FrequencyLevel(speed=0.25, power=1.0)
        fast = FrequencyLevel(speed=1.0, power=8.0)
        assert slow < fast


class TestFrequencyScaleConstruction:
    def test_levels_sorted_by_speed(self):
        scale = FrequencyScale(
            [
                FrequencyLevel(speed=1.0, power=8.0),
                FrequencyLevel(speed=0.25, power=1.0),
            ]
        )
        assert [lv.speed for lv in scale] == [0.25, 1.0]

    def test_fastest_must_be_speed_one(self):
        with pytest.raises(ValueError, match="speed 1.0"):
            FrequencyScale([FrequencyLevel(speed=0.5, power=1.0)])

    def test_duplicate_speeds_rejected(self):
        with pytest.raises(ValueError, match="non-increasing"):
            FrequencyScale(
                [
                    FrequencyLevel(speed=1.0, power=8.0),
                    FrequencyLevel(speed=1.0, power=4.0),
                ]
            )

    def test_power_must_increase_with_speed(self):
        with pytest.raises(ValueError, match="power must increase"):
            FrequencyScale(
                [
                    FrequencyLevel(speed=0.5, power=8.0),
                    FrequencyLevel(speed=1.0, power=2.0),
                ]
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FrequencyScale([])

    def test_from_frequencies_normalizes(self):
        scale = FrequencyScale.from_frequencies([150e6, 1000e6], [0.08, 3.2])
        assert scale.min_level.speed == pytest.approx(0.15)
        assert scale.max_level.speed == 1.0

    def test_from_frequencies_length_mismatch(self):
        with pytest.raises(ValueError, match="frequencies but"):
            FrequencyScale.from_frequencies([1.0, 2.0], [1.0])

    def test_single_speed(self):
        scale = FrequencyScale.single_speed(power=5.0)
        assert len(scale) == 1
        assert scale.max_power == 5.0

    def test_dominated_level_warns(self):
        with pytest.warns(UserWarning, match="dominated"):
            FrequencyScale(
                [
                    # energy/work 10 at S=0.5 vs 8 at S=1: slow is dominated
                    FrequencyLevel(speed=0.5, power=5.0),
                    FrequencyLevel(speed=1.0, power=8.0),
                ]
            )


class TestSchedulingQueries:
    @pytest.fixture
    def scale(self, xscale):
        return xscale

    def test_min_feasible_picks_slowest_that_fits(self, scale):
        # work 4 in a window of 16: 4/0.4 = 10 <= 16 but 4/0.15 = 26.7 > 16.
        level = scale.min_feasible_level(work=4.0, window=16.0)
        assert level.speed == pytest.approx(0.4)

    def test_min_feasible_full_speed_edge(self, scale):
        level = scale.min_feasible_level(work=4.0, window=4.0)
        assert level.speed == 1.0

    def test_min_feasible_infeasible_returns_none(self, scale):
        assert scale.min_feasible_level(work=5.0, window=4.0) is None

    def test_min_feasible_zero_work(self, scale):
        assert scale.min_feasible_level(0.0, 1.0).speed == pytest.approx(0.15)

    def test_min_feasible_negative_window(self, scale):
        assert scale.min_feasible_level(1.0, -1.0) is None

    def test_level_at_least(self, scale):
        assert scale.level_at_least(0.5).speed == pytest.approx(0.6)
        assert scale.level_at_least(0.6).speed == pytest.approx(0.6)
        assert scale.level_at_least(2.0).speed == 1.0

    def test_index_of(self, scale):
        assert scale.index_of(scale.min_level) == 0
        assert scale.index_of(scale.max_level) == len(scale) - 1

    def test_max_power(self, scale):
        assert scale.max_power == pytest.approx(3.2)

    def test_xscale_has_no_dominated_levels(self, scale):
        scale.validate_efficiency()  # must not raise

    def test_equality_and_hash(self, scale):
        from repro.cpu.presets import xscale_pxa

        other = xscale_pxa()
        assert scale == other
        assert hash(scale) == hash(other)
        assert scale != FrequencyScale.single_speed(1.0)

    @given(
        work=st.floats(min_value=0.01, max_value=100),
        window=st.floats(min_value=0.01, max_value=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_min_feasible_respects_inequality_6(self, work, window):
        """Whenever a level is returned, w / S_n <= window (ineq. (6)),
        and no slower level satisfies it."""
        from repro.cpu.presets import xscale_pxa

        scale = xscale_pxa()
        level = scale.min_feasible_level(work, window)
        if level is None:
            assert work / 1.0 > window
        else:
            assert work / level.speed <= window + 1e-6
            idx = scale.index_of(level)
            if idx > 0:
                slower = scale[idx - 1]
                assert work / slower.speed > window


class TestSwitchingOverhead:
    def test_default_is_free(self):
        assert SwitchingOverhead().is_free

    def test_nonzero_not_free(self):
        assert not SwitchingOverhead(time=0.1).is_free
        assert not SwitchingOverhead(energy=0.5).is_free

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SwitchingOverhead(time=-1.0)
        with pytest.raises(ValueError):
            SwitchingOverhead(energy=-1.0)
