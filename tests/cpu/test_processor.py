"""Unit tests for the runtime processor state."""

import pytest

from repro.cpu.dvfs import SwitchingOverhead
from repro.cpu.processor import Processor


@pytest.fixture
def cpu(xscale):
    return Processor(xscale)


class TestLevelSelection:
    def test_starts_idle(self, cpu):
        assert cpu.is_idle
        assert cpu.draw_power == 0.0
        assert cpu.speed == 0.0

    def test_set_level(self, cpu, xscale):
        cpu.set_level(xscale.max_level)
        assert not cpu.is_idle
        assert cpu.draw_power == pytest.approx(3.2)
        assert cpu.speed == 1.0

    def test_back_to_idle(self, cpu, xscale):
        cpu.set_level(xscale.max_level)
        cpu.set_level(None)
        assert cpu.is_idle

    def test_foreign_level_rejected(self, cpu):
        from repro.cpu.dvfs import FrequencyLevel

        with pytest.raises(ValueError, match="not a level"):
            cpu.set_level(FrequencyLevel(speed=0.33, power=1.0))

    def test_idle_power_configurable(self, xscale):
        cpu = Processor(xscale, idle_power=0.05)
        assert cpu.draw_power == 0.05

    def test_negative_idle_power_rejected(self, xscale):
        with pytest.raises(ValueError):
            Processor(xscale, idle_power=-0.1)


class TestSwitchAccounting:
    def test_level_change_counts(self, cpu, xscale):
        cpu.set_level(xscale.min_level)
        cpu.set_level(xscale.max_level)
        assert cpu.switch_count == 1

    def test_same_level_is_free(self, cpu, xscale):
        cpu.set_level(xscale.max_level)
        cpu.set_level(xscale.max_level)
        assert cpu.switch_count == 0

    def test_idle_transitions_are_free(self, cpu, xscale):
        """Clock gating costs nothing; only voltage/frequency hops pay."""
        cpu.set_level(xscale.max_level)
        cpu.set_level(None)
        cpu.set_level(xscale.max_level)
        assert cpu.switch_count == 0

    def test_overhead_returned_on_real_switch(self, xscale):
        overhead = SwitchingOverhead(time=0.1, energy=0.5)
        cpu = Processor(xscale, overhead=overhead)
        cpu.set_level(xscale.min_level)
        assert cpu.set_level(xscale.max_level) == overhead
        assert cpu.switch_time_spent == pytest.approx(0.1)
        assert cpu.switch_energy_spent == pytest.approx(0.5)

    def test_overhead_not_charged_without_switch(self, xscale):
        cpu = Processor(xscale, overhead=SwitchingOverhead(time=0.1))
        assert cpu.set_level(xscale.max_level).is_free
        assert cpu.set_level(None).is_free


class TestTimeAccounting:
    def test_idle_time(self, cpu):
        cpu.account_time(5.0)
        assert cpu.idle_time == 5.0
        assert cpu.total_busy_time == 0.0

    def test_busy_time_per_level(self, cpu, xscale):
        cpu.set_level(xscale.min_level)
        cpu.account_time(3.0)
        cpu.set_level(xscale.max_level)
        cpu.account_time(2.0)
        assert cpu.busy_time_at(0) == pytest.approx(3.0)
        assert cpu.busy_time_at(len(xscale) - 1) == pytest.approx(2.0)
        assert cpu.total_busy_time == pytest.approx(5.0)

    def test_busy_time_profile_keys(self, cpu, xscale):
        profile = cpu.busy_time_profile()
        assert set(profile) == {lv.speed for lv in xscale}
        assert all(v == 0.0 for v in profile.values())

    def test_negative_duration_rejected(self, cpu):
        with pytest.raises(ValueError):
            cpu.account_time(-1.0)
