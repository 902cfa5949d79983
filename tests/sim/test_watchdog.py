"""Tests for the opt-in simulation watchdog."""

import math

import pytest

from repro.cpu.presets import xscale_pxa
from repro.energy.source import SolarStochasticSource
from repro.energy.storage import IdealStorage, NonIdealStorage, SegmentResult
from repro.faults import BlackoutSource, OverrunWorkload
from repro.sched.base import Decision
from repro.sched.registry import make_scheduler
from repro.sim.simulator import HarvestingRtSimulator, SimulationConfig
from repro.sim.watchdog import (
    SimulationDiagnostics,
    SimulationWatchdog,
    WatchdogError,
)
from repro.tasks.workload import generate_paper_taskset


def paper_sim(scheduler="ea-dvfs", storage=None, config=None, seed=0):
    scale = xscale_pxa()
    source = SolarStochasticSource(seed=seed)
    taskset = generate_paper_taskset(
        n_tasks=5,
        utilization=0.4,
        mean_harvest_power=source.mean_power(),
        max_power=scale.max_power,
        seed=seed,
    )
    return HarvestingRtSimulator(
        taskset=taskset,
        source=source,
        storage=storage or IdealStorage(100.0),
        scheduler=make_scheduler(scheduler, scale),
        config=config or SimulationConfig(horizon=400.0, watchdog=True),
    )


class TestConfigValidation:
    def test_max_stalls_must_be_positive(self):
        with pytest.raises(ValueError, match="max_consecutive_stalls"):
            SimulationWatchdog(max_consecutive_stalls=0)

    def test_tolerance_must_be_positive_finite(self):
        for tolerance in (0.0, math.inf):
            with pytest.raises(ValueError, match="energy_tolerance"):
                SimulationWatchdog(energy_tolerance=tolerance)


class TestSegmentAudit:
    def ok_segment(self):
        # 1 time unit, harvest 2, draw 1: delta +1, drawn 1.
        return SegmentResult(drawn=1.0, stored_delta=1.0, overflow=0.0, leaked=0.0)

    def test_clean_segment_passes(self):
        wd = SimulationWatchdog()
        wd.observe_segment(0.0, 1.0, 2.0, 1.0, self.ok_segment(), IdealStorage(10.0, initial=5.0))
        assert wd.segments_checked == 1

    def test_backwards_segment_fails(self):
        wd = SimulationWatchdog()
        with pytest.raises(WatchdogError, match="backwards"):
            wd.observe_segment(
                5.0, 4.0, 0.0, 0.0,
                SegmentResult(drawn=0.0, stored_delta=0.0, overflow=0.0),
                IdealStorage(10.0),
            )

    def test_overlapping_segments_fail(self):
        wd = SimulationWatchdog()
        store = IdealStorage(10.0, initial=5.0)
        wd.observe_segment(0.0, 1.0, 2.0, 1.0, self.ok_segment(), store)
        with pytest.raises(WatchdogError, match="before the previous"):
            wd.observe_segment(0.5, 1.5, 2.0, 1.0, self.ok_segment(), store)

    def test_draw_mismatch_fails(self):
        wd = SimulationWatchdog()
        lying = SegmentResult(drawn=0.0, stored_delta=1.0, overflow=0.0)
        with pytest.raises(WatchdogError, match="disagrees with the commanded"):
            wd.observe_segment(0.0, 1.0, 2.0, 1.0, lying, IdealStorage(10.0))

    def test_energy_conjured_from_nowhere_fails(self):
        wd = SimulationWatchdog()
        # Harvest 0 over 1 unit, yet the store claims +5 while drawing 1.
        bogus = SegmentResult(drawn=1.0, stored_delta=5.0, overflow=0.0)
        with pytest.raises(WatchdogError, match="conservation"):
            wd.observe_segment(0.0, 1.0, 0.0, 1.0, bogus, IdealStorage(10.0))

    def test_unitemized_losses_are_legal(self):
        # Non-ideal storages under-account (conversion losses): fine.
        wd = SimulationWatchdog()
        lossy = SegmentResult(drawn=1.0, stored_delta=0.5, overflow=0.0)
        wd.observe_segment(0.0, 1.0, 2.0, 1.0, lossy, IdealStorage(10.0))
        assert wd.segments_checked == 1

    def test_level_above_capacity_fails(self):
        class Overfull(IdealStorage):
            @property
            def stored(self):
                return 20.0

        wd = SimulationWatchdog()
        with pytest.raises(WatchdogError, match="above capacity"):
            wd.observe_segment(
                0.0, 1.0, 2.0, 1.0, self.ok_segment(), Overfull(10.0)
            )


class TestDecisionAndStalls:
    def test_past_reconsider_fails(self):
        wd = SimulationWatchdog()
        decision = Decision.idle(reconsider_at=5.0)
        with pytest.raises(WatchdogError, match="reconsidered in the past"):
            wd.observe_decision(10.0, decision)

    def test_stall_limit(self):
        wd = SimulationWatchdog(max_consecutive_stalls=3)
        for _ in range(3):
            wd.observe_stall(1.0)
        with pytest.raises(WatchdogError, match="stall loop"):
            wd.observe_stall(1.0)

    def test_completion_resets_stall_counter(self):
        wd = SimulationWatchdog(max_consecutive_stalls=3)
        for _ in range(3):
            wd.observe_stall(1.0)
        wd.observe_completion()
        for _ in range(3):
            wd.observe_stall(2.0)  # does not raise: counter was reset

    def test_unlimited_stalls_by_default(self):
        wd = SimulationWatchdog()
        for _ in range(100):
            wd.observe_stall(0.0)


class TestDiagnostics:
    def test_error_carries_structured_report(self):
        wd = SimulationWatchdog()
        try:
            wd.observe_segment(
                0.0, 1.0, 0.0, 1.0,
                SegmentResult(drawn=1.0, stored_delta=5.0, overflow=0.0),
                IdealStorage(10.0, initial=5.0),
            )
        except WatchdogError as exc:
            diag = exc.diagnostics
            assert isinstance(diag, SimulationDiagnostics)
            assert "conservation" in diag.violation
            assert diag.time == 1.0
            assert diag.detail["accounted"] == pytest.approx(6.0)
            assert diag.detail["harvested"] == pytest.approx(0.0)
            assert "conservation" in diag.format_text()
            assert "accounted" in diag.format_text()
        else:  # pragma: no cover
            pytest.fail("expected WatchdogError")

    def test_healthy_snapshot(self):
        wd = SimulationWatchdog()
        diag = wd.snapshot(3.0)
        assert diag.violation == ""
        assert "ok" in diag.format_text()


class TestSimulatorIntegration:
    def test_clean_run_passes_and_matches_unwatched(self):
        watched = paper_sim(
            config=SimulationConfig(horizon=400.0, watchdog=True)
        ).run()
        plain = paper_sim(
            config=SimulationConfig(horizon=400.0, watchdog=False)
        ).run()
        assert watched.completed_count == plain.completed_count
        assert watched.missed_count == plain.missed_count
        assert watched.drawn_energy == pytest.approx(plain.drawn_energy)

    def test_clean_faulted_run_passes(self):
        # Fault wrappers keep the books balanced: the watchdog stays quiet.
        scale = xscale_pxa()
        source = BlackoutSource(
            SolarStochasticSource(seed=1), seed=2, start_probability=0.05
        )
        taskset = OverrunWorkload(
            generate_paper_taskset(
                n_tasks=5, utilization=0.4,
                mean_harvest_power=source.inner.mean_power(),
                max_power=scale.max_power, seed=1,
            ),
            seed=3,
            probability=0.2,
        )
        sim = HarvestingRtSimulator(
            taskset=taskset,
            source=source,
            storage=NonIdealStorage(100.0, leakage_power=0.001),
            scheduler=make_scheduler("ea-dvfs", scale),
            config=SimulationConfig(horizon=400.0, watchdog=True),
        )
        result = sim.run()
        assert result.completed_count > 0

    def test_lying_storage_is_caught(self):
        class LyingStorage(IdealStorage):
            """Delivers energy but reports none of it as drawn."""

            def _advance_finite(self, duration, harvest_power, draw_power):
                seg = super()._advance_finite(duration, harvest_power, draw_power)
                return SegmentResult(
                    drawn=0.0,
                    stored_delta=seg.stored_delta,
                    overflow=seg.overflow,
                    leaked=seg.leaked,
                )

        sim = paper_sim(storage=LyingStorage(100.0))
        with pytest.raises(WatchdogError, match="disagrees with the commanded"):
            sim.run()

    def test_watchdog_off_by_default(self):
        config = SimulationConfig(horizon=10.0)
        assert config.watchdog is False
