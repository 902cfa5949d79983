"""Tests for actual-execution-time (AET < WCET) variability."""

import numpy as np
import pytest

from repro.cpu.presets import xscale_pxa
from repro.energy.predictor import OraclePredictor
from repro.energy.source import ConstantSource
from repro.energy.storage import IdealStorage
from repro.sched.edf import GreedyEdfScheduler
from repro.sim.simulator import HarvestingRtSimulator, SimulationConfig
from repro.tasks.job import Job
from repro.tasks.task import AperiodicTask, PeriodicTask, TaskSet


class TestJobActualWork:
    @pytest.fixture
    def task(self):
        return AperiodicTask(arrival=0.0, relative_deadline=20.0, wcet=4.0,
                             name="t")

    def test_defaults_to_wcet(self, task):
        job = Job(task=task, release=0.0, absolute_deadline=20.0, wcet=4.0)
        assert job.actual_work == 4.0
        assert job.remaining_actual_work == 4.0

    def test_actual_below_wcet(self, task):
        job = Job(task=task, release=0.0, absolute_deadline=20.0, wcet=4.0,
                  actual_work=2.5)
        assert job.actual_work == 2.5
        assert job.remaining_work == 4.0  # planning view is still WCET

    def test_actual_above_wcet_rejected(self, task):
        with pytest.raises(ValueError, match="actual work"):
            Job(task=task, release=0.0, absolute_deadline=20.0, wcet=4.0,
                actual_work=5.0)

    def test_zero_actual_rejected(self, task):
        with pytest.raises(ValueError):
            Job(task=task, release=0.0, absolute_deadline=20.0, wcet=4.0,
                actual_work=0.0)

    def test_completion_at_actual_not_wcet(self, task):
        job = Job(task=task, release=0.0, absolute_deadline=20.0, wcet=4.0,
                  actual_work=2.0)
        job.mark_released()
        job.execute(speed=1.0, duration=2.0, power=3.2)
        assert job.remaining_actual_work == pytest.approx(0.0)
        assert job.remaining_work == pytest.approx(2.0)  # WCET bound left
        job.mark_completed(2.0)
        assert job.completion_time == 2.0

    def test_time_to_finish_uses_actual(self, task):
        job = Job(task=task, release=0.0, absolute_deadline=20.0, wcet=4.0,
                  actual_work=2.0)
        assert job.time_to_finish(0.5) == pytest.approx(4.0)

    def test_progress_tracks_actual(self, task):
        job = Job(task=task, release=0.0, absolute_deadline=20.0, wcet=4.0,
                  actual_work=2.0)
        job.mark_released()
        job.execute(1.0, 1.0, 3.2)
        assert job.progress == pytest.approx(0.5)


class TestTaskBcetRatio:
    def test_default_no_variability(self):
        task = PeriodicTask(period=10.0, wcet=2.0, name="t")
        jobs = list(task.jobs(30.0, rng=np.random.default_rng(0)))
        assert all(j.actual_work == 2.0 for j in jobs)

    def test_sampling_within_bounds(self):
        task = PeriodicTask(period=10.0, wcet=2.0, name="t", bcet_ratio=0.5)
        rng = np.random.default_rng(1)
        jobs = list(task.jobs(500.0, rng=rng))
        actuals = [j.actual_work for j in jobs]
        assert all(1.0 - 1e-9 <= a <= 2.0 + 1e-9 for a in actuals)
        assert len(set(actuals)) > 10  # actually random

    def test_no_rng_means_wcet(self):
        task = PeriodicTask(period=10.0, wcet=2.0, name="t", bcet_ratio=0.5)
        jobs = list(task.jobs(30.0))
        assert all(j.actual_work == 2.0 for j in jobs)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError, match="bcet_ratio"):
            PeriodicTask(period=10.0, wcet=2.0, bcet_ratio=0.0)
        with pytest.raises(ValueError):
            PeriodicTask(period=10.0, wcet=2.0, bcet_ratio=1.5)

    def test_with_wcet_preserves_ratio(self):
        task = PeriodicTask(period=10.0, wcet=2.0, name="t", bcet_ratio=0.7)
        assert task.with_wcet(1.0).bcet_ratio == 0.7

    def test_aperiodic_supports_ratio(self):
        task = AperiodicTask(arrival=0.0, relative_deadline=10.0, wcet=2.0,
                             bcet_ratio=0.5)
        (job,) = task.jobs(20.0, rng=np.random.default_rng(3))
        assert 1.0 <= job.actual_work <= 2.0


class TestSimulatorWithAet:
    def _run(self, bcet_ratio, aet_seed):
        taskset = TaskSet(
            [PeriodicTask(period=10.0, wcet=4.0, name="t",
                          bcet_ratio=bcet_ratio)]
        )
        source = ConstantSource(0.0)
        sim = HarvestingRtSimulator(
            taskset=taskset,
            source=source,
            storage=IdealStorage(capacity=1e6),
            scheduler=GreedyEdfScheduler(xscale_pxa()),
            predictor=OraclePredictor(source),
            config=SimulationConfig(horizon=100.0, aet_seed=aet_seed),
        )
        return sim.run()

    def test_early_completions_consume_less(self):
        full = self._run(bcet_ratio=1.0, aet_seed=0)
        short = self._run(bcet_ratio=0.5, aet_seed=0)
        assert short.drawn_energy < full.drawn_energy
        assert short.completed_count == full.completed_count == 10

    def test_deterministic_given_aet_seed(self):
        a = self._run(bcet_ratio=0.5, aet_seed=7)
        b = self._run(bcet_ratio=0.5, aet_seed=7)
        assert a.drawn_energy == b.drawn_energy

    def test_different_aet_seeds_differ(self):
        a = self._run(bcet_ratio=0.5, aet_seed=7)
        b = self._run(bcet_ratio=0.5, aet_seed=8)
        assert a.drawn_energy != b.drawn_energy

    def test_no_seed_runs_wcet(self):
        full = self._run(bcet_ratio=0.5, aet_seed=None)
        reference = self._run(bcet_ratio=1.0, aet_seed=None)
        assert full.drawn_energy == pytest.approx(reference.drawn_energy)
