"""Tests for the workload-side fault injector (WCET overruns)."""

import pytest

from repro.cpu.presets import xscale_pxa
from repro.energy.source import ConstantSource
from repro.energy.storage import IdealStorage
from repro.faults import OverrunWorkload
from repro.sched.edf import GreedyEdfScheduler
from repro.sim.simulator import HarvestingRtSimulator, SimulationConfig
from repro.tasks.job import Job
from repro.tasks.task import PeriodicTask, TaskSet


def simple_taskset():
    return TaskSet(
        [
            PeriodicTask(period=10.0, wcet=2.0, name="t1"),
            PeriodicTask(period=15.0, wcet=3.0, name="t2"),
        ]
    )


class TestOverrunJobs:
    def test_certain_overrun_stretches_every_job(self):
        wl = OverrunWorkload(
            simple_taskset(), seed=0, probability=1.0,
            min_stretch=1.5, max_stretch=2.0,
        )
        base = simple_taskset().jobs(60.0)
        jobs = wl.jobs(60.0)
        assert len(jobs) == len(base)
        for job, ref in zip(jobs, base):
            assert job.actual_work >= 1.5 * ref.actual_work - 1e-12
            assert job.actual_work <= 2.0 * ref.actual_work + 1e-12
            assert job.overruns_wcet
            assert job.wcet == ref.wcet  # the scheduler's view is unchanged

    def test_zero_probability_is_transparent(self):
        wl = OverrunWorkload(simple_taskset(), seed=0, probability=0.0)
        base = simple_taskset().jobs(60.0)
        jobs = wl.jobs(60.0)
        assert [j.actual_work for j in jobs] == [j.actual_work for j in base]
        assert not any(j.overruns_wcet for j in jobs)

    def test_same_seed_same_overruns(self):
        make = lambda: OverrunWorkload(simple_taskset(), seed=11, probability=0.5)
        a = [j.actual_work for j in make().jobs(300.0)]
        b = [j.actual_work for j in make().jobs(300.0)]
        assert a == b

    def test_different_seed_differs(self):
        a = OverrunWorkload(simple_taskset(), seed=1, probability=0.5).jobs(300.0)
        b = OverrunWorkload(simple_taskset(), seed=2, probability=0.5).jobs(300.0)
        assert [j.actual_work for j in a] != [j.actual_work for j in b]

    def test_partial_probability_stretches_a_subset(self):
        wl = OverrunWorkload(simple_taskset(), seed=3, probability=0.5)
        jobs = wl.jobs(600.0)
        overrun = [j for j in jobs if j.overruns_wcet]
        assert 0 < len(overrun) < len(jobs)


class TestJobOverrunGate:
    def test_plain_job_still_rejects_overruns(self):
        task = PeriodicTask(period=10.0, wcet=2.0, name="t")
        with pytest.raises(ValueError, match="actual work"):
            Job(task, 0.0, 10.0, 2.0, actual_work=3.0)

    def test_opt_in_overrun_is_accepted(self):
        task = PeriodicTask(period=10.0, wcet=2.0, name="t")
        job = Job(task, 0.0, 10.0, 2.0, actual_work=3.0, allow_overrun=True)
        assert job.actual_work == 3.0
        assert job.overruns_wcet

    def test_within_wcet_job_does_not_flag(self):
        task = PeriodicTask(period=10.0, wcet=2.0, name="t")
        job = Job(task, 0.0, 10.0, 2.0, actual_work=2.0, allow_overrun=True)
        assert not job.overruns_wcet


class TestSimulatorIntegration:
    def test_simulator_executes_overrunning_jobs(self):
        wl = OverrunWorkload(
            simple_taskset(), seed=0, probability=1.0,
            min_stretch=1.5, max_stretch=1.5,
        )
        sim = HarvestingRtSimulator(
            taskset=wl,
            source=ConstantSource(5.0),
            storage=IdealStorage(float("inf")),
            scheduler=GreedyEdfScheduler(xscale_pxa()),
            config=SimulationConfig(horizon=100.0, watchdog=True),
        )
        result = sim.run()
        assert result.completed_count > 0
        # With ample energy the stretched demand still fits the deadlines
        # of this loose task set: nothing missed, everything executed.
        assert result.missed_count == 0


class TestValidation:
    def test_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            OverrunWorkload(simple_taskset(), probability=1.5)

    def test_bad_stretch(self):
        with pytest.raises(ValueError, match="min_stretch"):
            OverrunWorkload(simple_taskset(), min_stretch=0.9)
        with pytest.raises(ValueError, match="max_stretch"):
            OverrunWorkload(simple_taskset(), min_stretch=1.5, max_stretch=1.2)

    def test_introspection(self):
        wl = OverrunWorkload(
            simple_taskset(), seed=4, probability=0.2,
            min_stretch=1.1, max_stretch=1.3,
        )
        assert wl.seed == 4
        assert wl.probability == 0.2
        assert wl.stretch_range == (1.1, 1.3)
        assert len(wl.tasks) == 2
        assert "OverrunWorkload" in repr(wl)
