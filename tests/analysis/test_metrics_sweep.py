"""Unit tests for metric aggregation and the sweep drivers.

The drivers are :func:`repro.runtime.sweep.run_journaled_sweep` (seeded
replication) and :func:`repro.experiments.fig8_fig9.run_miss_rate_sweep`
(capacity sweeps); both are checked against direct ``setup.run`` loops.
"""

import pytest

from repro.analysis.metrics import (
    aggregate_results,
    energy_series,
    miss_rate_by_task,
    pooled_miss_rate,
)
from repro.analysis.parallel import RunSpec
from repro.cpu.presets import xscale_pxa
from repro.energy.source import ConstantSource, SolarStochasticSource
from repro.energy.storage import IdealStorage
from repro.experiments.common import PaperSetup
from repro.experiments.fig8_fig9 import run_miss_rate_sweep
from repro.runtime.journal import result_to_payload
from repro.runtime.sweep import run_journaled_sweep
from repro.sched.edf import GreedyEdfScheduler
from repro.sched.registry import make_scheduler
from repro.sim.simulator import HarvestingRtSimulator, SimulationConfig
from repro.sim.tracing import TraceKind
from repro.tasks.task import PeriodicTask, TaskSet
from repro.timeutils import time_eq


def tiny_factory(scheduler_name, capacity, seed):
    """A fast real-simulation factory for driver tests."""
    scale = xscale_pxa()
    source = SolarStochasticSource(seed=seed)
    taskset = TaskSet([PeriodicTask(period=10.0, wcet=3.0, name="t")])
    sim = HarvestingRtSimulator(
        taskset=taskset,
        source=source,
        storage=IdealStorage(capacity=capacity),
        scheduler=make_scheduler(scheduler_name, scale),
        config=SimulationConfig(horizon=300.0),
    )
    return sim.run()


class TestAggregateResults:
    def test_pooled_vs_mean_miss_rate(self):
        results = [tiny_factory("edf", 5.0, s) for s in range(3)]
        agg = aggregate_results(results)
        assert agg.n_runs == 3
        total_missed = sum(r.missed_count for r in results)
        total_judged = sum(r.judged_count for r in results)
        assert agg.pooled_miss_rate == pytest.approx(total_missed / total_judged)
        assert 0.0 <= agg.miss_rate.mean <= 1.0

    def test_mixed_schedulers_rejected(self):
        results = [tiny_factory("edf", 5.0, 0), tiny_factory("lsa", 5.0, 0)]
        with pytest.raises(ValueError, match="mixed schedulers"):
            aggregate_results(results)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_results([])

    def test_str_renders(self):
        agg = aggregate_results([tiny_factory("edf", 5.0, 0)])
        assert "edf" in str(agg)


class TestEnergySeries:
    def test_extracts_traced_series(self):
        scale = xscale_pxa()
        sim = HarvestingRtSimulator(
            taskset=TaskSet([PeriodicTask(period=10.0, wcet=1.0, name="t")]),
            source=ConstantSource(1.0),
            storage=IdealStorage(capacity=50.0),
            scheduler=GreedyEdfScheduler(scale),
            config=SimulationConfig(
                horizon=100.0,
                trace_kinds=(TraceKind.ENERGY,),
                energy_sample_interval=10.0,
            ),
        )
        times, fractions = energy_series(sim.run())
        assert times.size >= 10
        assert ((fractions >= 0) & (fractions <= 1)).all()

    def test_untraced_run_raises(self):
        result = tiny_factory("edf", 50.0, 0)
        with pytest.raises(ValueError, match="no energy trace"):
            energy_series(result)


class TestMissRateByTask:
    def test_rates_per_task(self):
        result = tiny_factory("edf", 5.0, 1)
        rates = miss_rate_by_task(result)
        assert set(rates) == {"t"}
        assert 0.0 <= rates["t"] <= 1.0


FAST_SETUP = PaperSetup(horizon=300.0)


@pytest.fixture(autouse=True)
def _no_env_journal(monkeypatch):
    monkeypatch.delenv("REPRO_JOURNAL", raising=False)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


def capacity_sweep(fractions, n_sets=2):
    return run_miss_rate_sweep(
        utilization=0.4, figure="test", setup=FAST_SETUP,
        reference_capacity=50.0, fractions=fractions, n_sets=n_sets,
    )


class TestReplicationDriver:
    def test_runs_all_seeds(self):
        specs = [RunSpec("edf", 0.4, 20.0, s, setup=FAST_SETUP)
                 for s in (0, 1, 2)]
        results = run_journaled_sweep(specs).complete_results()
        direct = [FAST_SETUP.run("edf", 0.4, 20.0, s) for s in (0, 1, 2)]
        assert [result_to_payload(r) for r in results] == [
            result_to_payload(r) for r in direct
        ]

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="no results"):
            capacity_sweep((1.0,), n_sets=0)


class TestCapacitySweepDriver:
    def test_sweep_structure(self):
        points = capacity_sweep((0.1, 1.0)).points
        assert len(points) == 2
        assert set(points[0].by_scheduler) == {"lsa", "ea-dvfs"}
        assert time_eq(points[0].capacity, 5.0)
        assert len(points[0].by_scheduler["lsa"].results) == 2

    def test_miss_rate_accessor(self):
        (point,) = capacity_sweep((0.2,)).points
        for name in ("lsa", "ea-dvfs"):
            direct = [FAST_SETUP.run(name, 0.4, 10.0, s) for s in (0, 1)]
            assert point.miss_rate(name) == pooled_miss_rate(direct)

    def test_larger_capacity_helps(self):
        """Sanity: a much bigger storage cannot miss more (pooled)."""
        small, large = capacity_sweep((0.04, 10.0), n_sets=3).points
        for name in ("lsa", "ea-dvfs"):
            assert large.miss_rate(name) <= small.miss_rate(name)
