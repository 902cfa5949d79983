"""Property-based fuzzing of whole-simulation invariants.

Random workloads, sources, storages and schedulers are thrown at the
simulator; every run must uphold the physical and accounting invariants
of the model regardless of the scenario:

* energy conservation: initial + harvested = drawn + overflow + leaked
  + final stored (ideal storage; lossy adds conversion losses, so only
  an inequality holds there);
* job accounting: released = completed + missed + in-flight;
* causality on every job: release <= start <= completion <= horizon;
* the processor cannot be busy longer than the horizon, and busy plus
  idle time must sum to it.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ea_dvfs import EaDvfsScheduler
from repro.cpu.presets import xscale_pxa
from repro.energy.source import ConstantSource
from repro.energy.storage import IdealStorage
from repro.sched.edf import GreedyEdfScheduler
from repro.sched.lsa import LazyScheduler
from repro.sim.simulator import (
    DeadlineMissPolicy,
    HarvestingRtSimulator,
    SimulationConfig,
)
from repro.tasks.task import PeriodicTask, TaskSet
from repro.timeutils import time_ge, time_le
from repro.verify.strategies import scenario_specs, scheduler_names


class TestSimulationInvariants:
    """Each property draws a fault-free world from the shared strategy
    library (``repro.verify.strategies``) plus a scheduler name, so the
    exact same scenario distribution feeds both these fuzz tests and the
    ``repro verify`` differential harness."""

    @given(spec=scenario_specs(allow_faults=False), name=scheduler_names())
    @settings(max_examples=40, deadline=None)
    def test_energy_conservation(self, spec, name):
        result = spec.run(name)
        balance = (
            spec.capacity  # storage starts full
            + result.harvested_energy
            - result.drawn_energy
            - result.overflow_energy
            - result.leaked_energy
            - result.final_stored
        )
        tolerance = 1e-6 * max(1.0, result.harvested_energy)
        assert abs(balance) < tolerance

    @given(spec=scenario_specs(allow_faults=False), name=scheduler_names())
    @settings(max_examples=40, deadline=None)
    def test_job_accounting(self, spec, name):
        result = spec.run(name)
        finished = result.completed_count + sum(
            1 for j in result.jobs
            if j.completion_time is None and j.is_finished
        )
        assert finished <= result.released_count
        assert 0.0 <= result.miss_rate <= 1.0
        assert result.judged_count <= result.released_count
        if DeadlineMissPolicy(spec.miss_policy) is DeadlineMissPolicy.DROP:
            # Every job is completed, dropped-missed, or still in flight.
            in_flight = sum(1 for j in result.jobs if not j.is_finished)
            assert (
                result.completed_count
                + sum(1 for j in result.jobs if j.is_finished
                      and j.completion_time is None)
                + in_flight
                == result.released_count
            )

    @given(spec=scenario_specs(allow_faults=False), name=scheduler_names())
    @settings(max_examples=40, deadline=None)
    def test_job_causality(self, spec, name):
        result = spec.run(name)
        drop = DeadlineMissPolicy(spec.miss_policy) is DeadlineMissPolicy.DROP
        for job in result.jobs:
            if job.first_start_time is not None:
                assert job.first_start_time >= job.release - 1e-9
            if job.completion_time is not None:
                assert job.first_start_time is not None
                assert time_ge(job.completion_time, job.first_start_time)
                assert time_le(job.completion_time, spec.horizon)
                if drop:
                    # Dropped-at-deadline jobs never complete late.
                    assert time_le(
                        job.completion_time, job.absolute_deadline, eps=1e-6
                    )

    @given(spec=scenario_specs(allow_faults=False), name=scheduler_names())
    @settings(max_examples=40, deadline=None)
    def test_time_accounting(self, spec, name):
        result = spec.run(name)
        busy = result.total_busy_time
        assert busy >= -1e-9
        assert busy <= spec.horizon + 1e-6
        assert busy + result.idle_time == pytest.approx(
            spec.horizon, abs=1e-6
        )
        assert time_le(result.stall_time, result.idle_time, eps=1e-6)

    @given(spec=scenario_specs(allow_faults=False), name=scheduler_names())
    @settings(max_examples=25, deadline=None)
    def test_energy_aware_policies_never_run_negative_storage(self, spec, name):
        result = spec.run(name)
        assert result.final_stored >= -1e-6
        assert result.final_stored <= spec.capacity + 1e-6

    @given(spec=scenario_specs(), name=scheduler_names())
    @settings(max_examples=25, deadline=None)
    def test_faulted_worlds_stay_physical(self, spec, name):
        """With fault decorators active the strict ledger no longer
        applies, but the physical bounds must survive any fault mix."""
        result = spec.run(name)
        assert result.final_stored >= -1e-6
        assert time_ge(result.harvested_energy, 0.0)
        assert time_ge(result.drawn_energy, 0.0)
        assert result.total_busy_time <= spec.horizon + 1e-6


class TestEdfOptimalityCrossCheck:
    """With infinite energy, preemptive EDF is optimal (Liu & Layland):
    any task set that passes the offline schedulability test must run
    with zero misses — a whole-stack cross-check between the analytic
    module and the simulator."""

    # stretch-edf is deliberately excluded: greedy per-job stretching is
    # NOT optimal (the paper's Figure 3 counterexample), so it may miss
    # even on schedulable sets.  The three EDF-degenerate policies must
    # not.
    @given(
        n=st.integers(min_value=1, max_value=5),
        u=st.floats(min_value=0.1, max_value=1.0),
        seed=st.integers(min_value=0, max_value=100),
        scheduler_cls=st.sampled_from(
            (GreedyEdfScheduler, LazyScheduler, EaDvfsScheduler)
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_schedulable_sets_never_miss_with_infinite_energy(
        self, n, u, seed, scheduler_cls
    ):
        from repro.analysis.schedulability import edf_schedulable
        from repro.tasks.workload import generate_uunifast_taskset

        taskset = generate_uunifast_taskset(n_tasks=n, utilization=u,
                                            seed=seed)
        assert edf_schedulable(taskset)
        simulator = HarvestingRtSimulator(
            taskset=taskset,
            source=ConstantSource(0.0),
            storage=IdealStorage(capacity=math.inf, initial=math.inf),
            scheduler=scheduler_cls(xscale_pxa()),
            config=SimulationConfig(horizon=400.0),
        )
        result = simulator.run()
        assert result.missed_count == 0

    def test_busy_time_matches_demand_over_hyperperiod(self):
        """With infinite energy and full-speed EDF, the processor's busy
        time over k hyperperiods equals the released work exactly."""
        taskset = TaskSet(
            [
                PeriodicTask(period=10.0, wcet=2.0, name="a"),
                PeriodicTask(period=15.0, wcet=3.0, name="b"),
            ]
        )
        horizon = 4 * taskset.hyperperiod()  # 120
        simulator = HarvestingRtSimulator(
            taskset=taskset,
            source=ConstantSource(0.0),
            storage=IdealStorage(capacity=math.inf, initial=math.inf),
            scheduler=GreedyEdfScheduler(xscale_pxa()),
            config=SimulationConfig(horizon=horizon),
        )
        result = simulator.run()
        expected_work = 12 * 2.0 + 8 * 3.0  # 12 jobs of a, 8 of b
        assert result.total_busy_time == pytest.approx(expected_work)
        assert result.drawn_energy == pytest.approx(expected_work * 3.2)
