"""Deterministic preemption scenarios for EA-DVFS.

The paper defines the s1/s2 computations per task at release; the
reproduction re-evaluates them at every scheduling point with the
*remaining* work (documented generalization).  These hand-computable
scenarios pin down what happens when an urgent job lands in the middle
of a committed slow phase.
"""

import pytest

from repro.core.ea_dvfs import EaDvfsScheduler
from repro.cpu.presets import motivational_example_scale
from repro.energy.predictor import OraclePredictor
from repro.energy.source import ConstantSource
from repro.energy.storage import IdealStorage
from repro.sim.schedule_view import schedule_intervals
from repro.sim.simulator import HarvestingRtSimulator, SimulationConfig
from repro.sim.tracing import TraceKind
from repro.tasks.task import AperiodicTask, TaskSet
from repro.timeutils import time_le

TRACE_KINDS = (
    TraceKind.JOB_START,
    TraceKind.JOB_PREEMPT,
    TraceKind.JOB_COMPLETE,
    TraceKind.JOB_MISS,
    TraceKind.FREQ_CHANGE,
    TraceKind.STALL,
)


def run_scenario(tasks, initial=24.0, harvest=0.5, capacity=100.0,
                 horizon=40.0):
    scale = motivational_example_scale()
    source = ConstantSource(harvest)
    simulator = HarvestingRtSimulator(
        taskset=TaskSet(tasks),
        source=source,
        storage=IdealStorage(capacity=capacity, initial=initial),
        scheduler=EaDvfsScheduler(scale),
        predictor=OraclePredictor(source),
        config=SimulationConfig(horizon=horizon, trace_kinds=TRACE_KINDS),
    )
    return simulator.run()


class TestMidStretchPreemption:
    def test_urgent_job_preempts_slow_phase(self):
        """A tight-deadline job released mid-stretch runs immediately at
        full speed (its own window has no slack), then the long job
        resumes and still meets its deadline."""
        result = run_scenario(
            [
                AperiodicTask(0.0, 16.0, 4.0, name="long"),
                # Released at 6 (inside long's [4, 12] slow phase) with
                # only 1.5x its work as window: full speed required.
                AperiodicTask(6.0, 1.5, 1.5, name="urgent"),
            ],
            initial=50.0,  # plenty: the test isolates the timing logic
        )
        assert result.missed_count == 0
        by_name = {j.task.name: j for j in result.jobs}
        urgent = by_name["urgent"]
        assert urgent.first_start_time == pytest.approx(6.0)
        assert urgent.completion_time == pytest.approx(7.5)
        long_job = by_name["long"]
        assert long_job.completion_time is not None
        assert long_job.completion_time <= 16.0 + 1e-9
        # The preemption is visible in the trace.
        preempts = result.trace.by_kind(TraceKind.JOB_PREEMPT)
        assert any(r["job"] == "long#0" for r in preempts)

    def test_resumed_job_replans_with_remaining_work(self):
        """After preemption, the long job's new plan uses its *remaining*
        work: the slow phase still fits, so some execution happens below
        full speed both before and after the urgent job."""
        # Budget check: stretched long (8 * 8/3 = 21.3) plus full-speed
        # urgent (1.5 * 8 = 12) needs ~33.3; with initial 28 the available
        # energy through t=16 is 36, enough for both (24 as in Figure 1
        # would correctly sacrifice the long job).
        result = run_scenario(
            [
                AperiodicTask(0.0, 16.0, 4.0, name="long"),
                AperiodicTask(6.0, 1.5, 1.5, name="urgent"),
            ],
            initial=28.0,
        )
        assert result.missed_count == 0
        intervals = schedule_intervals(result.trace, end_time=40.0)
        long_speeds = {
            round(i.speed, 3) for i in intervals if i.job == "long#0"
        }
        assert 0.5 in long_speeds  # stretched execution occurred
        urgent_intervals = [i for i in intervals if i.job == "urgent#0"]
        assert all(i.speed == 1.0 for i in urgent_intervals)

    def test_two_urgent_jobs_back_to_back(self):
        """EDF order among equal-release urgent jobs is by deadline."""
        result = run_scenario(
            [
                AperiodicTask(0.0, 30.0, 3.0, name="long"),
                AperiodicTask(5.0, 4.0, 1.0, name="u1"),
                AperiodicTask(5.0, 8.0, 1.0, name="u2"),
            ],
            initial=60.0,
        )
        assert result.missed_count == 0
        by_name = {j.task.name: j for j in result.jobs}
        assert by_name["u1"].completion_time < by_name["u2"].completion_time

    def test_energy_scarce_preemption_may_sacrifice_the_long_job(self):
        """When the urgent job burns the shared budget, the long job may
        miss — but the urgent one must not."""
        result = run_scenario(
            [
                AperiodicTask(0.0, 16.0, 4.0, name="long"),
                AperiodicTask(6.0, 1.5, 1.5, name="urgent"),
            ],
            initial=14.0,  # not enough for both
            harvest=0.2,
        )
        by_name = {j.task.name: j for j in result.jobs}
        urgent = by_name["urgent"]
        assert urgent.completion_time is not None
        assert time_le(urgent.completion_time, urgent.absolute_deadline)
