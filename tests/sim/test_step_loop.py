"""The scalar simulator's step loop: event order and source queries."""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.predictor import ProfilePredictor
from repro.energy.storage import IdealStorage
from repro.experiments.common import PaperSetup
from repro.sched.registry import make_scheduler
from repro.sim.simulator import (
    HarvestingRtSimulator,
    SimulationConfig,
    _event_rows,
    event_time,
)
from repro.tasks.task import PeriodicTask, TaskSet
from repro.timeutils import EPSILON

HORIZON = 12.0

#: Deadlines on, just inside and just beyond the ``horizon + EPSILON``
#: judging cut, besides ordinary ones.
DEADLINE_OFFSETS = (0.0, 0.5 * EPSILON, 2.0 * EPSILON)

tasks = st.builds(
    lambda period, first_release, deadline: PeriodicTask(
        period=period,
        wcet=0.5,
        relative_deadline=deadline,
        first_release=first_release,
    ),
    period=st.sampled_from((1.0, 2.0, 3.0, 4.0, 6.0)),
    first_release=st.sampled_from((0.0, 0.0, 1.0, 2.0, 0.5)),
    deadline=st.one_of(
        st.sampled_from((1.0, 2.0, 3.0, 4.0, 6.0)),
        st.sampled_from(DEADLINE_OFFSETS).map(lambda off: HORIZON + off),
    ),
)


def popped_the_old_way(jobs, horizon):
    """(time, kind, job) in the order a heap seeded per job pops.

    Keyed ``(time, priority, seq)``: deadlines (priority 0) before
    releases (priority 1) at equal times, then insertion order.
    """
    heap = []
    for job in jobs:
        heapq.heappush(heap, (job.release, 1, len(heap), "release", job))
        if job.absolute_deadline <= horizon + EPSILON:
            heapq.heappush(
                heap, (job.absolute_deadline, 0, len(heap), "deadline", job)
            )
    popped = [heapq.heappop(heap) for _ in range(len(heap))]
    return [(time, kind, job) for time, _, _, kind, job in popped]


class TestEventTime:
    def test_past_scheduling_rejected(self):
        with pytest.raises(ValueError, match="into the past"):
            event_time(1.0, 5.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            event_time(math.nan, 0.0)

    def test_slightly_past_snaps_to_now(self):
        assert event_time(5.0 - 1e-12, 5.0) == 5.0


class TestEventRows:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(tasks, min_size=1, max_size=5),
        st.sampled_from((HORIZON, HORIZON - 1.0, HORIZON + 0.5)),
        st.data(),
    )
    def test_rows_match_event_queue_pop_order(self, task_list, horizon, data):
        jobs = TaskSet(task_list).jobs(horizon)
        # The insertion index breaks ties, so any job order must match.
        jobs = data.draw(st.permutations(jobs))
        expected = popped_the_old_way(jobs, horizon)
        rows = _event_rows(jobs, horizon)
        assert [(t, kind) for t, kind, _ in rows] == [
            (t, kind) for t, kind, _ in expected
        ]
        assert all(
            got is want for (_, _, got), (_, _, want) in zip(rows, expected)
        )

    def test_coincident_instants_put_deadlines_first(self):
        task = PeriodicTask(period=2.0, wcet=0.5)
        rows = _event_rows(TaskSet([task]).jobs(4.0), 4.0)
        assert [(t, kind, job.index) for t, kind, job in rows] == [
            (0.0, "release", 0),
            (2.0, "deadline", 0),
            (2.0, "release", 1),
            (4.0, "deadline", 1),
        ]


class _QueryCounter:
    """Counts a source's quantum indices and, unless told not to, its
    ``power`` reads (an instance-level ``power`` override)."""

    def __init__(self, source, count_power=True):
        self.power = 0
        self.index = 0
        power, index = source.power, source._index

        def counted_power(t):
            self.power += 1
            return power(t)

        def counted_index(t):
            self.index += 1
            return index(t)

        if count_power:
            source.power = counted_power
        source._index = counted_index


def counted_run(setup, source, counter):
    """Run one profile-predictor cell on ``source``; returns the result,
    the step count and the counter's counts when the result walk starts."""
    scale = setup.scale()
    sim = HarvestingRtSimulator(
        taskset=setup.taskset(0, 0.4),
        source=source,
        storage=IdealStorage(capacity=50.0),
        scheduler=make_scheduler("ea-dvfs", scale),
        predictor=ProfilePredictor(),
        config=SimulationConfig(horizon=setup.horizon),
    )
    steps = 0
    segment_end = sim._segment_end

    def counted_segment_end(*args):
        nonlocal steps
        steps += 1
        return segment_end(*args)

    at_result = {}
    build_result = sim._build_result

    def counted_build_result():
        at_result["power"], at_result["index"] = (
            counter.power, counter.index
        )
        return build_result()

    sim._segment_end = counted_segment_end
    sim._build_result = counted_build_result
    return sim.run(), steps, at_result


class TestSourceQueries:
    def test_one_power_read_per_step(self):
        setup = PaperSetup(horizon=2000.0)
        source = setup.source(0)
        counter = _QueryCounter(source)
        result, steps, at_result = counted_run(setup, source, counter)

        assert steps > setup.horizon  # at least one step per quantum
        assert result.stall_count > 0 and result.switch_count > 0
        # One read per step plus the initial read.
        assert at_result["power"] <= steps + 1
        # The harvested-energy walk: at most one index, no power().
        assert counter.power == at_result["power"]
        assert counter.index - at_result["index"] <= 1

    def test_one_quantum_index_per_step(self):
        # With power() not overridden, one index serves each step's
        # harvest power and its source boundary.
        setup = PaperSetup(horizon=2000.0)
        source = setup.source(0)
        counter = _QueryCounter(source, count_power=False)
        result, steps, at_result = counted_run(setup, source, counter)

        assert steps > setup.horizon
        assert result.stall_count > 0
        assert at_result["index"] <= steps + 1
        assert counter.index - at_result["index"] <= 1

    def test_instance_power_override_is_read_every_step(self):
        setup = PaperSetup(horizon=2000.0)
        source = setup.source(0)
        counter = _QueryCounter(source)
        _, steps, at_result = counted_run(setup, source, counter)
        assert at_result["power"] == steps + 1
