"""Unit tests for the workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.tasks.task import PeriodicTask, TaskSet
from repro.verify.strategies import seeds, task_counts, utilizations
from repro.tasks.workload import (
    PAPER_PERIOD_CHOICES,
    generate_paper_taskset,
    generate_uunifast_taskset,
    scale_to_utilization,
)


class TestScaleToUtilization:
    def test_hits_target_exactly(self):
        ts = TaskSet(
            [
                PeriodicTask(period=10.0, wcet=1.0, name="a"),
                PeriodicTask(period=20.0, wcet=1.0, name="b"),
            ]
        )
        scaled = scale_to_utilization(ts, 0.6)
        assert scaled.utilization == pytest.approx(0.6)

    def test_preserves_relative_wcets(self):
        ts = TaskSet(
            [
                PeriodicTask(period=10.0, wcet=1.0, name="a"),
                PeriodicTask(period=10.0, wcet=3.0, name="b"),
            ]
        )
        scaled = scale_to_utilization(ts, 0.2)
        assert scaled[1].wcet / scaled[0].wcet == pytest.approx(3.0)

    def test_over_deadline_scaling_rejected(self):
        # With deadline == period the per-task bound w <= d always holds
        # after scaling to U <= 1, but a constrained deadline (d < p) can
        # be overrun: w = 4 scaled by 2.5 -> 10 > d = 5.
        ts = TaskSet([PeriodicTask(period=10.0, wcet=4.0,
                                   relative_deadline=5.0, name="a")])
        with pytest.raises(ValueError, match="past its deadline"):
            scale_to_utilization(ts, 1.0)

    def test_invalid_target_rejected(self):
        ts = TaskSet([PeriodicTask(period=10.0, wcet=1.0)])
        with pytest.raises(ValueError):
            scale_to_utilization(ts, 0.0)
        with pytest.raises(ValueError):
            scale_to_utilization(ts, 1.5)


class TestPaperGenerator:
    def test_deterministic_given_seed(self):
        kwargs = dict(
            n_tasks=5, utilization=0.4, mean_harvest_power=4.0, max_power=3.2
        )
        a = generate_paper_taskset(seed=1, **kwargs)
        b = generate_paper_taskset(seed=1, **kwargs)
        assert [(t.period, t.wcet) for t in a] == [(t.period, t.wcet) for t in b]

    def test_different_seeds_differ(self):
        kwargs = dict(
            n_tasks=5, utilization=0.4, mean_harvest_power=4.0, max_power=3.2
        )
        a = generate_paper_taskset(seed=1, **kwargs)
        b = generate_paper_taskset(seed=2, **kwargs)
        assert [(t.period, t.wcet) for t in a] != [(t.period, t.wcet) for t in b]

    def test_utilization_exact(self):
        ts = generate_paper_taskset(
            n_tasks=5, utilization=0.37, mean_harvest_power=4.0,
            max_power=3.2, seed=3,
        )
        assert ts.utilization == pytest.approx(0.37)

    def test_periods_from_paper_set(self):
        """Section 5.1: periods drawn from {10, 20, ..., 100}."""
        ts = generate_paper_taskset(
            n_tasks=50, utilization=0.5, mean_harvest_power=4.0,
            max_power=3.2, seed=4,
        )
        assert all(t.period in PAPER_PERIOD_CHOICES for t in ts)

    def test_deadline_equals_period(self):
        ts = generate_paper_taskset(
            n_tasks=5, utilization=0.4, mean_harvest_power=4.0,
            max_power=3.2, seed=5,
        )
        assert all(t.relative_deadline == t.period for t in ts)

    def test_every_task_individually_feasible(self):
        ts = generate_paper_taskset(
            n_tasks=5, utilization=1.0, mean_harvest_power=4.0,
            max_power=3.2, seed=6,
        )
        assert all(t.wcet <= t.period for t in ts)

    def test_rng_and_seed_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            generate_paper_taskset(
                n_tasks=2, utilization=0.4, mean_harvest_power=4.0,
                max_power=3.2, seed=1, rng=np.random.default_rng(0),
            )

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            generate_paper_taskset(
                n_tasks=0, utilization=0.4, mean_harvest_power=4.0, max_power=3.2
            )
        with pytest.raises(ValueError):
            generate_paper_taskset(
                n_tasks=2, utilization=0.4, mean_harvest_power=0.0, max_power=3.2
            )
        with pytest.raises(ValueError):
            generate_paper_taskset(
                n_tasks=2, utilization=0.4, mean_harvest_power=4.0, max_power=3.2,
                period_choices=(),
            )

    @given(
        n_tasks=task_counts(max_tasks=12),
        utilization=utilizations(),
        seed=seeds(max_seed=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_generated_sets_always_valid(self, n_tasks, utilization, seed):
        ts = generate_paper_taskset(
            n_tasks=n_tasks, utilization=utilization,
            mean_harvest_power=3.99, max_power=3.2, seed=seed,
        )
        assert len(ts) == n_tasks
        assert ts.utilization == pytest.approx(utilization)
        assert all(0 < t.wcet <= t.period for t in ts)


class TestUUniFast:
    def test_utilization_exact(self):
        ts = generate_uunifast_taskset(n_tasks=6, utilization=0.73, seed=1)
        assert ts.utilization == pytest.approx(0.73)

    def test_deterministic_given_seed(self):
        a = generate_uunifast_taskset(n_tasks=4, utilization=0.5, seed=9)
        b = generate_uunifast_taskset(n_tasks=4, utilization=0.5, seed=9)
        assert [(t.period, t.wcet) for t in a] == [(t.period, t.wcet) for t in b]

    def test_single_task(self):
        ts = generate_uunifast_taskset(n_tasks=1, utilization=0.6, seed=2)
        assert len(ts) == 1
        assert ts.utilization == pytest.approx(0.6)

    @given(
        n_tasks=task_counts(max_tasks=10),
        utilization=utilizations(),
        seed=seeds(max_seed=500),
    )
    @settings(max_examples=50, deadline=None)
    def test_always_feasible(self, n_tasks, utilization, seed):
        ts = generate_uunifast_taskset(
            n_tasks=n_tasks, utilization=utilization, seed=seed
        )
        assert ts.utilization == pytest.approx(utilization)
        assert all(0 < t.wcet <= t.period + 1e-9 for t in ts)
