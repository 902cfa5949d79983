"""Unit tests for tasks and task sets."""

# Task parameters and release instants are copied or summed from exact
# literals, so the tests pin them exactly.

import pytest

from repro.tasks.task import AperiodicTask, PeriodicTask, TaskSet


class TestPeriodicTask:
    def test_deadline_defaults_to_period(self):
        task = PeriodicTask(period=10.0, wcet=2.0)
        assert task.relative_deadline == 10.0

    def test_utilization(self):
        task = PeriodicTask(period=10.0, wcet=2.5)
        assert task.utilization == pytest.approx(0.25)

    def test_release_times(self):
        task = PeriodicTask(period=10.0, wcet=1.0)
        assert list(task.release_times(35.0)) == [0.0, 10.0, 20.0, 30.0]

    def test_release_excludes_horizon(self):
        task = PeriodicTask(period=10.0, wcet=1.0)
        assert list(task.release_times(30.0)) == [0.0, 10.0, 20.0]

    def test_phase_offsets_releases(self):
        task = PeriodicTask(period=10.0, wcet=1.0, first_release=3.0)
        assert list(task.release_times(25.0)) == [3.0, 13.0, 23.0]

    def test_jobs_carry_parameters(self):
        task = PeriodicTask(period=10.0, wcet=2.0, relative_deadline=8.0)
        jobs = list(task.jobs(20.0))
        assert len(jobs) == 2
        assert jobs[1].release == 10.0
        assert jobs[1].absolute_deadline == 18.0
        assert jobs[1].wcet == 2.0
        assert jobs[1].index == 1

    def test_wcet_beyond_deadline_rejected(self):
        with pytest.raises(ValueError, match="cannot meet its deadline"):
            PeriodicTask(period=10.0, wcet=11.0)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTask(period=0.0, wcet=1.0)

    def test_with_wcet_preserves_everything_else(self):
        task = PeriodicTask(period=10.0, wcet=2.0, relative_deadline=9.0,
                            first_release=1.0, name="t")
        copy = task.with_wcet(3.0)
        assert copy.wcet == 3.0
        assert copy.period == 10.0
        assert copy.relative_deadline == 9.0
        assert copy.first_release == 1.0
        assert copy.name == "t"

    def test_auto_names_unique(self):
        a = PeriodicTask(period=10.0, wcet=1.0)
        b = PeriodicTask(period=10.0, wcet=1.0)
        assert a.name != b.name


class TestAperiodicTask:
    def test_single_release(self):
        task = AperiodicTask(arrival=5.0, relative_deadline=16.0, wcet=1.5)
        assert list(task.release_times(100.0)) == [5.0]

    def test_no_release_beyond_horizon(self):
        task = AperiodicTask(arrival=50.0, relative_deadline=10.0, wcet=1.0)
        assert list(task.release_times(20.0)) == []

    def test_zero_longrun_utilization(self):
        task = AperiodicTask(arrival=0.0, relative_deadline=10.0, wcet=5.0)
        assert task.utilization == 0.0

    def test_job_deadline_absolute(self):
        task = AperiodicTask(arrival=5.0, relative_deadline=16.0, wcet=1.5)
        (job,) = task.jobs(100.0)
        assert job.absolute_deadline == 21.0


class TestTaskSet:
    def test_total_utilization(self):
        ts = TaskSet(
            [
                PeriodicTask(period=10.0, wcet=2.0, name="a"),
                PeriodicTask(period=20.0, wcet=4.0, name="b"),
            ]
        )
        assert ts.utilization == pytest.approx(0.4)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TaskSet(
                [
                    PeriodicTask(period=10.0, wcet=1.0, name="x"),
                    PeriodicTask(period=20.0, wcet=1.0, name="x"),
                ]
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TaskSet([])

    def test_jobs_sorted_by_release(self):
        ts = TaskSet(
            [
                PeriodicTask(period=7.0, wcet=1.0, name="a"),
                PeriodicTask(period=5.0, wcet=1.0, name="b"),
            ]
        )
        jobs = ts.jobs(20.0)
        releases = [j.release for j in jobs]
        assert releases == sorted(releases)
        assert len(jobs) == 3 + 4

    def test_hyperperiod(self):
        ts = TaskSet(
            [
                PeriodicTask(period=10.0, wcet=1.0, name="a"),
                PeriodicTask(period=15.0, wcet=1.0, name="b"),
            ]
        )
        assert ts.hyperperiod() == 30.0

    def test_hyperperiod_rejects_aperiodic(self):
        ts = TaskSet([AperiodicTask(arrival=0.0, relative_deadline=5.0, wcet=1.0)])
        with pytest.raises(ValueError, match="all-periodic"):
            ts.hyperperiod()

    def test_hyperperiod_rejects_non_integer_periods(self):
        ts = TaskSet([PeriodicTask(period=2.5, wcet=1.0)])
        with pytest.raises(ValueError, match="integer periods"):
            ts.hyperperiod()

    def test_scaled_to(self):
        ts = TaskSet(
            [
                PeriodicTask(period=10.0, wcet=2.0, name="a"),
                PeriodicTask(period=20.0, wcet=4.0, name="b"),
            ]
        )
        scaled = ts.scaled_to(0.8)
        assert scaled.utilization == pytest.approx(0.8)
        # proportions preserved
        assert scaled[0].wcet / scaled[1].wcet == pytest.approx(0.5)

    def test_indexing_and_iteration(self):
        tasks = [PeriodicTask(period=10.0, wcet=1.0, name=f"t{i}") for i in range(3)]
        ts = TaskSet(tasks)
        assert len(ts) == 3
        assert ts[0] is tasks[0]
        assert list(ts) == tasks
