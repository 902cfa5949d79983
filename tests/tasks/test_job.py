"""Unit tests for job lifecycle and progress accounting."""

import pytest

from repro.tasks.job import Job, JobState
from repro.tasks.task import AperiodicTask


@pytest.fixture
def task():
    return AperiodicTask(arrival=0.0, relative_deadline=16.0, wcet=4.0, name="tau1")


@pytest.fixture
def job(task):
    return Job(task=task, release=0.0, absolute_deadline=16.0, wcet=4.0)


class TestLifecycle:
    def test_initial_state(self, job):
        assert job.state is JobState.PENDING
        assert job.remaining_work == 4.0
        assert not job.is_finished

    def test_release_transition(self, job):
        job.mark_released()
        assert job.state is JobState.READY

    def test_double_release_rejected(self, job):
        job.mark_released()
        with pytest.raises(RuntimeError):
            job.mark_released()

    def test_execute_requires_ready(self, job):
        with pytest.raises(RuntimeError):
            job.execute(1.0, 1.0, 8.0)

    def test_completion(self, job):
        job.mark_released()
        job.execute(speed=1.0, duration=4.0, power=8.0)
        job.mark_completed(4.0)
        assert job.state is JobState.COMPLETED
        assert job.completion_time == 4.0
        assert job.is_finished

    def test_completion_with_remaining_work_rejected(self, job):
        job.mark_released()
        job.execute(1.0, 2.0, 8.0)
        with pytest.raises(RuntimeError, match="work left"):
            job.mark_completed(2.0)

    def test_miss(self, job):
        job.mark_released()
        job.mark_missed()
        assert job.state is JobState.MISSED
        assert job.is_finished

    def test_miss_after_finish_rejected(self, job):
        job.mark_released()
        job.execute(1.0, 4.0, 8.0)
        job.mark_completed(4.0)
        with pytest.raises(RuntimeError):
            job.mark_missed()


class TestProgress:
    def test_speed_scales_work(self, job):
        """Section 3.3: w/S_n execution time at level S_n."""
        job.mark_released()
        job.execute(speed=0.5, duration=4.0, power=8.0 / 3.0)
        assert job.remaining_work == pytest.approx(2.0)
        assert job.progress == pytest.approx(0.5)

    def test_time_to_finish(self, job):
        job.mark_released()
        assert job.time_to_finish(0.5) == pytest.approx(8.0)
        job.execute(0.5, 4.0, 1.0)
        assert job.time_to_finish(1.0) == pytest.approx(2.0)

    def test_zero_speed_accrues_energy_only(self, job):
        """Dead time (switch overhead) burns power without progress."""
        job.mark_released()
        job.execute(speed=0.0, duration=1.0, power=8.0)
        assert job.remaining_work == 4.0
        assert job.energy_consumed == pytest.approx(8.0)

    def test_overrun_rejected(self, job):
        job.mark_released()
        with pytest.raises(RuntimeError, match="only"):
            job.execute(speed=1.0, duration=5.0, power=8.0)

    def test_energy_accumulates(self, job):
        job.mark_released()
        job.execute(1.0, 1.0, 8.0)
        job.execute(0.5, 2.0, 2.0)
        assert job.energy_consumed == pytest.approx(12.0)

    def test_negative_speed_rejected(self, job):
        job.mark_released()
        with pytest.raises(ValueError):
            job.execute(-0.1, 1.0, 1.0)

    def test_zero_speed_time_to_finish_rejected(self, job):
        with pytest.raises(ValueError):
            job.time_to_finish(0.0)


class TestDerivedMetrics:
    def test_response_time_and_lateness(self, task):
        job = Job(task=task, release=2.0, absolute_deadline=18.0, wcet=4.0)
        job.mark_released()
        job.execute(1.0, 4.0, 8.0)
        job.mark_completed(10.0)
        assert job.response_time == pytest.approx(8.0)
        assert job.lateness == pytest.approx(-8.0)

    def test_unfinished_has_no_response_time(self, job):
        assert job.response_time is None
        assert job.lateness is None

    def test_first_start_recorded_once(self, job):
        job.mark_released()
        job.note_started(3.0)
        job.note_started(7.0)
        assert job.first_start_time == 3.0

    def test_name_combines_task_and_index(self, task):
        job = Job(task=task, release=0.0, absolute_deadline=16.0, wcet=4.0, index=3)
        assert job.name == "tau1#3"

    def test_relative_deadline(self, task):
        job = Job(task=task, release=5.0, absolute_deadline=21.0, wcet=1.5)
        assert job.relative_deadline == pytest.approx(16.0)


class TestValidation:
    def test_deadline_before_release_rejected(self, task):
        with pytest.raises(ValueError):
            Job(task=task, release=10.0, absolute_deadline=10.0, wcet=1.0)

    def test_nonpositive_wcet_rejected(self, task):
        with pytest.raises(ValueError):
            Job(task=task, release=0.0, absolute_deadline=10.0, wcet=0.0)

    def test_negative_release_rejected(self, task):
        with pytest.raises(ValueError):
            Job(task=task, release=-1.0, absolute_deadline=10.0, wcet=1.0)
