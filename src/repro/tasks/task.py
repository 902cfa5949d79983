"""Task-level model: periodic and aperiodic real-time tasks.

Section 3.3 of the paper: tasks are independent and preemptible; a task
``tau_m`` is a triple ``(a_m, d_m, w_m)`` — arrival time, *relative*
deadline and worst-case execution time *at the maximum frequency*.  The
evaluation uses periodic tasks whose relative deadline equals the period.

:class:`Task` subclasses are pure specifications: they enumerate release
times and stamp out :class:`~repro.tasks.job.Job` instances; all runtime
state lives on the jobs.
"""

from __future__ import annotations

import abc
import itertools
import math
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.tasks.job import Job
from repro.timeutils import EPSILON, ordered_sum, validate_interval

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["Task", "PeriodicTask", "AperiodicTask", "TaskSet"]

_task_counter = itertools.count(1)


class Task(abc.ABC):
    """Abstract real-time task specification.

    ``bcet_ratio`` models execution-time variability: when a random
    generator is supplied to :meth:`jobs`, each job's *actual* demand is
    drawn uniformly from ``[bcet_ratio * wcet, wcet]``.  The default of
    1.0 is the paper's model (every job runs exactly its WCET); values
    below 1 let ablations study the implicit slack reclamation of
    energy-aware schedulers.
    """

    def __init__(
        self,
        wcet: float,
        relative_deadline: float,
        name: str = "",
        bcet_ratio: float = 1.0,
    ) -> None:
        if wcet <= 0 or not math.isfinite(wcet):
            raise ValueError(f"wcet must be finite and > 0, got {wcet!r}")
        if relative_deadline <= 0 or not math.isfinite(relative_deadline):
            raise ValueError(
                f"relative deadline must be finite and > 0, got {relative_deadline!r}"
            )
        if wcet > relative_deadline + EPSILON:
            raise ValueError(
                f"wcet {wcet!r} exceeds relative deadline {relative_deadline!r}: "
                "the task cannot meet its deadline even at full speed"
            )
        if not 0.0 < bcet_ratio <= 1.0:
            raise ValueError(
                f"bcet_ratio must lie in (0, 1], got {bcet_ratio!r}"
            )
        self._wcet = float(wcet)
        self._relative_deadline = float(relative_deadline)
        self._name = name or f"task{next(_task_counter)}"
        self._bcet_ratio = float(bcet_ratio)

    @property
    def wcet(self) -> float:
        """Worst-case execution time at the maximum frequency (``w_m``)."""
        return self._wcet

    @property
    def relative_deadline(self) -> float:
        """Relative deadline ``d_m``."""
        return self._relative_deadline

    @property
    def name(self) -> str:
        return self._name

    @property
    def bcet_ratio(self) -> float:
        """Best-case over worst-case execution-time ratio (1.0 = none)."""
        return self._bcet_ratio

    @property
    @abc.abstractmethod
    def utilization(self) -> float:
        """Long-run processor demand of the task at full speed."""

    @abc.abstractmethod
    def release_times(self, horizon: float) -> Iterator[float]:
        """Release instants in ``[0, horizon)``, in increasing order."""

    def jobs(
        self, horizon: float, rng: "np.random.Generator | None" = None
    ) -> Iterator[Job]:
        """Stamp out the jobs released in ``[0, horizon)``.

        With ``bcet_ratio < 1`` a ``numpy`` generator must be supplied to
        sample per-job actual demands; without one, jobs run exactly
        their WCET.
        """
        for index, release in enumerate(self.release_times(horizon)):
            actual = self._wcet
            if rng is not None and self._bcet_ratio < 1.0:
                actual = self._wcet * float(
                    rng.uniform(self._bcet_ratio, 1.0)
                )
            yield Job(
                task=self,
                release=release,
                absolute_deadline=release + self._relative_deadline,
                wcet=self._wcet,
                index=index,
                actual_work=actual,
            )

    @abc.abstractmethod
    def with_wcet(self, wcet: float) -> "Task":
        """A copy of this task with a different WCET (utilization scaling)."""


class PeriodicTask(Task):
    """Strictly periodic task; deadline defaults to the period.

    ``first_release`` (phase) defaults to 0, matching the synchronous
    release convention of the paper's experiments.
    """

    def __init__(
        self,
        period: float,
        wcet: float,
        relative_deadline: Optional[float] = None,
        first_release: float = 0.0,
        name: str = "",
        bcet_ratio: float = 1.0,
    ) -> None:
        if period <= 0 or not math.isfinite(period):
            raise ValueError(f"period must be finite and > 0, got {period!r}")
        if first_release < 0 or not math.isfinite(first_release):
            raise ValueError(
                f"first_release must be finite and >= 0, got {first_release!r}"
            )
        deadline = period if relative_deadline is None else relative_deadline
        super().__init__(wcet, deadline, name, bcet_ratio)
        self._period = float(period)
        self._first_release = float(first_release)

    @property
    def period(self) -> float:
        return self._period

    @property
    def first_release(self) -> float:
        return self._first_release

    @property
    def utilization(self) -> float:
        return self._wcet / self._period

    def release_times(self, horizon: float) -> Iterator[float]:
        validate_interval(0.0, horizon)
        k = 0
        while True:
            release = self._first_release + k * self._period
            if release >= horizon - EPSILON:
                return
            yield release
            k += 1

    def with_wcet(self, wcet: float) -> "PeriodicTask":
        return PeriodicTask(
            period=self._period,
            wcet=wcet,
            relative_deadline=self._relative_deadline,
            first_release=self._first_release,
            name=self._name,
            bcet_ratio=self._bcet_ratio,
        )

    def __repr__(self) -> str:
        return (
            f"PeriodicTask(name={self._name!r}, period={self._period!r}, "
            f"wcet={self._wcet!r}, deadline={self._relative_deadline!r})"
        )


class AperiodicTask(Task):
    """One-shot task released once at ``arrival`` (the paper's triples)."""

    def __init__(
        self,
        arrival: float,
        relative_deadline: float,
        wcet: float,
        name: str = "",
        bcet_ratio: float = 1.0,
    ) -> None:
        if arrival < 0 or not math.isfinite(arrival):
            raise ValueError(f"arrival must be finite and >= 0, got {arrival!r}")
        super().__init__(wcet, relative_deadline, name, bcet_ratio)
        self._arrival = float(arrival)

    @property
    def arrival(self) -> float:
        return self._arrival

    @property
    def utilization(self) -> float:
        return 0.0  # one-shot tasks impose no long-run demand

    def release_times(self, horizon: float) -> Iterator[float]:
        validate_interval(0.0, horizon)
        if self._arrival < horizon - EPSILON:
            yield self._arrival

    def with_wcet(self, wcet: float) -> "AperiodicTask":
        return AperiodicTask(
            arrival=self._arrival,
            relative_deadline=self._relative_deadline,
            wcet=wcet,
            name=self._name,
            bcet_ratio=self._bcet_ratio,
        )

    def __repr__(self) -> str:
        return (
            f"AperiodicTask(name={self._name!r}, arrival={self._arrival!r}, "
            f"deadline={self._relative_deadline!r}, wcet={self._wcet!r})"
        )


class TaskSet:
    """An immutable collection of tasks with set-level helpers."""

    def __init__(self, tasks: Iterable[Task]) -> None:
        self._tasks: tuple[Task, ...] = tuple(tasks)
        if not self._tasks:
            raise ValueError("a task set needs at least one task")
        names = [t.name for t in self._tasks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate task names in set: {sorted(names)}")

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, index: int) -> Task:
        return self._tasks[index]

    @property
    def tasks(self) -> Sequence[Task]:
        return self._tasks

    @property
    def utilization(self) -> float:
        """Total full-speed utilization ``U = sum(w_m / p_m)`` (eq. (14))."""
        return ordered_sum(t.utilization for t in self._tasks)

    def periodic_tasks(self) -> list[PeriodicTask]:
        return [t for t in self._tasks if isinstance(t, PeriodicTask)]

    def hyperperiod(self) -> float:
        """LCM of the periods (requires all-periodic, near-integer periods)."""
        periodic = self.periodic_tasks()
        if len(periodic) != len(self._tasks):
            raise ValueError("hyperperiod is defined for all-periodic sets only")
        result = 1
        for task in periodic:
            period = round(task.period)
            if abs(period - task.period) > EPSILON or period <= 0:
                raise ValueError(
                    f"hyperperiod requires integer periods, got {task.period!r}"
                )
            result = math.lcm(result, period)
        return float(result)

    def jobs(
        self, horizon: float, rng: "np.random.Generator | None" = None
    ) -> list[Job]:
        """All jobs of all tasks released in ``[0, horizon)``, sorted.

        Sorted by (release, absolute deadline, task name) — a deterministic
        total order for simulator arrival processing.  ``rng`` (a numpy
        generator) enables per-job actual-demand sampling for tasks with
        ``bcet_ratio < 1``.
        """
        all_jobs = [
            job for task in self._tasks for job in task.jobs(horizon, rng)
        ]
        all_jobs.sort(key=lambda j: (j.release, j.absolute_deadline, j.task.name))
        return all_jobs

    def scaled_to(self, utilization: float) -> "TaskSet":
        """A copy rescaled to a target total utilization (periodic only).

        All WCETs are multiplied by the same ratio, exactly the scaling the
        paper applies "to get the specific utilization".
        """
        from repro.tasks.workload import scale_to_utilization

        return scale_to_utilization(self, utilization)

    def __repr__(self) -> str:
        return f"TaskSet(n={len(self._tasks)}, U={self.utilization:.4f})"
