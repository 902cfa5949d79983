"""The energy-harvesting real-time system simulator.

Binds the four subsystems of the paper's Figure 2 — energy source, energy
storage, DVFS processor, and a scheduling policy — into one
discrete-event simulation.

Design
------
The simulation advances in *segments*: maximal intervals over which the
harvested power, the drawn power and the execution speed are all constant.
Within a segment every quantity is linear in time, so storage levels, job
progress and depletion instants are computed analytically — there is no
numeric integration error anywhere.  Segment boundaries are the earliest
of:

* the next release or deadline event (all of them are known up front,
  so they are kept in one list presorted by ``(time, priority,
  insertion index)`` and walked with a cursor),
* the next quantum boundary of the energy source (harvest power changes),
* the running job's completion at its current speed,
* the scheduler plan's ``switch_to_max_at`` instant (EA-DVFS's ``s2``),
* the scheduler's requested ``reconsider_at`` wake-up,
* the instant the storage would deplete (the job then *stalls*),
* the next energy-trace sample point and the simulation horizon.

Scheduling points (where :meth:`~repro.sched.base.Scheduler.decide` is
invoked) are: job release, job completion, a deadline miss, stall
recovery, the scheduler's own wake-up — and, while the processor is idle
with ready work, every source quantum boundary (so energy-aware policies
react to harvest that deviates from its prediction).  A *running* plan is
deliberately not re-evaluated at quantum boundaries: the paper's worked
examples (Figures 1 and 3) commit to the ``(f_n until s2, f_max after)``
plan at dispatch, and re-planning mid-execution would drift ``s2``.

Events and decisions do not move time, so the source is read once per
step: one read where a segment ends gives both the harvest power and the
source's next boundary (:func:`~repro.energy.source.piece_reader`, one
quantum index for a quantized source).  That harvest sizes and evolves
the next segment, whose end and any stall's resume instant reuse that
boundary, and sizing and evolving share one computed draw power.

Stalls: when the storage hits zero while the processor draws more than
the instantaneous harvest, the job is suspended and the system idles
until the next source quantum boundary before retrying (bounded event
rate; see DESIGN.md).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.cpu.dvfs import FrequencyLevel
from repro.cpu.processor import Processor
from repro.energy.predictor import HarvestPredictor, OraclePredictor
from repro.energy.source import EnergySource, piece_reader
from repro.energy.storage import EnergyStorage
from repro.sched.base import Decision, EnergyOutlook, Scheduler
from repro.sim.tracing import Trace, TraceKind
from repro.sim.watchdog import SimulationWatchdog
from repro.tasks.job import Job, JobState
from repro.tasks.queue import EdfReadyQueue
from repro.tasks.task import TaskSet
from repro.timeutils import EPSILON, INFINITY, ordered_sum

__all__ = [
    "DeadlineMissPolicy",
    "SimulationConfig",
    "SimulationResult",
    "HarvestingRtSimulator",
]

_RELEASE = "release"
_DEADLINE = "deadline"

#: Event priorities: deadline checks run before releases at equal times so
#: that a job due exactly when another arrives is judged on its own merits.
_PRIO_DEADLINE = 0
_PRIO_RELEASE = 1

# Run constants shared by both engines (``repro.sim.batch`` reads them).
#: After a stall, retry no later than this long after the stall began
#: (sources whose power never changes have no quantum boundary to wait for).
STALL_RETRY_INTERVAL = 1.0
#: Safety valve against runaway event loops: loop iterations per run.
MAX_ITERATIONS = 50_000_000
#: A run that takes more than this many steps in a row without moving
#: time fails instead of spinning.
STAGNATION_LIMIT = 1000


def event_time(time: float, now: float) -> float:
    """The instant an event requested at ``time`` is scheduled for.

    ``time`` must not lie in the past (tolerance
    :data:`~repro.timeutils.EPSILON`; slightly-past times are snapped to
    ``now``) and must not be NaN; either raises :class:`ValueError`.
    """
    if math.isnan(time):
        raise ValueError("cannot schedule an event at NaN")
    if time < now:
        if time < now - EPSILON:
            raise ValueError(
                f"cannot schedule into the past: now={now!r}, "
                f"requested {time!r}"
            )
        time = now
    return float(time)


def _event_rows(
    jobs: Sequence[Job], horizon: float
) -> list[tuple[float, str, Job]]:
    """Every release and judged deadline as presorted ``(time, kind, job)``.

    A release per job and a deadline per job due within the horizon,
    ordered by ``(time, priority, insertion index)`` with jobs inserted
    in order, release before deadline.  That is the order a binary heap
    seeded with the same events pops them in, and the simulator
    schedules nothing after seeding, so one sorted list replaces the
    heap.  Times pass :func:`event_time`'s checks.
    """
    keyed: list[tuple[float, int, int, str, Job]] = []
    for job in jobs:
        keyed.append(
            (event_time(job.release, 0.0), _PRIO_RELEASE, len(keyed),
             _RELEASE, job)
        )
        if job.absolute_deadline <= horizon + EPSILON:
            keyed.append(
                (event_time(job.absolute_deadline, 0.0), _PRIO_DEADLINE,
                 len(keyed), _DEADLINE, job)
            )
    # The insertion index makes every key unique, so the sort never
    # compares kinds or jobs.
    keyed.sort()
    return [(time, kind, job) for time, _, _, kind, job in keyed]


class DeadlineMissPolicy(enum.Enum):
    """What happens to a job that reaches its deadline unfinished."""

    #: The job is aborted and removed (default; energy already spent on it
    #: is lost — the paper counts such jobs as deadline misses).
    DROP = "drop"
    #: The miss is counted but the job keeps executing to completion.
    CONTINUE = "continue"


@dataclass(frozen=True)
class SimulationConfig:
    """Run-level knobs of the simulator."""

    #: Simulated horizon; releases and deadline checks beyond it are ignored.
    horizon: float = 10_000.0
    miss_policy: DeadlineMissPolicy = DeadlineMissPolicy.DROP
    #: Trace record kinds to collect (empty = trace nothing).
    trace_kinds: tuple[str, ...] = ()
    #: Record an ENERGY trace sample every this many time units.
    energy_sample_interval: Optional[float] = None
    #: Seed for per-job actual-execution-time sampling (tasks with
    #: ``bcet_ratio < 1``); ``None`` runs every job at its WCET.
    aet_seed: Optional[int] = None
    #: Audit every segment with a :class:`~repro.sim.watchdog.SimulationWatchdog`
    #: (energy conservation, causality) and abort with a structured
    #: :class:`~repro.sim.watchdog.WatchdogError` on violation.
    watchdog: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.horizon) or self.horizon <= 0:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon!r}")
        unknown = set(self.trace_kinds) - set(TraceKind.ALL)
        if unknown:
            raise ValueError(f"unknown trace kinds: {sorted(unknown)}")
        if self.energy_sample_interval is not None and (
            self.energy_sample_interval <= 0
        ):
            raise ValueError(
                "energy_sample_interval must be > 0, got "
                f"{self.energy_sample_interval!r}"
            )


@dataclass
class SimulationResult:
    """Everything measured during one simulation run."""

    scheduler_name: str
    horizon: float
    jobs: Sequence[Job]
    released_count: int
    completed_count: int
    missed_count: int
    #: Jobs whose deadline fell within the horizon — the miss-rate
    #: denominator (jobs still in flight at the end are not judged).
    judged_count: int
    harvested_energy: float
    drawn_energy: float
    overflow_energy: float
    leaked_energy: float
    final_stored: float
    storage_capacity: float
    busy_time_profile: dict[float, float]
    idle_time: float
    switch_count: int
    stall_count: int
    stall_time: float
    per_task_released: dict[str, int] = field(default_factory=dict)
    per_task_missed: dict[str, int] = field(default_factory=dict)
    trace: Trace = field(default_factory=Trace)

    @property
    def miss_rate(self) -> float:
        """Deadline miss rate over jobs judged within the horizon."""
        if self.judged_count == 0:
            return 0.0
        return self.missed_count / self.judged_count

    @property
    def completion_rate(self) -> float:
        if self.judged_count == 0:
            return 1.0
        return 1.0 - self.miss_rate

    @property
    def final_fraction(self) -> float:
        """Normalized remaining energy ``EC(T)/C`` (nan if capacity inf)."""
        if math.isinf(self.storage_capacity):
            return math.nan
        return self.final_stored / self.storage_capacity

    @property
    def total_busy_time(self) -> float:
        return ordered_sum(self.busy_time_profile.values())

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        lines = [
            f"scheduler={self.scheduler_name} horizon={self.horizon:g}",
            (
                f"jobs: released={self.released_count} "
                f"completed={self.completed_count} missed={self.missed_count} "
                f"judged={self.judged_count} miss_rate={self.miss_rate:.4f}"
            ),
            (
                f"energy: harvested={self.harvested_energy:.2f} "
                f"drawn={self.drawn_energy:.2f} "
                f"overflow={self.overflow_energy:.2f} "
                f"final_stored={self.final_stored:.2f}"
            ),
            (
                f"processor: busy={self.total_busy_time:.2f} "
                f"idle={self.idle_time:.2f} switches={self.switch_count} "
                f"stalls={self.stall_count} ({self.stall_time:.2f} time)"
            ),
        ]
        return "\n".join(lines)


class HarvestingRtSimulator:
    """One simulation run of a scheduler over a task set.

    A simulator instance is single-use: build, :meth:`run`, read the
    :class:`SimulationResult`.  All randomness lives in the source and the
    workload — the simulator itself is deterministic.
    """

    def __init__(
        self,
        taskset: TaskSet,
        source: EnergySource,
        storage: EnergyStorage,
        scheduler: Scheduler,
        predictor: Optional[HarvestPredictor] = None,
        processor: Optional[Processor] = None,
        config: Optional[SimulationConfig] = None,
    ) -> None:
        self._taskset = taskset
        self._source = source
        self._storage = storage
        self._scheduler = scheduler
        self._predictor = predictor or OraclePredictor(source)
        self._processor = processor or Processor(scheduler.scale)
        if self._processor.scale is not scheduler.scale:
            if self._processor.scale != scheduler.scale:
                raise ValueError(
                    "processor and scheduler use different frequency scales"
                )
        self._config = config or SimulationConfig()
        self._outlook = EnergyOutlook(self._storage, self._predictor)
        self._watchdog: Optional[SimulationWatchdog] = (
            SimulationWatchdog() if self._config.watchdog else None
        )

        # Presorted events: (kind, job) rows, their times (plus a never
        # due INFINITY after the last), the next row and its time.
        self._events: list[tuple[str, Job]] = []
        self._event_times: list[float] = [INFINITY]
        self._event_ptr = 0
        self._next_event = INFINITY
        self._ready = EdfReadyQueue()
        self._trace = Trace(kinds=self._config.trace_kinds)
        self._t = 0.0
        # The source's ``t -> (power, next boundary)``, and the next
        # boundary after the current t, read with the harvest there.
        self._read_source = piece_reader(source)
        self._boundary = INFINITY

        # Execution plan state.
        self._decision: Optional[Decision] = None
        self._need_decision = True
        self._running: Optional[Job] = None
        self._level: Optional[FrequencyLevel] = None
        self._switch_at: Optional[float] = None
        self._dead_until = 0.0  # end of switching-overhead dead time

        # Stall state.
        self._stalled_until: Optional[float] = None
        self._stall_count = 0
        self._stall_time = 0.0
        self._stall_started: Optional[float] = None

        # Bookkeeping.
        self._jobs: list[Job] = []
        self._missed: set[int] = set()  # id() of jobs already counted missed
        self._completed_count = 0
        self._missed_count = 0
        self._per_task_released: dict[str, int] = {}
        self._per_task_missed: dict[str, int] = {}
        self._next_sample: float = (
            0.0 if self._config.energy_sample_interval is not None else INFINITY
        )
        self._finished = False

    # -- public API -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self._t

    @property
    def trace(self) -> Trace:
        return self._trace

    def run(self) -> SimulationResult:
        """Execute the simulation and return its result (single use)."""
        if self._finished:
            raise RuntimeError("a simulator instance can only run once")
        self._finished = True
        self._seed_events()

        horizon = self._config.horizon
        stagnant = 0
        harvest, self._boundary = self._read_source(self._t)
        for _ in range(MAX_ITERATIONS):
            self._process_due_events()
            if self._t >= horizon - EPSILON:
                break
            self._maybe_decide()
            # Events and decisions do not move time, so ``harvest`` and
            # the source boundary (read at the current t) still hold, and
            # nothing changes the storage between the segment's sizing and
            # its evolution.
            draw = self._current_draw(harvest)
            seg_end = self._segment_end(harvest, draw)
            advanced = self._advance_to(seg_end, harvest, draw)
            harvest = self._post_segment()
            stagnant = 0 if advanced else stagnant + 1
            if stagnant > STAGNATION_LIMIT:
                if self._watchdog is not None:
                    raise self._watchdog.abort(
                        self._t, "simulator made no progress (stagnant loop)"
                    )
                raise RuntimeError(
                    f"simulator made no progress at t={self._t!r} "
                    f"(decision={self._decision!r})"
                )
        else:
            if self._watchdog is not None:
                raise self._watchdog.abort(
                    self._t,
                    f"simulation exceeded {MAX_ITERATIONS} iterations",
                )
            raise RuntimeError(
                f"simulation exceeded {MAX_ITERATIONS} iterations "
                f"(t={self._t!r})"
            )
        return self._build_result()

    # -- setup ------------------------------------------------------------------

    def _seed_events(self) -> None:
        horizon = self._config.horizon
        rng = None
        if self._config.aet_seed is not None:
            rng = np.random.default_rng(self._config.aet_seed)
        self._jobs.extend(self._taskset.jobs(horizon, rng))
        rows = _event_rows(self._jobs, horizon)
        self._events = [(kind, job) for _, kind, job in rows]
        self._event_times = [time for time, _, _ in rows]
        self._event_times.append(INFINITY)
        self._next_event = self._event_times[0]

    # -- event handling -------------------------------------------------------------

    def _process_due_events(self) -> None:
        while self._next_event <= self._t + EPSILON:
            kind, job = self._events[self._event_ptr]
            self._event_ptr += 1
            self._next_event = self._event_times[self._event_ptr]
            if kind == _RELEASE:
                self._on_release(job)
            else:
                self._on_deadline(job)

    def _on_release(self, job: Job) -> None:
        job.mark_released()
        self._ready.push(job)
        self._per_task_released[job.task.name] = (
            self._per_task_released.get(job.task.name, 0) + 1
        )
        self._trace.record(
            self._t,
            TraceKind.JOB_RELEASE,
            job=job.name,
            deadline=job.absolute_deadline,
            wcet=job.wcet,
        )
        self._need_decision = True

    def _on_deadline(self, job: Job) -> None:
        if job.is_finished or id(job) in self._missed:
            return
        if job.state is JobState.PENDING:  # pragma: no cover - defensive
            raise RuntimeError(f"{job.name}: deadline before release")
        self._missed.add(id(job))
        self._missed_count += 1
        self._per_task_missed[job.task.name] = (
            self._per_task_missed.get(job.task.name, 0) + 1
        )
        self._trace.record(
            self._t,
            TraceKind.JOB_MISS,
            job=job.name,
            remaining=job.remaining_work,
        )
        if self._config.miss_policy is DeadlineMissPolicy.DROP:
            job.mark_missed()
            self._ready.remove(job)
            if self._running is job:
                self._clear_plan()
            self._need_decision = True
        # CONTINUE: the job stays ready/running; only the count changes.

    # -- scheduling -------------------------------------------------------------------

    def _maybe_decide(self) -> None:
        if self._stalled_until is not None:
            return  # frozen until the stall window ends
        if not self._need_decision:
            return
        self._need_decision = False
        decision = self._scheduler.decide(self._t, self._ready, self._outlook)
        self._validate_decision(decision)
        if self._watchdog is not None:
            self._watchdog.observe_decision(self._t, decision)
        self._apply_decision(decision)

    def _validate_decision(self, decision: Decision) -> None:
        if decision.is_idle:
            return
        job = decision.job
        assert job is not None and decision.level is not None
        if job not in self._ready:
            raise RuntimeError(
                f"scheduler dispatched {job.name} which is not ready"
            )
        if decision.level not in self._scheduler.scale:
            raise RuntimeError(
                f"scheduler chose a level outside its scale: {decision.level!r}"
            )
        if decision.switch_to_max_at is not None:
            if decision.switch_to_max_at <= self._t + EPSILON:
                raise RuntimeError(
                    "switch_to_max_at must lie strictly in the future "
                    f"(now={self._t!r}, got {decision.switch_to_max_at!r})"
                )
            if decision.level.speed >= self._scheduler.scale.max_level.speed:
                raise RuntimeError(
                    "switch_to_max_at is meaningless when already at full speed"
                )

    def _apply_decision(self, decision: Decision) -> None:
        self._decision = decision
        previous = self._running
        if decision.is_idle:
            if previous is not None and not previous.is_finished:
                self._trace.record(
                    self._t, TraceKind.JOB_PREEMPT, job=previous.name, by="idle"
                )
            self._running = None
            self._level = None
            self._switch_at = None
            self._set_processor_level(None)
            return

        job = decision.job
        assert job is not None and decision.level is not None
        if previous is not None and previous is not job and not previous.is_finished:
            self._trace.record(
                self._t, TraceKind.JOB_PREEMPT, job=previous.name, by=job.name
            )
        if previous is not job:
            job.note_started(self._t)
            self._trace.record(
                self._t,
                TraceKind.JOB_START,
                job=job.name,
                speed=decision.level.speed,
            )
        self._running = job
        self._switch_at = decision.switch_to_max_at
        self._set_processor_level(decision.level)

    def _set_processor_level(self, level: Optional[FrequencyLevel]) -> None:
        if level is self._level and self._processor.current_level is level:
            return
        old = self._level
        overhead = self._processor.set_level(level)
        self._level = level
        if level is not None and (old is None or old.speed != level.speed):
            self._trace.record(
                self._t,
                TraceKind.FREQ_CHANGE,
                speed=level.speed,
                power=level.power,
            )
        if not overhead.is_free:
            if overhead.energy > 0:
                self._storage.draw_instant(overhead.energy)
            if overhead.time > 0:
                self._dead_until = self._t + overhead.time

    def _clear_plan(self) -> None:
        self._decision = None
        self._running = None
        self._level = None
        self._switch_at = None
        self._set_processor_level(None)
        self._need_decision = True

    # -- segment machinery ------------------------------------------------

    def _current_draw(self, harvest: float) -> float:
        """Power drawn from the storage in the current processor state.

        An idle platform whose storage is empty and cannot sustain even
        the idle draw scavenges what it can directly from the source; the
        residual idle consumption is treated as browned out (drops to 0)
        rather than wedging the simulation on an unsatisfiable draw.
        """
        if self._running is not None and self._level is not None:
            return self._level.power
        idle = self._processor.idle_power
        if (
            idle > 0
            and self._storage.is_empty
            and self._storage.net_flow(harvest, idle) < 0
        ):
            return 0.0
        return idle

    def _segment_end(self, harvest: float, draw: float) -> float:
        """End of the segment starting now, drawing ``draw`` at ``harvest``."""
        t = self._t
        horizon = self._config.horizon
        end = min(horizon, self._next_event, self._next_sample)
        end = min(end, self._boundary)

        if self._stalled_until is not None:
            end = min(end, self._stalled_until)
        elif self._decision is None or self._decision.is_idle:
            if self._decision is not None:
                end = min(end, self._decision.reconsider_at)
            # While idle with work pending, quantum boundaries double as
            # scheduling points (handled in _post_segment), so no extra cap
            # is needed here: the source boundary already bounds `end`.
        else:
            job = self._running
            assert job is not None and self._level is not None
            if self._t < self._dead_until:
                end = min(end, self._dead_until)
            else:
                completion = t + job.time_to_finish(max(self._level.speed, 1e-12))
                end = min(end, completion)
            if self._switch_at is not None:
                end = min(end, self._switch_at)
            end = min(end, self._decision.reconsider_at)

        t_empty = self._storage.time_to_empty(harvest, draw)
        if t + t_empty < end - EPSILON:
            end = t + t_empty
        return max(end, t)

    def _advance_to(self, end: float, harvest: float, draw: float) -> bool:
        """Advance the world to ``end``; returns whether time moved."""
        t = self._t
        duration = max(0.0, end - t)

        if duration > 0.0:
            # Split the draw at the depletion instant if it falls inside
            # (can only happen from float noise, since _segment_end caps
            # at depletion; stay defensive).
            segment = self._storage.advance(duration, harvest, draw)
            if self._watchdog is not None:
                self._watchdog.observe_segment(
                    t, end, harvest, draw, segment, self._storage
                )
            self._predictor.observe(t, end, harvest * duration)
            self._processor.account_time(duration)
            if self._running is not None and self._level is not None:
                speed = 0.0 if t < self._dead_until else self._level.speed
                self._running.execute(speed, duration, self._level.power)
            self._t = end
        return duration > EPSILON

    def _post_segment(self) -> float:
        """Settle the state at the segment's end; returns the harvest there."""
        t = self._t
        # Re-read the source at the *new* time: the segment may have ended
        # exactly at a source quantum boundary where the power changes.
        harvest, self._boundary = self._read_source(t)
        # 1. Energy trace sampling.
        if t >= self._next_sample - EPSILON:
            self._record_energy_sample(harvest)

        # 2. Stall window expiry.
        if self._stalled_until is not None and t >= self._stalled_until - EPSILON:
            self._stalled_until = None
            if self._stall_started is not None:
                self._stall_time += t - self._stall_started
                self._stall_started = None
            self._need_decision = True

        job = self._running
        if job is not None and self._level is not None:
            # 3. Completion (on the *true* demand, which may undercut the
            # WCET the schedulers plan with).
            if job.remaining_actual_work <= 1e-7:
                job.mark_completed(t)
                self._ready.remove(job)
                self._completed_count += 1
                if self._watchdog is not None:
                    self._watchdog.observe_completion()
                self._trace.record(
                    t,
                    TraceKind.JOB_COMPLETE,
                    job=job.name,
                    lateness=job.lateness,
                    energy=job.energy_consumed,
                )
                self._clear_plan()
                return harvest
            # 4. Depletion -> stall.  The storage's own net-flow model
            # decides (conversion losses can drain the store even when
            # the raw draw is below the raw harvest).
            draw = self._level.power
            if self._storage.is_empty and (
                self._storage.net_flow(harvest, draw) < -EPSILON
            ):
                self._enter_stall()
                return harvest
            # 5. Planned switch to full speed (EA-DVFS s2).
            if self._switch_at is not None and t >= self._switch_at - EPSILON:
                self._switch_at = None
                self._set_processor_level(self._scheduler.scale.max_level)
            if (
                self._decision is not None
                and t >= self._decision.reconsider_at - EPSILON
            ):
                self._need_decision = True
            return harvest

        # Idle: wake the scheduler when asked to, and at source boundaries
        # while work is pending (prediction drift responsiveness).
        if self._decision is not None and t >= self._decision.reconsider_at - EPSILON:
            self._need_decision = True
        if self._ready and self._stalled_until is None:
            self._need_decision = True
        return harvest

    def _enter_stall(self) -> None:
        job = self._running
        assert job is not None
        resume = min(self._boundary, self._t + STALL_RETRY_INTERVAL)
        self._trace.record(
            self._t,
            TraceKind.STALL,
            job=job.name,
            resume_at=resume,
        )
        self._stall_count += 1
        if self._watchdog is not None:
            self._watchdog.observe_stall(self._t)
        self._stall_started = self._t
        self._stalled_until = resume
        # The job goes back to waiting (it stays in the ready queue).
        self._decision = None
        self._running = None
        self._level = None
        self._switch_at = None
        self._set_processor_level(None)

    def _record_energy_sample(self, harvest: float) -> None:
        interval = self._config.energy_sample_interval
        assert interval is not None
        self._trace.record(
            self._t,
            TraceKind.ENERGY,
            stored=self._storage.stored,
            fraction=self._storage.fraction,
            harvest_power=harvest,
        )
        while self._next_sample <= self._t + EPSILON:
            self._next_sample += interval

    # -- result -----------------------------------------------------------

    def _build_result(self) -> SimulationResult:
        horizon = self._config.horizon
        judged = sum(
            1 for j in self._jobs if j.absolute_deadline <= horizon + EPSILON
        )
        return SimulationResult(
            scheduler_name=self._scheduler.name,
            horizon=horizon,
            jobs=tuple(self._jobs),
            released_count=len(self._jobs),
            completed_count=self._completed_count,
            missed_count=self._missed_count,
            judged_count=judged,
            harvested_energy=self._source.energy(0.0, horizon),
            drawn_energy=self._storage.total_drawn,
            overflow_energy=self._storage.total_overflow,
            leaked_energy=self._storage.total_leaked,
            final_stored=self._storage.stored,
            storage_capacity=self._storage.capacity,
            busy_time_profile=self._processor.busy_time_profile(),
            idle_time=self._processor.idle_time,
            switch_count=self._processor.switch_count,
            stall_count=self._stall_count,
            stall_time=self._stall_time,
            per_task_released=dict(self._per_task_released),
            per_task_missed=dict(self._per_task_missed),
            trace=self._trace,
        )
