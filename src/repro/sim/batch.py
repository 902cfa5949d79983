"""Structure-of-arrays batch simulator: N scenarios in numpy lockstep.

The scalar simulator (:mod:`repro.sim.simulator`) advances one scenario
segment by segment: every iteration of its main loop processes due
events, possibly asks the scheduler for a decision, computes the next
segment end and evolves storage/progress analytically across it.  All
of that arithmetic is closed-form, so *N* scenarios can run in lockstep
with one numpy operation per scalar statement: this module holds every
piece of per-scenario state (storage level, event cursor, ready-set
bitmaps, running job/level, stall windows) in arrays indexed by "lane"
(= scenario) and executes the scalar main loop's body element-wise.

**Equivalence doctrine** — the batch engine is a *mirror*, not a
re-derivation: each step performs the same IEEE float64 operations in
the same order as the scalar code path it shadows (references inline).
Counters, decisions, schedules and energy trajectories are therefore
bit-exact (see ``docs/batch-simulation.md``).  This is enforced by
:mod:`repro.verify.batch_equivalence` and
``tests/sim/test_batch_equivalence.py``, which compare with ``==``.

**Coverage** — the core handles the shapes the paper experiments use:
schedulers ``edf`` / ``lsa`` / ``ea-dvfs`` / ``ea-dvfs-noslowdown``,
constant / solar-stochastic / day-night sources (unfaulted), plain
:class:`~repro.tasks.task.TaskSet` workloads, finite
:class:`~repro.energy.storage.IdealStorage`, all four predictors
(``oracle``, ``profile``, ``mean``, ``last-value`` — online predictor
state lives in per-lane arrays, updated by the kernels in
:mod:`repro.energy.vectorized`), both miss policies, sampled actual
execution times, zero switching overhead, no tracing/sampling.  The
one front-end, :func:`execute_runspecs`, builds each lane from the
same :class:`~repro.experiments.common.PaperSetup` hooks that
``PaperSetup.run`` builds its simulator from.  Everything else (fault
wrappers returned by a hook; setups that override ``run``, such as
test doubles; infinite or lossy storage; a processor model; custom
schedulers; per-run energy sampling; a watchdog or a trace) is left
out of the core: the front-end returns ``None`` for such cells with a
histogram of named reasons, and the caller runs them on the scalar
simulator.  This module never does — the supervisor routes sweep
fallbacks to its scalar runner (``SweepReport.fallback_reasons``),
``repro verify --batch`` runs its own.
"""

# repro: float-doctrine -- RPR402 (no libm-divergent ufuncs) applies here.

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import (
    TYPE_CHECKING,
    Callable,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.cpu.dvfs import FrequencyScale
from repro.energy.source import (
    ConstantSource,
    DayNightSource,
    EnergySource,
    SolarStochasticSource,
    quantum_walk,
)
from repro.energy.predictor import (
    HarvestPredictor,
    LastValuePredictor,
    MeanPowerPredictor,
    OraclePredictor,
    ProfilePredictor,
)
from repro.energy.storage import EnergyStorage, IdealStorage
from repro.energy.vectorized import (
    batch_last_observe,
    batch_mean_observe,
    batch_profile_observe,
    batch_profile_predict,
    batch_span_predict,
)
from repro.experiments.common import PaperSetup
from repro.sched.registry import make_scheduler
from repro.sched.vectorized import (
    SCHEDULER_KINDS,
    SCHED_EDF,
    BoolArray,
    FloatArray,
    IntArray,
    batch_decide,
    batch_time_le,
)
from repro.sim.simulator import (
    MAX_ITERATIONS,
    STAGNATION_LIMIT,
    STALL_RETRY_INTERVAL,
    DeadlineMissPolicy,
    SimulationConfig,
    SimulationResult,
)
from repro.tasks.job import Job, JobState
from repro.tasks.task import PeriodicTask, TaskSet
from repro.timeutils import EPSILON, INFINITY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.parallel import RunSpec

__all__ = [
    "UncoveredScenarioError",
    "execute_runspecs",
    "runspec_fallback_reason",
]


class UncoveredScenarioError(Exception):
    """The batch core does not cover this scenario shape (use scalar)."""


# -- source parameterization ----------------------------------------------

_SRC_CONST = 0
_SRC_QUANTIZED = 1
_SRC_DAYNIGHT = 2

#: Job state codes used in the SoA arrays (indices into this tuple).
_JOB_STATES = (
    JobState.PENDING,
    JobState.READY,
    JobState.COMPLETED,
    JobState.MISSED,
)
_PENDING, _READY, _COMPLETED, _MISSED = range(4)

#: Rank sentinel for "no ready job" (larger than any real rank).
_NO_JOB = np.iinfo(np.int64).max


@dataclass
class _SourceParams:
    """Closed-form parameters of one lane's (unfaulted) energy source."""

    kind: int
    const_power: float = 0.0
    quantum: float = 1.0
    quantized_powers: FloatArray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64)
    )
    day_power: float = 0.0
    night_power: float = 0.0
    day_length: float = 0.0
    cycle: float = 1.0
    phase: float = 0.0


def _source_params(source: EnergySource, t_max: float) -> _SourceParams:
    """Extract vectorizable parameters, or raise ``UncoveredScenarioError``.

    For the solar source, per-quantum powers are precomputed with the
    same arithmetic the scalar source performs lazily: batched
    ``standard_normal`` draws equal sequential single draws for one
    ``default_rng`` seed, and the numpy float64 element-wise kernels
    (abs/max/cos/mul/div) match ``math``'s scalars bit for bit.
    """
    if type(source) is ConstantSource:
        return _SourceParams(kind=_SRC_CONST, const_power=source.power(0.0))
    if type(source) is SolarStochasticSource:
        quantum = source.quantum
        count = int(math.ceil(t_max / quantum)) + 2
        rng = np.random.default_rng(source.seed)
        draws = rng.standard_normal(count)
        rectify = source.rectify
        if rectify == "abs":
            draws = np.abs(draws)
        elif rectify == "clamp":
            draws = np.maximum(draws, 0.0)
        midpoints = (np.arange(count).astype(np.float64) + 0.5) * quantum
        # Mirrors SolarStochasticSource.power: amplitude * draw * cos^2.
        # np.cos matches math.cos bit for bit on these inputs on every
        # platform the equivalence sweep runs (no SIMD-vs-libm drift has
        # been observed for cos, unlike pow); the scalar twin
        # SolarStochasticSource._envelope uses math.cos, and
        # `repro verify --batch` re-proves the equality on every CI run.
        cosine = np.cos(  # repro-lint: disable=RPR402 -- matches math.cos, verified dynamically
            np.pi * midpoints / source.envelope_period
        )
        powers = source.amplitude * draws * (cosine * cosine)
        return _SourceParams(
            kind=_SRC_QUANTIZED, quantum=quantum, quantized_powers=powers
        )
    if type(source) is DayNightSource:
        return _SourceParams(
            kind=_SRC_DAYNIGHT,
            day_power=source.day_power,
            night_power=source.night_power,
            day_length=source.day_length,
            cycle=source.day_length + source.night_length,
            phase=source.phase,
        )
    raise UncoveredScenarioError(
        f"source type {type(source).__name__} is not vectorized"
    )


# -- predictor parameterization -------------------------------------------

_PRED_ORACLE = 0
_PRED_MEAN = 1
_PRED_LAST = 2
_PRED_PROFILE = 3


@dataclass
class _PredictorParams:
    """Vectorizable state of one lane's harvest predictor.

    ``estimate`` carries the live EWMA scalar for the mean and
    last-value predictors; ``bin_estimates``/``bin_seen`` carry the
    profile predictor's live per-bin state, so pre-trained predictors
    batch just like fresh ones.  The oracle needs no state — the core
    integrates the source directly.
    """

    kind: int
    alpha: float = 0.0
    estimate: float = 0.0
    period: float = 1.0
    bin_width: float = 1.0
    n_bins: int = 1
    bin_estimates: FloatArray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64)
    )
    bin_seen: BoolArray = field(
        default_factory=lambda: np.zeros(0, dtype=np.bool_)
    )


def _predictor_params(predictor: HarvestPredictor) -> _PredictorParams:
    """Extract vectorizable parameters, or raise ``UncoveredScenarioError``.

    Exact ``type()`` checks, like :func:`_source_params`: a subclass may
    override behavior the kernels do not replay (``BiasedPredictor``
    wraps any of these under fault plans, which already fall back).
    """
    if type(predictor) is OraclePredictor:
        return _PredictorParams(kind=_PRED_ORACLE)
    if type(predictor) is MeanPowerPredictor:
        return _PredictorParams(
            kind=_PRED_MEAN,
            alpha=predictor.alpha,
            estimate=predictor.estimate,
        )
    if type(predictor) is LastValuePredictor:
        return _PredictorParams(kind=_PRED_LAST, estimate=predictor.estimate)
    if type(predictor) is ProfilePredictor:
        return _PredictorParams(
            kind=_PRED_PROFILE,
            alpha=predictor.alpha,
            period=predictor.period,
            bin_width=predictor.bin_width,
            n_bins=predictor.n_bins,
            bin_estimates=predictor.bin_estimates(),
            bin_seen=predictor.bin_seen(),
        )
    raise UncoveredScenarioError(
        f"predictor type {type(predictor).__name__} is not vectorized"
    )


# -- lane descriptors -----------------------------------------------------


@dataclass
class _Lane:
    """Immutable per-scenario setup feeding the SoA core.

    ``jobs`` holds the *real* :class:`Job` objects (in the simulator's
    deterministic ``(release, deadline, task name)`` order); the core
    writes final states back into them so downstream consumers (oracle
    checks, ``compare_schedules``) see exactly what the scalar engine
    would have produced.
    """

    scheduler_name: str
    sched_kind: int
    horizon: float
    miss_drop: bool
    capacity: float
    initial_stored: float
    speeds: FloatArray
    powers: FloatArray
    source: _SourceParams
    predictor: _PredictorParams
    #: ``None`` for slim sweep lanes built straight from task arrays —
    #: those cannot serve ``result(include_jobs=True)``.
    jobs: Optional[list[Job]]
    # per-job static columns (job-index order)
    jrelease: FloatArray
    jdeadline: FloatArray
    jwork: FloatArray
    jactual: FloatArray
    #: per-job task index into ``task_names`` (for per-task tallies)
    jtask: IntArray
    task_names: list[str]
    # event table, presorted by (time, priority, sequence)
    ev_time: FloatArray
    ev_is_deadline: BoolArray
    ev_job: IntArray

    @property
    def n_jobs(self) -> int:
        return int(self.jrelease.shape[0])


def _build_lane(
    scheduler_name: str,
    scale: FrequencyScale,
    jobs: list[Job],
    source: EnergySource,
    storage: EnergyStorage,
    predictor: HarvestPredictor,
    horizon: float,
    miss_drop: bool,
) -> _Lane:
    """Assemble a lane from real ``Job`` objects (the full-fidelity path)."""
    jobs = list(jobs)
    jrelease = np.asarray([j.release for j in jobs], dtype=np.float64)
    jdeadline = np.asarray(
        [j.absolute_deadline for j in jobs], dtype=np.float64
    )
    task_names: list[str] = []
    task_index: dict[str, int] = {}
    jtask = np.zeros(len(jobs), dtype=np.int64)
    for k, job in enumerate(jobs):
        name = job.task.name
        if name not in task_index:
            task_index[name] = len(task_names)
            task_names.append(name)
        jtask[k] = task_index[name]
    return _assemble_lane(
        scheduler_name=scheduler_name,
        scale=scale,
        source=source,
        storage=storage,
        predictor=predictor,
        horizon=horizon,
        miss_drop=miss_drop,
        jrelease=jrelease,
        jdeadline=jdeadline,
        jwork=np.asarray([j.remaining_work for j in jobs], dtype=np.float64),
        jactual=np.asarray(
            [j.remaining_actual_work for j in jobs], dtype=np.float64
        ),
        jtask=jtask,
        task_names=task_names,
        jobs=jobs,
    )


def _assemble_lane(
    scheduler_name: str,
    scale: FrequencyScale,
    source: EnergySource,
    storage: EnergyStorage,
    predictor: HarvestPredictor,
    horizon: float,
    miss_drop: bool,
    jrelease: FloatArray,
    jdeadline: FloatArray,
    jwork: FloatArray,
    jactual: FloatArray,
    jtask: IntArray,
    task_names: list[str],
    jobs: Optional[list[Job]],
) -> _Lane:
    """Assemble a lane, raising ``UncoveredScenarioError`` where needed."""
    if type(storage) is not IdealStorage:
        raise UncoveredScenarioError(
            f"storage type {type(storage).__name__} is not vectorized"
        )
    if not math.isfinite(storage.capacity):
        raise UncoveredScenarioError("infinite storage is not vectorized")
    t_max = max(
        horizon, float(jdeadline.max()) if jdeadline.size else horizon
    )
    params = _source_params(source, t_max)
    pred_params = _predictor_params(predictor)
    # Event table: mirrors _seed_events — a release (priority 1) per job,
    # a deadline (priority 0) per job judged within the horizon, sequence
    # in insertion order; then heap order (time, priority, sequence).
    # Insertion order interleaves release/deadline per job, so a job's
    # release sequence is its index plus the number of judged deadlines
    # inserted before it (an exclusive prefix count).
    n_jobs = int(jrelease.shape[0])
    judged_dl = jdeadline <= horizon + EPSILON
    before = np.zeros(n_jobs, dtype=np.int64)
    if n_jobs:
        before[1:] = np.cumsum(judged_dl[:-1])
    rel_seq = np.arange(n_jobs, dtype=np.int64) + before
    dl_idx = np.flatnonzero(judged_dl)
    times = np.concatenate([jrelease, jdeadline[dl_idx]])
    prio = np.concatenate(
        [np.ones(n_jobs, dtype=np.int64), np.zeros(dl_idx.size, dtype=np.int64)]
    )
    seq = np.concatenate([rel_seq, rel_seq[dl_idx] + 1])
    is_dl = np.concatenate(
        [np.zeros(n_jobs, dtype=np.bool_), np.ones(dl_idx.size, dtype=np.bool_)]
    )
    job_of = np.concatenate([np.arange(n_jobs, dtype=np.int64), dl_idx])
    order = np.lexsort((seq, prio, times))
    ev_time = times[order]
    ev_is_deadline = is_dl[order]
    ev_job = job_of[order]
    return _Lane(
        scheduler_name=make_scheduler(scheduler_name, scale).name,
        sched_kind=SCHEDULER_KINDS[scheduler_name],
        horizon=horizon,
        miss_drop=miss_drop,
        capacity=storage.capacity,
        initial_stored=storage.stored,
        speeds=np.asarray([lv.speed for lv in scale.levels], dtype=np.float64),
        powers=np.asarray([lv.power for lv in scale.levels], dtype=np.float64),
        source=params,
        predictor=pred_params,
        jobs=jobs,
        jrelease=jrelease,
        jdeadline=jdeadline,
        jwork=jwork,
        jactual=jactual,
        jtask=jtask,
        task_names=task_names,
        ev_time=ev_time,
        ev_is_deadline=ev_is_deadline,
        ev_job=ev_job,
    )


# -- the SoA core ---------------------------------------------------------


class _Segment(NamedTuple):
    """Per-lane state of one lockstep step, read at its start time.

    :meth:`_BatchCore._segment_end` gathers these once;
    :meth:`_BatchCore._advance_to` and :meth:`_BatchCore._post_segment`
    reuse them.  Idle lanes carry level 0 / job 0 cells, always masked.
    """

    harvest: FloatArray  # source power
    draw: FloatArray  # processor power, 0.0 when idle
    rate: FloatArray  # harvest - draw
    running: BoolArray  # a job is dispatched
    speed: FloatArray  # speed of the current level
    level_cells: IntArray  # flat (lane, level) index into the level tables
    job_cells: IntArray  # flat (lane, job) index into the job tables
    actual: FloatArray  # remaining true work of the running job


class _BatchCore:
    """Runs a set of covered lanes in lockstep.

    Each main-loop pass executes one iteration of the scalar
    ``HarvestingRtSimulator.run`` loop for every still-active lane; all
    per-lane arithmetic mirrors the scalar statements cited inline.
    Lanes that trip an internal guard (the vector twin of a scalar
    ``raise``) are recorded in ``errors`` and excluded; the runner
    re-executes them on the scalar path.
    """

    #: Events one drain pass gathers per due lane (see
    #: :meth:`_process_due_events`).  Implicit deadlines make a job's
    #: deadline coincide with its successor's release, so most drains
    #: take two events per task that fires; a lane that fills the whole
    #: window simply takes another pass.
    EVENT_WINDOW = 8

    def __init__(self, lanes: Sequence[_Lane]) -> None:
        self.lanes = list(lanes)
        n = len(self.lanes)
        self.n = n
        self.errors: list[Optional[str]] = [None] * n
        if n == 0:
            return
        n_levels = {lane.speeds.shape[0] for lane in self.lanes}
        if len(n_levels) != 1:
            raise UncoveredScenarioError(
                "mixed frequency-scale sizes in one batch"
            )
        self.n_lev = n_levels.pop()
        self.idx = np.arange(n)
        self._inf = np.full(n, INFINITY)  # shared read-only +inf column
        max_jobs = max(1, max(lane.n_jobs for lane in self.lanes))
        max_ev = max(1, max(lane.ev_time.shape[0] for lane in self.lanes))
        # -- static tables (padded; pads are inert: time=inf, rank=max) --
        self.horizon = np.asarray([la.horizon for la in self.lanes])
        # Cap on each lane's next segment end: its horizon while it is
        # active, -inf once it leaves, so inactive lanes end every step
        # where they are (see _segment_end).
        self._end_cap = self.horizon.copy()
        self.miss_drop = np.asarray(
            [la.miss_drop for la in self.lanes], dtype=np.bool_
        )
        self.kind = np.asarray(
            [la.sched_kind for la in self.lanes], dtype=np.int64
        )
        self.capacity = np.asarray([la.capacity for la in self.lanes])
        self._full_level = self.capacity - EPSILON  # storage.is_full bound
        self.speeds = np.stack([la.speeds for la in self.lanes])
        self.powers = np.stack([la.powers for la in self.lanes])
        self.n_jobs = np.asarray(
            [la.n_jobs for la in self.lanes], dtype=np.int64
        )
        self.jrelease = np.full((n, max_jobs), INFINITY)
        self.jdeadline = np.full((n, max_jobs), INFINITY)
        self.jrank = np.full((n, max_jobs), _NO_JOB, dtype=np.int64)
        self.jremaining = np.zeros((n, max_jobs))
        self.jremaining_actual = np.zeros((n, max_jobs))
        for i, lane in enumerate(self.lanes):
            k = lane.n_jobs
            self.jrelease[i, :k] = lane.jrelease
            self.jdeadline[i, :k] = lane.jdeadline
            self.jremaining[i, :k] = lane.jwork
            self.jremaining_actual[i, :k] = lane.jactual
            if k:
                # Static EDF rank: the ready queue pops by (deadline,
                # release, push counter) and pushes in release-event
                # order == job-index order, so the rank is the lexsort
                # position of (deadline, release, index).
                order = np.lexsort(
                    (np.arange(k), self.jrelease[i, :k], self.jdeadline[i, :k])
                )
                self.jrank[i, order] = np.arange(k, dtype=np.int64)
        # Padded with EVENT_WINDOW inert events, so a drain window that
        # starts at any cursor stays inside the row.
        width = max_ev + self.EVENT_WINDOW
        self.ev_time = np.full((n, width), INFINITY)
        self.ev_is_deadline = np.zeros((n, width), dtype=np.bool_)
        self.ev_job = np.zeros((n, width), dtype=np.int64)
        self._ev_window = np.arange(self.EVENT_WINDOW, dtype=np.int64)
        # Row offsets of each lane into the flattened job / level tables.
        self._job_row = self.idx * max_jobs
        self._level_row = self.idx * self.n_lev
        for i, lane in enumerate(self.lanes):
            e = lane.ev_time.shape[0]
            self.ev_time[i, :e] = lane.ev_time
            self.ev_is_deadline[i, :e] = lane.ev_is_deadline
            self.ev_job[i, :e] = lane.ev_job
        # -- source tables ----------------------------------------------
        self.src_kind = np.asarray(
            [la.source.kind for la in self.lanes], dtype=np.int64
        )
        self.src_const = np.asarray(
            [la.source.const_power for la in self.lanes]
        )
        self.src_quantum = np.asarray([la.source.quantum for la in self.lanes])
        self.src_nq = np.asarray(
            [la.source.quantized_powers.shape[0] for la in self.lanes],
            dtype=np.int64,
        )
        max_q = max(1, int(self.src_nq.max()))
        self.src_qpowers = np.zeros((n, max_q))
        for i, lane in enumerate(self.lanes):
            q = lane.source.quantized_powers
            self.src_qpowers[i, : q.shape[0]] = q
        self.src_day_power = np.asarray(
            [la.source.day_power for la in self.lanes]
        )
        self.src_night_power = np.asarray(
            [la.source.night_power for la in self.lanes]
        )
        self.src_day_length = np.asarray(
            [la.source.day_length for la in self.lanes]
        )
        self.src_cycle = np.asarray([la.source.cycle for la in self.lanes])
        self.src_phase = np.asarray([la.source.phase for la in self.lanes])
        # Static source-kind masks and the constant-power base column:
        # they never change during a run, so the per-pass source queries
        # skip the kind comparisons entirely.
        self._quant_mask = self.src_kind == _SRC_QUANTIZED
        self._has_quant = bool(self._quant_mask.any())
        self._day_mask = self.src_kind == _SRC_DAYNIGHT
        self._has_day = bool(self._day_mask.any())
        self._power_base = np.where(
            self.src_kind == _SRC_CONST, self.src_const, 0.0
        )
        # Quantum-table bounds (never reached by non-quantized lanes) and
        # each lane's row offset into the flattened table.
        self._quant_limit = np.where(
            self._quant_mask, self.src_nq, np.iinfo(np.int64).max
        )
        self._quant_row = self.idx * max_q
        # -- predictor tables and state ----------------------------------
        self.pred_kind = np.asarray(
            [la.predictor.kind for la in self.lanes], dtype=np.int64
        )
        self.pred_alpha = np.asarray(
            [la.predictor.alpha for la in self.lanes]
        )
        self.pred_period = np.asarray(
            [la.predictor.period for la in self.lanes]
        )
        self.pred_bw = np.asarray(
            [la.predictor.bin_width for la in self.lanes]
        )
        self.pred_nbins = np.asarray(
            [la.predictor.n_bins for la in self.lanes], dtype=np.int64
        )
        # Live EWMA scalar (mean / last-value lanes).
        self.pred_estimate = np.asarray(
            [la.predictor.estimate for la in self.lanes]
        )
        # Live per-bin profile state, padded to the widest lane.
        max_bins = max(1, int(self.pred_nbins.max()))
        self.pred_bin_est = np.zeros((n, max_bins))
        self.pred_bin_seen = np.zeros((n, max_bins), dtype=np.bool_)
        for i, lane in enumerate(self.lanes):
            p = lane.predictor
            if p.kind == _PRED_PROFILE:
                self.pred_bin_est[i, : p.n_bins] = p.bin_estimates
                self.pred_bin_seen[i, : p.n_bins] = p.bin_seen
        # The scalar simulator feeds every elapsed segment to the
        # predictor, but EDF never queries the outlook and the oracle
        # ignores observations — skipping those lanes changes no result
        # (exactly the argument the old EDF-under-any-predictor fallback
        # exemption made).
        self._observe_mask = (self.pred_kind != _PRED_ORACLE) & (
            self.kind != SCHED_EDF
        )
        self._has_online = bool(self._observe_mask.any())
        # Static per-kind lane masks: the per-step predict and observe
        # dispatch skips the kinds a batch does not hold.
        self._pred_oracle = self.pred_kind == _PRED_ORACLE
        self._pred_span = (self.pred_kind == _PRED_MEAN) | (
            self.pred_kind == _PRED_LAST
        )
        self._pred_profile = self.pred_kind == _PRED_PROFILE
        self._has_oracle = bool(self._pred_oracle.any())
        self._has_span = bool(self._pred_span.any())
        self._has_profile = bool(self._pred_profile.any())
        # EnergyOutlook reads: every scheduler but EDF consults it.
        self._wants_energy = self.kind != SCHED_EDF
        # Per-job first-start / completion / energy columns only feed
        # result(include_jobs=True), which slim lanes cannot serve.
        self._job_detail = any(lane.jobs is not None for lane in self.lanes)
        # -- dynamic state (one scalar simulator's fields, per lane) -----
        self.t = np.zeros(n)
        self.active = np.ones(n, dtype=np.bool_)
        self.ev_ptr = np.zeros(n, dtype=np.int64)
        # Cached ev_time[lane, ev_ptr[lane]] (refreshed on pointer moves).
        self.next_ev = self.ev_time[self.idx, self.ev_ptr]
        self.need_decision = np.ones(n, dtype=np.bool_)
        self.has_decision = np.zeros(n, dtype=np.bool_)
        self.dec_reconsider = np.full(n, INFINITY)
        self.running = np.full(n, -1, dtype=np.int64)
        self.level = np.full(n, -1, dtype=np.int64)
        self.switch_at = np.full(n, np.nan)
        self.stalled = np.zeros(n, dtype=np.bool_)
        # +inf on lanes that are not stalled, so the stall window enters
        # the segment end and the expiry test without a mask.
        self.stalled_until = np.full(n, INFINITY)
        self.stall_started = np.zeros(n)
        self.stall_count = np.zeros(n, dtype=np.int64)
        self.stall_time = np.zeros(n)
        self.stored = np.asarray([la.initial_stored for la in self.lanes])
        self.total_drawn = np.zeros(n)
        self.total_overflow = np.zeros(n)
        self.idle_time = np.zeros(n)
        self.switch_count = np.zeros(n, dtype=np.int64)
        self.busy = np.zeros((n, self.n_lev))
        self.completed_count = np.zeros(n, dtype=np.int64)
        self.missed_count = np.zeros(n, dtype=np.int64)
        self.stagnant = np.zeros(n, dtype=np.int64)
        self.jstate = np.full(
            (n, max_jobs), _PENDING, dtype=np.int64
        )
        # Ready set as a rank table: _NO_JOB when a job is not ready,
        # its static EDF rank otherwise, plus an incrementally maintained
        # per-lane minimum (the EDF-earliest job).  Pushes can only
        # improve the minimum; removing the minimum triggers a one-lane
        # rescan — this keeps every decision pass O(lanes) instead of
        # O(lanes * jobs).
        self.jready_rank = np.full((n, max_jobs), _NO_JOB, dtype=np.int64)
        self.best_rank = np.full(n, _NO_JOB, dtype=np.int64)
        self.best_job = np.full(n, -1, dtype=np.int64)
        self.jmiss_counted = np.zeros((n, max_jobs), dtype=np.bool_)
        self.jenergy = np.zeros((n, max_jobs))
        self.jfirst = np.full((n, max_jobs), np.nan)
        self.jcompletion = np.full((n, max_jobs), np.nan)
        self.harvested = np.zeros(n)

    # -- ready-queue maintenance (EdfReadyQueue, incremental) -------------

    def _ready_push(
        self, lanes: IntArray, jobs: IntArray, cells: IntArray
    ) -> None:
        """ready.push: record the ranks and update the per-lane minimum.

        ``cells`` are the pairs' flat indices into the job tables.  A
        lane may push several jobs at once.  ``np.minimum.at`` folds
        every pushed rank into the minimum; ranks are distinct within a
        lane, so the pushed job whose rank now equals the minimum is the
        new EDF-earliest job.
        """
        ranks = self.jrank.take(cells)
        self.jready_rank.put(cells, ranks)
        np.minimum.at(self.best_rank, lanes, ranks)
        won = self.best_rank[lanes] == ranks
        self.best_job[lanes[won]] = jobs[won]

    def _ready_remove(
        self, lanes: IntArray, jobs: IntArray, cells: IntArray
    ) -> None:
        """ready.remove: rescan only the lanes that lost their minimum.

        ``cells`` are the pairs' flat indices into the job tables.  All
        removals land before the rescan, so a lane removing several jobs
        at once is rescanned (once) over its final ready set.
        """
        self.jready_rank.put(cells, _NO_JOB)
        rescan = lanes[self.best_job[lanes] == jobs]
        if rescan.size:
            rows = self.jready_rank.take(rescan, axis=0)
            nxt = rows.argmin(axis=1)
            ranks = np.minimum.reduce(rows, axis=1)
            self.best_rank[rescan] = ranks
            self.best_job[rescan] = np.where(ranks < _NO_JOB, nxt, -1)

    # -- failure handling -------------------------------------------------

    def _fail(self, lanes: IntArray, message: str) -> None:
        for i in lanes.tolist():
            if self.errors[i] is None:
                self.errors[i] = message
        self.active[lanes] = False
        self._end_cap[lanes] = -INFINITY

    # -- vectorized source (mirrors repro.energy.source) ------------------

    def _quant_index(self, t: FloatArray) -> IntArray:
        """_QuantizedSource._index: max(0, floor((t + EPS) / quantum)).

        Truncation (``astype``) and floor differ only below zero, where
        the clamp maps both to 0.
        """
        raw = (t + EPSILON) / self.src_quantum
        index: IntArray = np.maximum(0, raw.astype(np.int64))
        return index

    def _src_state(self, t: FloatArray) -> tuple[FloatArray, FloatArray]:
        """``source.power(t)`` and ``source.next_boundary(t)`` per lane.

        Both come from one quantum index / day position per call.  The
        returned arrays may be shared read-only tables; callers must not
        write to them.
        """
        power = self._power_base
        boundary = self._inf
        if self._has_quant:
            index = self._quant_index(t)
            over = (self.active & (index >= self._quant_limit)).nonzero()[0]
            quant = self._quant_mask
            if over.size:
                self._fail(over, "solar power table exceeded")
                quant = quant.copy()
                quant[over] = False
            table = self.src_qpowers.take(
                self._quant_row + np.minimum(index, self.src_qpowers.shape[1] - 1)
            )
            power = np.where(quant, table, power)
            boundary = np.where(
                self._quant_mask,
                (index + 1).astype(np.float64) * self.src_quantum,
                boundary,
            )
        if self._has_day:
            position = np.mod(t + self.src_phase + EPSILON, self.src_cycle)
            in_day = position < self.src_day_length
            power = np.where(
                self._day_mask,
                np.where(in_day, self.src_day_power, self.src_night_power),
                power,
            )
            boundary = np.where(
                self._day_mask,
                np.where(
                    in_day,
                    t + (self.src_day_length - position),
                    t + (self.src_cycle - position),
                ),
                boundary,
            )
        return power, boundary

    def _src_energy_lanes(
        self, lanes: IntArray, t0: FloatArray, t1: FloatArray
    ) -> FloatArray:
        """EnergySource.energy over ``[t0, t1)`` for the listed lanes.

        Constant lanes use the closed form ``P * max(0, t1 - t0)``; the
        rest accumulate ``power(t) * (segment_end - t)`` segment by
        segment, in the scalar's summation order, so the totals are
        bit-equal to the scalar walk.  Inputs and output are compact
        (one entry per listed lane).
        """
        kind = self.src_kind[lanes]
        total = np.zeros(lanes.shape[0])
        const = kind == _SRC_CONST
        if np.count_nonzero(const):
            total[const] = self.src_const[lanes[const]] * np.maximum(
                0.0, t1[const] - t0[const]
            )
        quant = kind == _SRC_QUANTIZED
        if np.count_nonzero(quant):
            total[quant] = self._quantized_energy(
                lanes[quant], t0[quant], t1[quant]
            )
        day = kind == _SRC_DAYNIGHT
        if np.count_nonzero(day):
            total[day] = self._daynight_energy(
                lanes[day], t0[day], t1[day]
            )
        return total

    def _daynight_energy(
        self, lanes: IntArray, t0: FloatArray, t1: FloatArray
    ) -> FloatArray:
        """The scalar boundary walk for day/night lanes (compact)."""
        day_length = self.src_day_length[lanes]
        cycle = self.src_cycle[lanes]
        phase = self.src_phase[lanes]
        day_power = self.src_day_power[lanes]
        night_power = self.src_night_power[lanes]
        total = np.zeros(lanes.shape[0])
        t = t0.copy()
        stepping = t < t1 - EPSILON
        while np.count_nonzero(stepping):
            position = np.mod(t + phase + EPSILON, cycle)
            in_day = position < day_length
            boundary = np.where(
                in_day, t + (day_length - position), t + (cycle - position)
            )
            seg_end = np.minimum(boundary, t1)
            power = np.where(in_day, day_power, night_power)
            total = np.where(stepping, total + power * (seg_end - t), total)
            t = np.where(stepping, seg_end, t)
            stepping = t < t1 - EPSILON
        return total

    def _quantized_energy(
        self, lanes: IntArray, t0: FloatArray, t1: FloatArray
    ) -> FloatArray:
        """The scalar boundary walk for quantized lanes (compact).

        One call of :func:`~repro.energy.source.quantum_walk`, the walk
        the scalar source runs, over the lanes' rows of the power table.
        A lane whose walk leaves the quantum ladder fails, so its cell
        runs on the scalar engine, whose source then takes the loop.
        """
        width = self.src_qpowers.shape[1]
        rows = lanes[:, None] * width

        def read(kk: IntArray) -> FloatArray:
            # Flat-index gather: same elements as the 2-D fancy index,
            # ~2x faster on the row-block shapes this walk produces.
            power: FloatArray = self.src_qpowers.take(
                rows + np.minimum(kk, width - 1)
            )
            return power

        total, on_ladder = quantum_walk(
            read, self.src_quantum[lanes], None, t0, t1
        )
        if not on_ladder.all():
            self._fail(lanes[~on_ladder], "quantum walk left the ladder")
        return total

    # -- plan bookkeeping --------------------------------------------------

    def _clear_plan(self, lanes: IntArray) -> None:
        """Simulator._clear_plan (sets need_decision)."""
        self._drop_plan(lanes)
        self.need_decision[lanes] = True

    def _drop_plan(self, lanes: IntArray) -> None:
        """Plan teardown without a decision request (_enter_stall)."""
        self.running[lanes] = -1
        self.level[lanes] = -1  # set_level(None): idle switches are free
        self.switch_at[lanes] = np.nan
        self.has_decision[lanes] = False
        self.dec_reconsider[lanes] = INFINITY

    # -- main loop ---------------------------------------------------------

    def run(
        self, on_finish: Optional[Callable[[IntArray], bool]] = None
    ) -> None:
        """Run every lane to its horizon (or until a guard evicts it).

        ``on_finish(lanes)`` is called with the lanes that left the
        active set, once per lockstep iteration in which any did: lanes
        that reached the horizon and lanes a guard evicted (``errors``
        tells them apart).  A lane's state no longer changes once it is
        inactive, so :meth:`result` may read it right away.  Returning
        ``False`` stops the run; the lanes still active stay unfinished.
        """
        if self.n == 0:
            return
        # harvested_energy = source.energy(0, horizon) (same walk as the
        # scalar result builder).  The walk's rows are independent, so
        # doing every lane at once gives each lane's own bits.
        self.harvested = self._src_energy_lanes(
            self.idx, np.zeros(self.n), self.horizon
        )
        horizon_cut = self.horizon - EPSILON
        harvest, boundary = self._src_state(self.t)
        live = self.active.copy()
        n_live = self.n
        iterations = 0
        while True:
            iterations += 1
            if iterations > MAX_ITERATIONS:  # pragma: no cover - guard
                self._fail(self.active.nonzero()[0], "iteration cap")
                break
            self._process_due_events()
            self.active &= self.t < horizon_cut  # reached the horizon
            count = int(np.count_nonzero(self.active))
            if count != n_live:  # lanes only ever leave the active set
                left = (live & ~self.active).nonzero()[0]
                self._end_cap[left] = -INFINITY
                live = self.active.copy()
                n_live = count
                if on_finish is not None and not on_finish(left):
                    break
            if count == 0:
                break
            self._maybe_decide()
            end, segment = self._segment_end(harvest, boundary)
            duration, actual = self._advance_to(end, segment)
            # The next _segment_end runs at this same t (events and
            # decisions do not move time), so it reuses this source state.
            harvest, boundary = self._post_segment(segment, actual)
            # Only active lanes count steps without progress (the others
            # never move), so the guard needs no mask until some count
            # passes its bound.
            self.stagnant = np.where(
                duration > EPSILON, 0, self.stagnant + self.active
            )
            if np.maximum.reduce(self.stagnant) > STAGNATION_LIMIT:
                stuck = (
                    self.active & (self.stagnant > STAGNATION_LIMIT)
                ).nonzero()[0]
                if stuck.size:
                    self._fail(stuck, "stagnation guard")

    def _process_due_events(self) -> None:
        """Simulator._process_due_events: pop while peek <= t + EPSILON.

        One pass drains every due event of every lane.  It gathers each
        due lane's next ``EVENT_WINDOW`` events from its cursor; rows are
        time-sorted, so the due ones form a prefix, and it applies them
        all at once: every release, then every deadline.  That is the
        state the scalar's one-at-a-time pops reach, because coincident
        events touch different jobs and a job's deadline never comes
        before its release (the scalar raises on that).  A lane can
        appear several times in one pass, so the per-lane updates are
        scatter-safe.  Another pass runs only while some lane filled its
        whole window.
        """
        width = self.ev_time.shape[1]
        now = self.t + EPSILON
        while True:
            due_lanes = (self.active & (self.next_ev <= now)).nonzero()[0]
            if due_lanes.size == 0:
                return
            ptr = self.ev_ptr[due_lanes]
            row = due_lanes * width
            cells = (row + ptr)[:, None] + self._ev_window
            due = self.ev_time.take(cells) <= now[due_lanes][:, None]
            taken = due.sum(axis=1)
            lanes = due_lanes[due.nonzero()[0]]
            cells = cells[due]
            jobs = self.ev_job.take(cells)
            is_dl = self.ev_is_deadline.take(cells)
            job_cells = self._job_row[lanes] + jobs
            released = ~is_dl
            rel_lanes = lanes[released]
            if rel_lanes.size:
                rel_cells = job_cells[released]
                self.jstate.put(rel_cells, _READY)  # mark_released
                self._ready_push(rel_lanes, jobs[released], rel_cells)
                self.need_decision[rel_lanes] = True
            dl_lanes = lanes[is_dl]
            if dl_lanes.size:
                self._on_deadlines(dl_lanes, jobs[is_dl], job_cells[is_dl])
            moved = ptr + taken
            self.ev_ptr[due_lanes] = moved
            self.next_ev[due_lanes] = self.ev_time.take(row + moved)
            # Due events form a prefix of each window, so a lane filled
            # its whole window exactly when its last event was due.
            if not np.count_nonzero(due[:, -1]):
                return

    def _on_deadlines(
        self, lanes: IntArray, jobs: IntArray, cells: IntArray
    ) -> None:
        """Simulator._on_deadline for many (lane, job) pairs at once.

        ``cells`` are the pairs' flat indices into the job tables.
        Finished jobs are skipped.  Each job has one deadline event, so
        none of these can have been counted already.
        """
        judged = self.jstate.take(cells) <= _READY  # not finished
        lanes = lanes[judged]
        if lanes.size == 0:
            return
        jobs = jobs[judged]
        cells = cells[judged]
        self.jmiss_counted.put(cells, True)
        np.add.at(self.missed_count, lanes, 1)
        # CONTINUE lanes: only the count changes.
        drop = self.miss_drop[lanes]
        lanes = lanes[drop]
        jobs = jobs[drop]
        cells = cells[drop]
        if lanes.size:
            self.jstate.put(cells, _MISSED)  # mark_missed
            self._ready_remove(lanes, jobs, cells)
            self._clear_plan(lanes[self.running[lanes] == jobs])
            self.need_decision[lanes] = True

    def _maybe_decide(self) -> None:
        """Simulator._maybe_decide + scheduler.decide + _apply_decision."""
        lanes = (self.active & ~self.stalled & self.need_decision).nonzero()[0]
        if lanes.size == 0:
            return
        self.need_decision[lanes] = False
        # EdfReadyQueue.peek: min (deadline, release, counter) == the
        # incrementally maintained per-lane minimum static rank.
        has_job = self.best_rank[lanes] < _NO_JOB
        if np.count_nonzero(has_job) < lanes.size:
            # Decision.idle() for empty queues.
            self._apply_idle(lanes[~has_job], INFINITY)
            lanes = lanes[has_job]
            if lanes.size == 0:
                return
        job = self.best_job[lanes]
        job_cells = self._job_row[lanes] + job
        now = self.t[lanes]
        deadline = self.jdeadline.take(job_cells)
        stored = self.stored[lanes]
        # EnergyOutlook.available_until(now, deadline), split by the
        # lane's predictor kind: the oracle integrates the source over
        # [now, deadline), the online predictors evaluate their live
        # per-lane state through the repro.energy.vectorized kernels.
        deadline_passed = batch_time_le(deadline, now)
        needs_energy = ~deadline_passed & self._wants_energy[lanes]
        predicted = np.zeros(lanes.shape[0])
        if self._has_oracle:
            rows = (needs_energy & self._pred_oracle[lanes]).nonzero()[0]
            if rows.size:
                predicted[rows] = self._src_energy_lanes(
                    lanes[rows], now[rows], deadline[rows]
                )
        if self._has_span:
            rows = (needs_energy & self._pred_span[lanes]).nonzero()[0]
            if rows.size:
                predicted[rows] = batch_span_predict(
                    self.pred_estimate[lanes[rows]], now[rows], deadline[rows]
                )
        if self._has_profile:
            rows = (needs_energy & self._pred_profile[lanes]).nonzero()[0]
            if rows.size:
                pl = lanes[rows]
                predicted[rows] = batch_profile_predict(
                    now[rows],
                    deadline[rows],
                    self.pred_period[pl],
                    self.pred_bw[pl],
                    self.pred_nbins[pl],
                    self.pred_bin_est,
                    rows=pl,
                )
        decision = batch_decide(
            self.kind[lanes],
            now,
            deadline,
            self.jremaining.take(job_cells),
            np.where(deadline_passed, stored, stored + predicted),
            stored >= self._full_level[lanes],  # is_full
            self.speeds.take(lanes, axis=0),
            self.powers.take(lanes, axis=0),
        )
        # _apply_decision for every lane at once: idle lanes carry level
        # -1 and a NaN switch, running lanes a +inf reconsider instant.
        run = decision.run
        new_level = decision.level
        if self._job_detail:
            # note_started (idempotent first dispatch)
            go = run.nonzero()[0]
            cells = job_cells[go]
            first = self.jfirst.take(cells)
            self.jfirst.put(cells, np.where(np.isnan(first), now[go], first))
        # _set_processor_level: a switch is counted only between two real
        # levels with different speeds (distinct indices here — covered
        # scales have speed gaps far above EPSILON); idling is free.
        old_level = self.level[lanes]
        self.switch_count[lanes] += (
            (old_level >= 0) & (new_level >= 0) & (old_level != new_level)
        )
        self.running[lanes] = np.where(run, job, -1)
        self.level[lanes] = new_level
        self.switch_at[lanes] = decision.switch_at
        self.has_decision[lanes] = True
        self.dec_reconsider[lanes] = decision.reconsider_at

    def _apply_idle(
        self, lanes: IntArray, reconsider: Union[FloatArray, float]
    ) -> None:
        """_apply_decision for Decision.idle(reconsider_at=...).

        ``reconsider`` holds one instant per listed lane, or one for all.
        """
        self.running[lanes] = -1
        self.level[lanes] = -1
        self.switch_at[lanes] = np.nan
        self.has_decision[lanes] = True
        self.dec_reconsider[lanes] = reconsider

    def _segment_end(
        self, harvest: FloatArray, boundary: FloatArray
    ) -> tuple[FloatArray, _Segment]:
        """Simulator._segment_end, element-wise.

        ``harvest``/``boundary`` are the source state at ``t``.  Each
        candidate enters the running minimum through masked in-place
        ``np.minimum`` updates; a minimum is exact, so the result equals
        the scalar chain of ``min()`` calls whatever the order.  Three
        candidates need no mask: ``stalled_until`` is +inf on every lane
        that is not stalled, ``dec_reconsider`` is +inf on every lane
        without a decision (stalled lanes included), and ``switch_at`` is
        NaN on every lane without a planned switch, which ``np.fmin``
        skips.  Inactive lanes start from a -inf cap (``_end_cap``), so
        their end is ``t`` and they do not move.  Returns the end and the
        per-lane quantities the rest of the step reuses.
        """
        t = self.t
        running = self.running >= 0
        # Idle lanes read level 0 / job 0; every use masks them out.
        level_cells = self._level_row + np.maximum(self.level, 0)
        job_cells = self._job_row + np.maximum(self.running, 0)
        speed = self.speeds.take(level_cells)
        actual = self.jremaining_actual.take(job_cells)
        end = np.minimum(self._end_cap, self.next_ev)
        np.minimum(end, boundary, out=end)
        np.minimum(end, self.stalled_until, out=end)
        np.minimum(end, self.dec_reconsider, out=end)
        np.fmin(end, self.switch_at, out=end)
        # Running: completion instant (no switching dead time in covered
        # scenarios).
        completion = t + actual / np.maximum(speed, 1e-12)
        np.minimum(end, completion, out=end, where=running)
        draw = np.where(running, self.powers.take(level_cells), 0.0)
        # storage.time_to_empty(harvest, draw): infinite unless the net
        # rate is below -EPSILON (the masked divide leaves +inf there).
        rate = harvest - draw
        time_to_empty = self._inf.copy()
        np.divide(self.stored, -rate, out=time_to_empty, where=rate < -EPSILON)
        np.maximum(time_to_empty, 0.0, out=time_to_empty)
        empty_at = t + time_to_empty
        np.copyto(end, empty_at, where=empty_at < end - EPSILON)
        np.maximum(end, t, out=end)
        return end, _Segment(
            harvest=harvest,
            draw=draw,
            rate=rate,
            running=running,
            speed=speed,
            level_cells=level_cells,
            job_cells=job_cells,
            actual=actual,
        )

    def _advance_to(
        self, end: FloatArray, seg: _Segment
    ) -> tuple[FloatArray, FloatArray]:
        """Simulator._advance_to: storage/processor/job accounting.

        Runs over every lane at once: a lane that does not move (every
        inactive lane among them, see :meth:`_segment_end`) has a zero
        duration, so every sum it takes part in adds exactly ``0.0`` and
        its state is unchanged.  Returns the step durations and each
        lane's remaining true work of its running job after the step.
        """
        # _segment_end never ends before t, so span is 0.0 or positive,
        # the scalar's gate for moving at all.
        span = end - self.t
        if not np.count_nonzero(span):
            return span, seg.actual
        # IdealStorage._advance_finite (+ _saturate)
        proposed = self.stored + seg.rate * span
        negative = proposed < 0.0
        if np.count_nonzero(negative):
            impossible = negative & (
                proposed < -1e-6 * np.maximum(1.0, np.abs(self.stored))
            )
            if np.count_nonzero(impossible):
                self._fail(impossible.nonzero()[0], "storage drained below zero")
            proposed = np.where(negative, 0.0, proposed)
        full = proposed > self.capacity
        if np.count_nonzero(full):
            self.total_overflow[full] += proposed[full] - self.capacity[full]
        np.minimum(proposed, self.capacity, out=self.stored)
        self.total_drawn += seg.draw * span
        if self._has_online:
            self._observe(span, seg.harvest, end)
        # Processor.account_time
        busy_span = np.where(seg.running, span, 0.0)
        self.idle_time += span - busy_span
        self.busy.put(seg.level_cells, self.busy.take(seg.level_cells) + busy_span)
        # Job.execute at the current level (dead time never occurs:
        # switching overhead is zero in covered scenarios)
        work = seg.speed * busy_span
        overrun = work > seg.actual + EPSILON
        if np.count_nonzero(overrun):  # pragma: no cover - defensive guard
            self._fail(overrun.nonzero()[0], "job budget overrun")
        remaining = seg.actual - work
        below = remaining < -1e-6  # snap_nonnegative(…, eps=1e-6)
        if np.count_nonzero(below):  # pragma: no cover - defensive guard
            self._fail(below.nonzero()[0], "negative residual work")
        actual = np.where(remaining < 0.0, 0.0, remaining)
        self.jremaining_actual.put(seg.job_cells, actual)
        self.jremaining.put(
            seg.job_cells,
            np.maximum(0.0, self.jremaining.take(seg.job_cells) - work),
        )
        if self._job_detail:
            self.jenergy.put(
                seg.job_cells,
                self.jenergy.take(seg.job_cells) + seg.draw * busy_span,
            )
        self.t = end
        return span, actual

    def _observe(
        self, duration: FloatArray, harvest: FloatArray, end: FloatArray
    ) -> None:
        """predictor.observe(t, end, harvest * duration) for moving lanes.

        The scalar call happens for every elapsed segment; the
        predictors no-op below EPSILON, and oracle/EDF lanes are skipped
        (see _observe_mask).  Segments never straddle a source boundary
        (_segment_end cuts there), so harvest * duration is the exact
        realized integral, as in the scalar call.
        """
        ol = (self._observe_mask & (duration > EPSILON)).nonzero()[0]
        if ol.size == 0:
            return
        odur = duration[ol]
        oenergy = harvest[ol] * odur
        prof = ol
        if self._has_span:
            okind = self.pred_kind[ol]
            mean_m = okind == _PRED_MEAN
            if np.count_nonzero(mean_m):
                ml = ol[mean_m]
                self.pred_estimate[ml] = batch_mean_observe(
                    self.pred_estimate[ml],
                    self.pred_alpha[ml],
                    odur[mean_m],
                    oenergy[mean_m],
                )
            last_m = okind == _PRED_LAST
            if np.count_nonzero(last_m):
                self.pred_estimate[ol[last_m]] = batch_last_observe(
                    odur[last_m], oenergy[last_m]
                )
            prof_m = okind == _PRED_PROFILE
            prof = ol[prof_m]
            oenergy = oenergy[prof_m]
        if prof.size:
            batch_profile_observe(
                self.t[prof],
                end[prof],
                self.pred_period[prof],
                self.pred_bw[prof],
                self.pred_nbins[prof],
                self.pred_alpha[prof],
                oenergy,
                self.pred_bin_est,
                self.pred_bin_seen,
                rows=prof,
            )

    def _post_segment(
        self, seg: _Segment, actual: FloatArray
    ) -> tuple[FloatArray, FloatArray]:
        """Simulator._post_segment: the cascade of masked early returns.

        ``seg`` is this step's :meth:`_segment_end` state and ``actual``
        the running jobs' remaining true work after the step.  Returns
        the source state at the new ``t`` (see :meth:`_src_state`).
        """
        t = self.t
        harvest, boundary = self._src_state(t)
        # stall expiry (stalled_until is +inf on lanes that are not stalled)
        if np.count_nonzero(self.stalled):
            expired = (
                self.active & (t >= self.stalled_until - EPSILON)
            ).nonzero()[0]
            if expired.size:
                self.stalled[expired] = False
                self.stalled_until[expired] = INFINITY
                self.stall_time[expired] += (
                    t[expired] - self.stall_started[expired]
                )
                self.need_decision[expired] = True
        was_running = seg.running
        # completion: residual true work below the 1e-7 threshold
        done = (self.active & was_running & (actual <= 1e-7)).nonzero()[0]
        if done.size:
            jobs = self.running[done]
            cells = self._job_row[done] + jobs
            self.jremaining_actual.put(cells, 0.0)
            self.jstate.put(cells, _COMPLETED)
            if self._job_detail:
                self.jcompletion.put(cells, t[done])
            self._ready_remove(done, jobs, cells)
            self.completed_count[done] += 1
            self._clear_plan(done)
        # depletion: empty storage and negative net flow -> stall (the
        # level, hence the draw, is unchanged since _segment_end)
        empty = self.stored <= EPSILON
        if np.count_nonzero(empty):
            self._enter_stall(
                (
                    empty
                    & self.active
                    & (self.running >= 0)
                    & (harvest - seg.draw < -EPSILON)
                ).nonzero()[0],
                boundary,
            )
        # planned speed-up reached: only lanes still running keep a
        # planned switch (completion and stalls drop the plan), and a
        # NaN switch_at compares False
        reached = (self.active & (t >= self.switch_at - EPSILON)).nonzero()[0]
        if reached.size:
            self.switch_at[reached] = np.nan
            max_level = self.n_lev - 1
            self.switch_count[reached[self.level[reached] != max_level]] += 1
            self.level[reached] = max_level
        # reconsider instant reached, running or idle: dec_reconsider is
        # +inf on lanes without a decision, which never match
        self.need_decision |= t >= self.dec_reconsider - EPSILON
        # idle at entry with work pending and no stall: wake the scheduler
        self.need_decision |= ~(was_running | self.stalled) & (
            self.best_rank < _NO_JOB
        )
        return harvest, boundary

    def _enter_stall(self, lanes: IntArray, boundary: FloatArray) -> None:
        """_enter_stall: retry at the next source boundary or after the
        stall retry interval, whichever is sooner."""
        if lanes.size == 0:
            return
        t = self.t[lanes]
        self.stall_count[lanes] += 1
        self.stall_started[lanes] = t
        self.stalled[lanes] = True
        self.stalled_until[lanes] = np.minimum(
            boundary[lanes], t + STALL_RETRY_INTERVAL
        )
        self._drop_plan(lanes)

    # -- result extraction -------------------------------------------------

    def result(self, i: int, include_jobs: bool = True) -> SimulationResult:
        """Rebuild the lane's SimulationResult (mirrors _build_result).

        ``include_jobs=False`` skips the per-job state writeback and
        returns a slim result (``jobs=()``), which is what sweeps keep
        anyway; equivalence harnesses want the full job tuple.
        """
        lane = self.lanes[i]
        if self.errors[i] is not None:
            raise RuntimeError(
                f"lane {i} failed in the batch core: {self.errors[i]}"
            )
        if include_jobs:
            if lane.jobs is None:
                raise RuntimeError(
                    "lane was built without Job objects (slim sweep path)"
                )
            for k, job in enumerate(lane.jobs):
                job._state = _JOB_STATES[int(self.jstate[i, k])]
                job._remaining = float(self.jremaining[i, k])
                job._remaining_actual = float(self.jremaining_actual[i, k])
                job._energy_consumed = float(self.jenergy[i, k])
                first = self.jfirst[i, k]
                job._first_start_time = (
                    None if math.isnan(first) else float(first)
                )
                done = self.jcompletion[i, k]
                job._completion_time = (
                    None if math.isnan(done) else float(done)
                )
        n_tasks = len(lane.task_names)
        released = np.bincount(lane.jtask, minlength=n_tasks)
        per_task_released = {
            name: int(count)
            for name, count in zip(lane.task_names, released)
            if count
        }
        missed_jobs = np.flatnonzero(self.jmiss_counted[i, : lane.n_jobs])
        missed = np.bincount(lane.jtask[missed_jobs], minlength=n_tasks)
        per_task_missed = {
            name: int(count)
            for name, count in zip(lane.task_names, missed)
            if count
        }
        judged = int(np.sum(lane.jdeadline <= lane.horizon + EPSILON))
        busy_profile = {
            float(lane.speeds[lv]): float(self.busy[i, lv])
            for lv in range(self.n_lev)
        }
        return SimulationResult(
            scheduler_name=lane.scheduler_name,
            horizon=lane.horizon,
            jobs=tuple(lane.jobs) if include_jobs and lane.jobs else (),
            released_count=lane.n_jobs,
            completed_count=int(self.completed_count[i]),
            missed_count=int(self.missed_count[i]),
            judged_count=judged,
            harvested_energy=float(self.harvested[i]),
            drawn_energy=float(self.total_drawn[i]),
            overflow_energy=float(self.total_overflow[i]),
            leaked_energy=0.0,
            final_stored=float(self.stored[i]),
            storage_capacity=lane.capacity,
            busy_time_profile=busy_profile,
            idle_time=float(self.idle_time[i]),
            switch_count=int(self.switch_count[i]),
            stall_count=int(self.stall_count[i]),
            stall_time=float(self.stall_time[i]),
            per_task_released=per_task_released,
            per_task_missed=per_task_missed,
        )


# -- coverage probe -------------------------------------------------------


def runspec_fallback_reason(spec: "RunSpec") -> Optional[str]:
    """Why this sweep cell needs the scalar engine, or None.

    All four predictor kinds are vectorized.  A setup that overrides
    ``PaperSetup.run`` (the chaos harness, test doubles) simulates a
    world the lane builder cannot see, so it always falls back.  The
    lane builder names the remaining reasons (see :func:`_runspec_lane`).
    """
    if spec.scheduler_name not in SCHEDULER_KINDS:
        return f"scheduler {spec.scheduler_name!r} not vectorized"
    if type(spec.setup).run is not PaperSetup.run:
        return f"setup {type(spec.setup).__name__} overrides run"
    if spec.energy_sample_interval is not None:
        return "energy sampling requested"
    if not math.isfinite(spec.capacity):
        return "infinite storage"
    return None


# -- the front-end --------------------------------------------------------


def execute_runspecs(
    specs: Sequence["RunSpec"],
    on_result: Optional[Callable[[int, SimulationResult], bool]] = None,
    include_jobs: bool = False,
) -> tuple[list[Optional[SimulationResult]], dict[str, int]]:
    """Run every coverable cell on the core; ``None`` marks the rest.

    Returns ``(results, fallback_reasons)`` in input order.  A cell is
    left out (and its reason counted) when the fallback probe rejects
    it, when building its lane raises, or when a core guard evicts it;
    the supervisor hands those cells to the scalar runner with the
    sweep's timeout, retries and journaling.  Lanes run in one core per
    DVFS ladder size (the core's level tables are rectangular), in order
    of first appearance.

    Results are slim (``jobs=()``), which is what sweeps keep;
    ``include_jobs=True`` builds every lane from real ``Job`` objects
    and returns their final timelines, for equivalence checks.

    ``on_result(index, result)`` is called with each cell the moment its
    lane reaches the horizon, so cells arrive in lane-finish order (the
    shape of ``run_parallel_salvage``'s ``on_outcome``).  Returning
    ``False`` stops the core; the cells not finished by then come back
    ``None`` and are not counted in ``fallback_reasons``.
    """
    results: list[Optional[SimulationResult]] = [None] * len(specs)
    reasons: Counter[str] = Counter()
    placed: list[int] = []
    lanes: list[_Lane] = []
    for i, spec in enumerate(specs):
        reason = runspec_fallback_reason(spec)
        if reason is None:
            try:
                lanes.append(_runspec_lane(spec, include_jobs))
                placed.append(i)
                continue
            except UncoveredScenarioError as exc:
                reason = str(exc)
            except Exception as exc:  # noqa: BLE001 - the scalar path reports it
                reason = f"lane build raised {type(exc).__name__}"
        reasons[reason] += 1
    groups: dict[int, list[int]] = {}
    for pos, lane in enumerate(lanes):
        groups.setdefault(lane.speeds.shape[0], []).append(pos)
    for group in groups.values():
        core = _BatchCore([lanes[pos] for pos in group])
        stopped = False

        def land(finished: IntArray) -> bool:
            nonlocal stopped
            for pos in finished.tolist():
                if core.errors[pos] is None:
                    i = placed[group[pos]]
                    result = results[i] = core.result(pos, include_jobs)
                    if on_result is not None and not on_result(i, result):
                        stopped = True
                        return False
            return True

        core.run(land)
        for error in core.errors:
            if error is not None:
                reasons[f"batch core: {error}"] += 1
        if stopped:
            break
    return results, dict(reasons)


#: ``SimulationConfig`` fields the core does not mirror: a setup whose
#: ``config()`` moves one off its default falls back.
_UNMIRRORED_CONFIG_FIELDS: tuple[str, ...] = tuple(
    f.name
    for f in fields(SimulationConfig)
    if f.name not in ("horizon", "miss_policy", "aet_seed")
)
_DEFAULT_CONFIG = SimulationConfig()


def _runspec_lane(spec: "RunSpec", include_jobs: bool = False) -> _Lane:
    """A lane replaying ``PaperSetup.run`` exactly, from the same hooks.

    Raises :class:`UncoveredScenarioError` for a processor model, an
    unmirrored config field off its default, a task set other than a
    plain :class:`TaskSet` (an ``OverrunWorkload`` draws its own
    demands), a storage other than a finite :class:`IdealStorage`, or
    an unvectorized source or predictor.  The checks match exact types:
    a subclass, such as every fault wrapper, may change what the core
    replays.  Without an AET seed and without job
    timelines, all-periodic sets take the array-only job path: no
    ``Job`` objects are created, which is the setup hot spot on big
    sweeps, and such lanes cannot serve ``result(include_jobs=True)``.
    """
    setup = spec.setup
    scale = setup.scale()
    if setup.processor(scale) is not None:
        raise UncoveredScenarioError("processor model is not vectorized")
    config = setup.config(spec.seed, spec.energy_sample_interval)
    for name in _UNMIRRORED_CONFIG_FIELDS:
        if getattr(config, name) != getattr(_DEFAULT_CONFIG, name):
            raise UncoveredScenarioError(
                f"config field {name} is not vectorized"
            )
    taskset = setup.taskset(spec.seed, spec.utilization)
    if type(taskset) is not TaskSet:
        raise UncoveredScenarioError(
            f"task set type {type(taskset).__name__} is not vectorized"
        )
    source = setup.source(spec.seed)
    storage = setup.storage(spec.capacity)
    predictor = setup.predictor(source)
    horizon = config.horizon
    miss_drop = config.miss_policy is DeadlineMissPolicy.DROP
    arrays = None
    if config.aet_seed is None and not include_jobs:
        arrays = _periodic_job_arrays(taskset, horizon)
    if arrays is not None:
        jrelease, jdeadline, jwork, jtask, task_names = arrays
        return _assemble_lane(
            scheduler_name=spec.scheduler_name,
            scale=scale,
            source=source,
            storage=storage,
            predictor=predictor,
            horizon=horizon,
            miss_drop=miss_drop,
            jrelease=jrelease,
            jdeadline=jdeadline,
            jwork=jwork,
            jactual=jwork.copy(),  # no AET seed: actual == WCET
            jtask=jtask,
            task_names=task_names,
            jobs=None,
        )
    rng = (
        None if config.aet_seed is None
        else np.random.default_rng(config.aet_seed)
    )
    return _build_lane(
        scheduler_name=spec.scheduler_name,
        scale=scale,
        jobs=taskset.jobs(horizon, rng),
        source=source,
        storage=storage,
        predictor=predictor,
        horizon=horizon,
        miss_drop=miss_drop,
    )


def _periodic_job_arrays(
    taskset: "TaskSet", horizon: float
) -> Optional[tuple[FloatArray, FloatArray, FloatArray, IntArray, list[str]]]:
    """Vectorized ``TaskSet.jobs(horizon, None)`` for all-periodic sets
    (of the exact ``TaskSet`` type, which :func:`_runspec_lane` checks).

    Mirrors the scalar generator arithmetic exactly: releases are
    ``first_release + k * period`` (one multiply, one add, like the
    scalar loop), cut strictly below ``horizon - EPSILON``, deadlines are
    ``release + relative_deadline``, and the final order is the stable
    ``(release, deadline, task name)`` sort (``np.lexsort`` is stable,
    like ``list.sort``).  Returns ``(release, deadline, wcet, task index,
    task names)`` or ``None`` when a task is not a plain
    :class:`~repro.tasks.task.PeriodicTask` (callers then fall back to
    building real ``Job`` objects).  Only valid for ``rng=None`` job
    generation — actual demand equals the WCET.
    """
    tasks = list(taskset)
    if any(type(task) is not PeriodicTask for task in tasks):
        return None
    task_names = [task.name for task in tasks]
    name_rank_of = {name: r for r, name in enumerate(sorted(task_names))}
    limit = horizon - EPSILON
    rel_parts: list[FloatArray] = []
    dl_parts: list[FloatArray] = []
    wcet_parts: list[FloatArray] = []
    task_parts: list[IntArray] = []
    rank_parts: list[IntArray] = []
    for ti, task in enumerate(tasks):
        first = task.first_release
        period = task.period
        if first >= limit:
            continue
        bound = int(math.ceil((limit - first) / period)) + 2
        rel = first + np.arange(bound, dtype=np.int64) * period
        rel = rel[rel < limit]
        count = int(rel.shape[0])
        rel_parts.append(rel)
        dl_parts.append(rel + task.relative_deadline)
        wcet_parts.append(np.full(count, task.wcet))
        task_parts.append(np.full(count, ti, dtype=np.int64))
        rank_parts.append(
            np.full(count, name_rank_of[task.name], dtype=np.int64)
        )
    if not rel_parts:
        empty = np.zeros(0)
        return empty, empty.copy(), empty.copy(), np.zeros(
            0, dtype=np.int64
        ), task_names
    jrelease = np.concatenate(rel_parts)
    jdeadline = np.concatenate(dl_parts)
    jwork = np.concatenate(wcet_parts)
    jtask = np.concatenate(task_parts)
    name_rank = np.concatenate(rank_parts)
    perm = np.lexsort((name_rank, jdeadline, jrelease))
    return (
        jrelease[perm],
        jdeadline[perm],
        jwork[perm],
        jtask[perm],
        task_names,
    )
