"""Analytic oracles for the EA-DVFS decision rule and completed runs.

Two layers of checking:

* **Decision oracles** — :func:`recompute_plan` re-derives ``sr_n``,
  ``sr_max``, ``s1``, ``s2`` and the minimum feasible level of
  inequality (6) straight from the paper's equations, *without* calling
  :func:`repro.core.slowdown.compute_plan`; :class:`OracleCheckedScheduler`
  wraps an :class:`~repro.core.ea_dvfs.EaDvfsScheduler` and asserts every
  single decision (job selection, level, start time, switch-up instant)
  against the independent arithmetic, raising :class:`OracleViolationError`
  on the first divergence.

* **Trace oracles** — pure functions over a finished
  :class:`~repro.sim.simulator.SimulationResult`:
  :func:`check_energy_conservation`, :func:`check_causality`,
  :func:`check_accounting` re-verify the physical and accounting
  invariants, and :func:`compare_schedules` asserts schedule *identity*
  between two runs — the primitive behind the paper's degeneracy claims
  (infinite storage → plain EDF at ``f_max``; slow-down disabled → LSA).

All check functions return a list of human-readable problem strings
(empty = clean) so the differential harness can aggregate them into
structured discrepancies instead of dying on the first assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.ea_dvfs import EaDvfsScheduler
from repro.cpu.dvfs import FrequencyLevel, FrequencyScale
from repro.sched.base import Decision, EnergyOutlook, Scheduler
from repro.sim.simulator import DeadlineMissPolicy, SimulationResult
from repro.tasks.job import Job
from repro.tasks.queue import EdfReadyQueue
from repro.timeutils import EPSILON, INFINITY, time_gt, time_le, time_lt

__all__ = [
    "OraclePlan",
    "OracleViolation",
    "OracleViolationError",
    "OracleCheckedScheduler",
    "check_accounting",
    "check_causality",
    "check_energy_conservation",
    "compare_schedules",
    "expected_ea_dvfs_decision",
    "expected_lazy_decision",
    "recompute_plan",
]


@dataclass(frozen=True)
class OraclePlan:
    """Independently recomputed quantities of equations (5)-(9).

    ``feasible_level`` is ``None`` when inequality (6) fails even at full
    speed (the deadline is unreachable regardless of energy).
    """

    feasible_level: Optional[FrequencyLevel]
    sr_n: float
    sr_max: float
    s1: float
    s2: float


def recompute_plan(
    now: float,
    deadline: float,
    remaining_work: float,
    available_energy: float,
    scale: FrequencyScale,
) -> OraclePlan:
    """Equations (5)-(9) from first principles.

    Deliberately does **not** call
    :func:`repro.core.slowdown.compute_plan` — the level search walks the
    ladder with ``w / S_n`` directly and the slack times divide the raw
    energy, so a bug in the production plan code cannot hide here.  The
    float *operations* match the production ones exactly (same divisions
    in the same order), which is what makes bit-exact decision comparison
    possible.
    """
    if available_energy < 0:
        available_energy = 0.0
    window = deadline - now
    feasible: Optional[FrequencyLevel] = None
    if window >= 0:
        for level in scale.levels:
            # Inequality (6): w / S_n <= D - t (with the ladder's own
            # epsilon tolerance at the boundary).
            if remaining_work / level.speed <= window + EPSILON:
                feasible = level
                break
    max_level = scale.max_level
    if feasible is None:
        return OraclePlan(
            feasible_level=None, sr_n=0.0, sr_max=0.0, s1=now, s2=now
        )
    if math.isinf(available_energy):
        sr_n = INFINITY
        sr_max = INFINITY
    else:
        sr_n = available_energy / feasible.power
        sr_max = available_energy / max_level.power
    return OraclePlan(
        feasible_level=feasible,
        sr_n=sr_n,
        sr_max=sr_max,
        s1=max(now, deadline - sr_n),
        s2=max(now, deadline - sr_max),
    )


def expected_ea_dvfs_decision(
    now: float,
    job: Job,
    outlook: EnergyOutlook,
    scale: FrequencyScale,
    full_storage_fast_path: bool = True,
) -> Decision:
    """The decision Figure 4 demands for ``job`` at ``now``."""
    if full_storage_fast_path and outlook.storage_is_full:
        return Decision.run(job, scale.max_level)
    available = outlook.available_until(now, job.absolute_deadline)
    plan = recompute_plan(
        now, job.absolute_deadline, job.remaining_work, available, scale
    )
    if plan.feasible_level is None:
        # Best effort at full speed; the miss is the simulator's to record.
        return Decision.run(job, scale.max_level)
    if plan.s2 - plan.s1 <= EPSILON:
        # Case (a) — including the degenerate "f_n is already f_max"
        # variant where both collapse onto a future s2.
        if plan.s2 > now + EPSILON:
            return Decision.idle(reconsider_at=plan.s2)
        return Decision.run(job, scale.max_level)
    # Case (b): idle until s1, stretch over [s1, s2), full speed after.
    if plan.s1 > now + EPSILON:
        return Decision.idle(reconsider_at=plan.s1)
    if time_le(plan.s2, now, eps=1e-6):
        # Degenerate-switch skip mirrored from the production rule.
        return Decision.run(job, scale.max_level)
    return Decision.run(
        job, plan.feasible_level, switch_to_max_at=plan.s2
    )


def expected_lazy_decision(
    now: float,
    job: Job,
    outlook: EnergyOutlook,
    scale: FrequencyScale,
) -> Decision:
    """The ``s2``-only rule (eq. (8)) — LSA, and EA-DVFS sans slow-down."""
    max_level = scale.max_level
    available = outlook.available_until(now, job.absolute_deadline)
    if math.isinf(available):
        return Decision.run(job, max_level)
    if available < 0:
        available = 0.0
    start = max(now, job.absolute_deadline - available / max_level.power)
    if start > now + EPSILON:
        return Decision.idle(reconsider_at=start)
    return Decision.run(job, max_level)


@dataclass(frozen=True)
class OracleViolation:
    """One decision that diverged from the analytic oracle."""

    time: float
    job: Optional[str]
    expected: str
    actual: str
    context: str

    def __str__(self) -> str:
        return (
            f"t={self.time:g} job={self.job or '-'}: "
            f"expected {self.expected}, got {self.actual} ({self.context})"
        )


class OracleViolationError(AssertionError):
    """Raised by :class:`OracleCheckedScheduler` on the first divergence."""

    def __init__(self, violation: OracleViolation) -> None:
        super().__init__(str(violation))
        self.violation = violation


def _describe_decision(decision: Decision) -> str:
    if decision.is_idle:
        if math.isinf(decision.reconsider_at):
            return "idle"
        return f"idle(reconsider_at={decision.reconsider_at!r})"
    text = f"run({decision.job.name}@{decision.level.speed:g}"
    if decision.switch_to_max_at is not None:
        text += f", switch_to_max_at={decision.switch_to_max_at!r}"
    return text + ")"


def _decisions_equal(expected: Decision, actual: Decision) -> bool:
    if expected.is_idle != actual.is_idle:
        return False
    if expected.is_idle:
        # Bit-exact on purpose: oracle and production code perform the
        # same float operations, so any difference is a real divergence.
        return expected.reconsider_at == actual.reconsider_at
    return (
        expected.job is actual.job
        and expected.level == actual.level
        and expected.switch_to_max_at == actual.switch_to_max_at
    )


# Wrapper is constructed directly by the differential harness around an
# existing scheduler; registering it by name would make no sense.
class OracleCheckedScheduler(Scheduler):  # repro-lint: disable=RPR302 -- verify-internal wrapper
    """Transparent wrapper asserting every inner decision against the oracle.

    The inner scheduler must be an :class:`EaDvfsScheduler` (either
    configuration — the oracle follows the ``slowdown`` flag).  Decisions
    are compared *bit-exactly*: oracle and production code perform the
    same float operations on the same inputs, so any tolerance would only
    hide real divergence.
    """

    name = "oracle-checked"

    def __init__(self, inner: EaDvfsScheduler) -> None:
        if not isinstance(inner, EaDvfsScheduler):
            raise TypeError(
                f"oracle checking is defined for EaDvfsScheduler, "
                f"got {type(inner).__name__}"
            )
        super().__init__(inner.scale)
        self._inner = inner
        self.checked_decisions = 0

    @property
    def inner(self) -> EaDvfsScheduler:
        return self._inner

    def decide(
        self,
        now: float,
        ready: EdfReadyQueue,
        outlook: EnergyOutlook,
    ) -> Decision:
        job = ready.peek()
        actual = self._inner.decide(now, ready, outlook)
        self.checked_decisions += 1
        if job is None:
            expected = Decision.idle()
        elif self._inner.slowdown:
            expected = expected_ea_dvfs_decision(
                now, job, outlook, self._scale,
                full_storage_fast_path=self._inner.full_storage_fast_path,
            )
        else:
            expected = expected_lazy_decision(now, job, outlook, self._scale)
        if not actual.is_idle and actual.job is not job:
            raise OracleViolationError(OracleViolation(
                time=now,
                job=getattr(actual.job, "name", None),
                expected=f"dispatch of EDF-earliest job "
                f"{job.name if job else '-'}",
                actual=_describe_decision(actual),
                context="EDF job-selection oracle",
            ))
        if not _decisions_equal(expected, actual):
            raise OracleViolationError(OracleViolation(
                time=now,
                job=job.name if job is not None else None,
                expected=_describe_decision(expected),
                actual=_describe_decision(actual),
                context=(
                    "slow-down plan oracle"
                    if self._inner.slowdown
                    else "lazy s2-rule oracle"
                ),
            ))
        return actual

    def __repr__(self) -> str:
        return f"OracleCheckedScheduler({self._inner!r})"


# -- trace oracles --------------------------------------------------------


def check_energy_conservation(
    result: SimulationResult,
    initial_stored: float,
    lossless: bool = True,
) -> list[str]:
    """Re-check the energy ledger of a finished run.

    For lossless (ideal, non-faulted) storage the strict balance
    ``initial + harvested = drawn + overflow + leaked + final`` must hold;
    otherwise (degraded storage, unknown initial) only the physical
    bounds are enforced.  Infinite storage has no meaningful ledger and
    reduces to sign checks.
    """
    problems: list[str] = []
    for name in ("harvested_energy", "drawn_energy", "overflow_energy",
                 "leaked_energy"):
        value = getattr(result, name)
        if value < -1e-9 or math.isnan(value):
            problems.append(f"{name} is {value!r}, expected >= 0")
    if math.isfinite(result.storage_capacity):
        if result.final_stored < -1e-6:
            problems.append(
                f"final stored energy {result.final_stored!r} is negative"
            )
        if result.final_stored > result.storage_capacity + 1e-6:
            problems.append(
                f"final stored energy {result.final_stored!r} exceeds "
                f"capacity {result.storage_capacity!r}"
            )
        if lossless and math.isfinite(initial_stored):
            balance = (
                initial_stored
                + result.harvested_energy
                - result.drawn_energy
                - result.overflow_energy
                - result.leaked_energy
                - result.final_stored
            )
            tolerance = 1e-6 * max(1.0, result.harvested_energy)
            if abs(balance) >= tolerance:
                problems.append(
                    f"energy ledger off by {balance!r} "
                    f"(initial={initial_stored!r}, "
                    f"harvested={result.harvested_energy!r}, "
                    f"drawn={result.drawn_energy!r}, "
                    f"overflow={result.overflow_energy!r}, "
                    f"leaked={result.leaked_energy!r}, "
                    f"final={result.final_stored!r})"
                )
    return problems


def check_causality(
    result: SimulationResult,
    miss_policy: DeadlineMissPolicy = DeadlineMissPolicy.DROP,
) -> list[str]:
    """Per-job temporal sanity: release <= start <= completion <= horizon."""
    problems: list[str] = []
    for job in result.jobs:
        if job.first_start_time is not None:
            if job.first_start_time < job.release - 1e-9:
                problems.append(
                    f"{job.name}: started at {job.first_start_time!r} "
                    f"before release {job.release!r}"
                )
        if job.completion_time is not None:
            if job.first_start_time is None:
                problems.append(
                    f"{job.name}: completed without ever starting"
                )
            elif time_lt(job.completion_time, job.first_start_time):
                problems.append(
                    f"{job.name}: completed at {job.completion_time!r} "
                    f"before first start {job.first_start_time!r}"
                )
            if time_gt(job.completion_time, result.horizon):
                problems.append(
                    f"{job.name}: completed at {job.completion_time!r} "
                    f"past the horizon {result.horizon!r}"
                )
            if (
                miss_policy is DeadlineMissPolicy.DROP
                and time_gt(job.completion_time, job.absolute_deadline, eps=1e-6)
            ):
                problems.append(
                    f"{job.name}: completed at {job.completion_time!r} "
                    f"after its deadline {job.absolute_deadline!r} "
                    f"under the DROP policy"
                )
    return problems


def check_accounting(
    result: SimulationResult,
    miss_policy: DeadlineMissPolicy = DeadlineMissPolicy.DROP,
) -> list[str]:
    """Job-count and time-budget consistency of a finished run.

    Under the CONTINUE policy a job may be counted both missed *and*
    (later) completed, so the completed/missed partition of released jobs
    only holds under DROP.
    """
    problems: list[str] = []
    if result.released_count != len(result.jobs):
        problems.append(
            f"released_count {result.released_count} != "
            f"{len(result.jobs)} recorded jobs"
        )
    if (
        miss_policy is DeadlineMissPolicy.DROP
        and result.completed_count + result.missed_count
        > result.released_count
    ):
        problems.append(
            f"completed {result.completed_count} + missed "
            f"{result.missed_count} exceeds released {result.released_count} "
            f"under the DROP policy"
        )
    if result.completed_count > result.released_count:
        problems.append(
            f"completed {result.completed_count} exceeds released "
            f"{result.released_count}"
        )
    if result.missed_count > result.judged_count:
        problems.append(
            f"missed {result.missed_count} exceeds judged "
            f"{result.judged_count}"
        )
    if result.judged_count > result.released_count:
        problems.append(
            f"judged_count {result.judged_count} exceeds released "
            f"{result.released_count}"
        )
    if not 0.0 <= result.miss_rate <= 1.0 and result.judged_count:
        problems.append(f"miss rate {result.miss_rate!r} outside [0, 1]")
    busy = result.total_busy_time
    if busy < -1e-9 or busy > result.horizon + 1e-6:
        problems.append(
            f"busy time {busy!r} outside [0, horizon={result.horizon!r}]"
        )
    if abs(busy + result.idle_time - result.horizon) > 1e-6:
        problems.append(
            f"busy {busy!r} + idle {result.idle_time!r} does not sum to "
            f"the horizon {result.horizon!r}"
        )
    if time_gt(result.stall_time, result.idle_time, eps=1e-6):
        problems.append(
            f"stall time {result.stall_time!r} exceeds idle time "
            f"{result.idle_time!r}"
        )
    return problems


#: Per-job timeline fields compared by :func:`compare_schedules`, with
#: their report labels.
_TIMELINE_FIELDS: tuple[tuple[str, str], ...] = (
    ("first_start_time", "first start"),
    ("completion_time", "completion"),
    ("energy_consumed", "energy"),
)


def compare_schedules(
    result_a: SimulationResult,
    result_b: SimulationResult,
    label_a: str = "a",
    label_b: str = "b",
    max_problems: int = 10,
) -> list[str]:
    """Assert schedule identity between two runs of the *same* world.

    Compares the per-job timelines (state, first start, completion,
    energy) and the aggregate counters with ``==``.  The paper's
    degeneracy claims are claims of identity, not similarity:
    schedulers that genuinely coincide produce bit-equal schedules.
    """
    problems: list[str] = []

    def note(text: str) -> None:
        if len(problems) < max_problems:
            problems.append(text)
        elif len(problems) == max_problems:
            problems.append("... further differences suppressed")

    if result_a.released_count != result_b.released_count:
        note(
            f"released {result_a.released_count} ({label_a}) != "
            f"{result_b.released_count} ({label_b})"
        )
    if result_a.missed_count != result_b.missed_count:
        note(
            f"missed {result_a.missed_count} ({label_a}) != "
            f"{result_b.missed_count} ({label_b})"
        )
    if result_a.completed_count != result_b.completed_count:
        note(
            f"completed {result_a.completed_count} ({label_a}) != "
            f"{result_b.completed_count} ({label_b})"
        )
    jobs_a = {job.name: job for job in result_a.jobs}
    jobs_b = {job.name: job for job in result_b.jobs}
    for name in sorted(jobs_a.keys() ^ jobs_b.keys()):
        holder = label_a if name in jobs_a else label_b
        note(f"job {name} exists only in {holder}")
    for name in sorted(jobs_a.keys() & jobs_b.keys()):
        a, b = jobs_a[name], jobs_b[name]
        if a.state is not b.state:
            note(
                f"job {name}: state {a.state.value} ({label_a}) != "
                f"{b.state.value} ({label_b})"
            )
        for attr, label in _TIMELINE_FIELDS:
            value_a, value_b = getattr(a, attr), getattr(b, attr)
            if value_a != value_b:
                note(
                    f"job {name}: {label} {value_a!r} ({label_a}) != "
                    f"{value_b!r} ({label_b})"
                )
    return problems
