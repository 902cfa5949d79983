"""Supervised, budgeted, journal-checkpointed sweep execution.

:func:`run_supervised` generalizes
:func:`repro.analysis.parallel.run_parallel_salvage` into a crash-aware
service loop:

* **checkpoint/resume** — with a :class:`~repro.runtime.journal.
  ResultJournal` attached, cells whose key is already journaled are
  skipped (results always; failures only once quarantined), and every
  fresh outcome is durably appended the moment its cell lands, so
  ``kill -9`` at any point loses at most the ≤ ``workers`` cells in
  flight (on the batch engine, the lanes still running: each cell
  lands when its lane reaches the horizon);
* **bounded retries** with seeded exponential backoff + jitter
  (:func:`repro.analysis.parallel.retry_delay` — the whole retry
  schedule is a pure function of the policy seed, no wall-clock RNG);
* **poisoned-task quarantine** — a cell that keeps failing across
  retries *and resumes* stops being retried once its cumulative attempt
  count reaches ``quarantine_after``;
* **graceful degradation** — wall-clock and memory budgets are checked
  before the sweep and after every landing; exceeding one stops the
  runner (the scalar pool lets the cells in flight land, the batch
  core drops its unfinished lanes and no fallback is launched), and the
  supervisor returns a structured :class:`SweepReport`
  (``budget_exhausted`` set) instead of dying mid-sweep.

One landing callback journals each outcome and then checks the
budgets, for both runners: :func:`repro.sim.batch.execute_runspecs`
calls it as each vectorized lane finishes, and
:func:`~repro.analysis.parallel.run_parallel_salvage` as each scalar
cell lands.  Every cell that runs on the scalar simulator is part of
one ``run_parallel_salvage`` call on one worker pool: the whole pending
grid on the scalar engine; on the batch engine, the cells the
vectorized core leaves out (uncovered shapes, lane-build errors, core
guard trips), run after the core.  Those fallback cells therefore get
the same timeout, retries and quarantine as a scalar sweep; the cells
the core covers get no per-cell timeout.

The supervisor is the journal's only writer; workers never touch disk.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.analysis.parallel import (
    Outcome,
    RunFailure,
    RunSpec,
    run_parallel_salvage,
)
from repro.runtime.journal import (
    JournalKey,
    ResultJournal,
    failure_from_payload,
    journal_key,
    result_from_payload,
)
from repro.sim.simulator import SimulationResult

__all__ = [
    "SupervisorPolicy",
    "SweepFailedError",
    "SweepReport",
    "run_supervised",
]


class SweepFailedError(RuntimeError):
    """A sweep that requires complete results had failed cells."""

    def __init__(self, failures: Sequence[RunFailure]) -> None:
        first = failures[0]
        detail = f"{first.error_type}: {first.message}"
        if first.traceback:
            detail += "\n" + first.traceback
        super().__init__(
            f"{len(failures)} sweep cell(s) failed after salvage; first: "
            f"{detail}"
        )
        self.failures = tuple(failures)


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry, quarantine and budget discipline of one supervised sweep."""

    #: Per-cell wall-clock timeout, counted from the cell's launch
    #: (pooled scalar runs only, batch-engine fallback cells included;
    #: see :func:`~repro.analysis.parallel.run_parallel_salvage`).
    timeout: Optional[float] = None
    #: Extra attempts per failing cell within one run.
    retries: int = 1
    #: Base backoff before retry round ``r``: ``backoff * 2**(r-1)``.
    backoff: float = 0.5
    #: Relative width of the seeded backoff jitter.
    jitter: float = 0.1
    #: Seed of the retry schedule (backoff jitter + retry ordering).
    seed: int = 0
    #: Cumulative attempts (across resumes) after which a cell is
    #: poisoned: journaled as a quarantined failure and never retried.
    quarantine_after: int = 3
    #: Stop launching new cells once this much wall-clock time (s) has
    #: elapsed; finished work is flushed and the report says so.
    max_wall_clock: Optional[float] = None
    #: Stop launching new cells once the process RSS exceeds this many
    #: MiB (best effort — measured via ``resource.getrusage``).
    max_rss_mb: Optional[float] = None
    #: Cells per batch-engine block: bounds the vectorized core's width
    #: and memory.  Default: the whole pending grid in one block.  Cells
    #: are journaled one by one on either engine whatever the block
    #: size; the scalar engine ignores it.
    batch_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries!r}")
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {self.quarantine_after!r}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size!r}"
            )
        if self.max_wall_clock is not None and self.max_wall_clock <= 0:
            raise ValueError(
                f"max_wall_clock must be > 0, got {self.max_wall_clock!r}"
            )
        if self.max_rss_mb is not None and self.max_rss_mb <= 0:
            raise ValueError(
                f"max_rss_mb must be > 0, got {self.max_rss_mb!r}"
            )


@dataclass(frozen=True)
class SweepReport:
    """Structured outcome of one supervised sweep.

    ``outcomes`` is in input-spec order; an entry is ``None`` only when
    a budget ran out before the cell finished (``budget_exhausted``
    names the budget).  Everything that *did* finish — including in
    earlier interrupted runs, via the journal — is populated.
    """

    outcomes: tuple[Optional[Outcome], ...]
    #: Cells answered straight from the journal (no simulation run).
    journal_hits: int
    #: Cells simulated in this run.
    executed: int
    #: Cells without an outcome because a budget ran out: never
    #: launched, or dropped unfinished by the batch core.
    not_run: int
    #: Cells whose final outcome is a failure record.
    failed: int
    #: Failures frozen by the quarantine threshold.
    quarantined: int
    elapsed: float
    #: ``None``, ``"wall-clock"`` or ``"memory"``.
    budget_exhausted: Optional[str] = None
    journal_path: Optional[str] = None
    #: Which execution engine ran the cells (``"scalar"`` or ``"batch"``).
    engine: str = "scalar"
    #: Histogram of fallback reasons for this run's executed cells only —
    #: journal-resumed cells are answered before execution and never
    #: re-add to it, so resuming an interrupted sweep cannot double
    #: count.  Empty on the scalar engine and on fully-covered batches
    #: (the default sweep grid is fully covered).
    fallback_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def batch_fallbacks(self) -> int:
        """Cells the batch core left to the scalar runner (uncovered
        shapes, lane-build errors or core guard trips); always 0 on the
        scalar engine."""
        return sum(self.fallback_reasons.values())

    @property
    def ok(self) -> bool:
        """Every cell has a successful result."""
        return self.failed == 0 and self.not_run == 0

    @property
    def completed(self) -> int:
        return len(self.outcomes) - self.failed - self.not_run

    def results(self) -> list[SimulationResult]:
        """All successful results, in input order (failures/unrun skipped)."""
        return [o for o in self.outcomes if isinstance(o, SimulationResult)]

    def failures(self) -> list[RunFailure]:
        return [o for o in self.outcomes if isinstance(o, RunFailure)]

    def complete_results(self) -> list[SimulationResult]:
        """Every cell's result, in input order.

        Raises :class:`SweepFailedError` if a cell failed, and
        :class:`RuntimeError` if a budget left cells unrun.
        """
        failures = self.failures()
        if failures:
            raise SweepFailedError(failures)
        if self.not_run:
            raise RuntimeError(
                f"sweep stopped early: {self.budget_exhausted} budget "
                f"exhausted with {self.not_run} cell(s) not run; rerun "
                "with the same journal to continue"
            )
        return self.results()

    def format_text(self) -> str:
        lines = [
            f"sweep: {len(self.outcomes)} cell(s) in {self.elapsed:.1f}s — "
            f"{self.completed} ok, {self.failed} failed "
            f"({self.quarantined} quarantined), {self.not_run} not run",
            f"  journal: {self.journal_hits} hit(s), "
            f"{self.executed} executed"
            + (f" -> {self.journal_path}" if self.journal_path else ""),
        ]
        if self.engine != "scalar":
            lines.append(
                f"  engine: {self.engine} "
                f"({self.batch_fallbacks} scalar fallback(s))"
            )
            for reason in sorted(self.fallback_reasons):
                lines.append(
                    f"    fallback: {reason} "
                    f"x{self.fallback_reasons[reason]}"
                )
        if self.budget_exhausted:
            lines.append(
                f"  budget exhausted ({self.budget_exhausted}); partial "
                "results were flushed — rerun with the same journal to "
                "continue"
            )
        for failure in self.failures():
            lines.append(
                f"  FAILED {failure.spec.scheduler_name} "
                f"seed={failure.spec.seed} cap={failure.spec.capacity:g}: "
                f"{failure.error_type}: {failure.message} "
                f"({failure.attempts} attempt(s)"
                + (", quarantined)" if failure.quarantined else ")")
            )
        return "\n".join(lines)


def _rss_mb() -> Optional[float]:
    """Current peak RSS in MiB (``None`` where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # macOS reports ru_maxrss in bytes, Linux and the BSDs in KiB.
    return usage / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _exhausted_budget(
    policy: SupervisorPolicy, started: float
) -> Optional[str]:
    """The budget that has run out (``None`` while launching may go on)."""
    if policy.max_wall_clock is not None and (
        time.monotonic() - started >= policy.max_wall_clock
    ):
        return "wall-clock"
    if policy.max_rss_mb is not None:
        rss = _rss_mb()
        if rss is not None and rss >= policy.max_rss_mb:
            return "memory"
    return None


def _journal_outcome(
    journal: ResultJournal, key: JournalKey, spec: RunSpec,
    quarantine_after: int,
) -> tuple[Optional[Outcome], int]:
    """(resume outcome, prior attempts) for one journaled key.

    Results resume as-is.  Failures resume as quarantined outcomes once
    their recorded attempts reach the threshold; below it they return
    ``None`` (retry) but their attempt count carries over.
    """
    record = journal.get(key)
    if record is None:
        return None, 0
    if record["kind"] == "result":
        return result_from_payload(record["payload"]), 0
    failure = failure_from_payload(record["payload"], spec)
    if failure.attempts >= quarantine_after:
        return dataclasses.replace(failure, quarantined=True), failure.attempts
    return None, failure.attempts


def run_supervised(
    specs: Sequence[RunSpec],
    policy: SupervisorPolicy = SupervisorPolicy(),
    journal: Optional[ResultJournal] = None,
    max_workers: Optional[int] = None,
    engine: str = "scalar",
) -> SweepReport:
    """Run ``specs`` under supervision; see the module docstring.

    Without a journal this degrades to
    :func:`~repro.analysis.parallel.run_parallel_salvage` with budget
    enforcement.  With one, the call is idempotent: rerunning after any
    interruption converges to the same result set.  ``max_workers=None``
    means one worker: serial and in-process.

    ``engine="batch"`` routes each block through the vectorized SoA core
    (:func:`repro.sim.batch.execute_runspecs`), which journals each cell
    as its lane reaches the horizon (records land in lane-finish order)
    and checks the budgets after every landing; the cells the core
    leaves out run afterwards on the scalar runner, like every cell of
    a scalar sweep, and are tallied in ``SweepReport.fallback_reasons``.
    Results are equivalent either way (the differential equivalence
    suite enforces it), so journal entries mix freely across engines.
    ``policy.timeout`` does not apply to the cells the core covers.
    """
    if engine not in ("scalar", "batch"):
        raise ValueError(
            f"engine must be 'scalar' or 'batch', got {engine!r}"
        )
    started = time.monotonic()
    n = len(specs)
    outcomes: list[Optional[Outcome]] = [None] * n
    prior_attempts = [0] * n
    journal_hits = 0
    pending: list[int] = []

    for i, spec in enumerate(specs):
        if journal is not None:
            key = journal_key(spec)
            outcome, prior = _journal_outcome(
                journal, key, spec, policy.quarantine_after
            )
            prior_attempts[i] = prior
            if outcome is not None:
                outcomes[i] = outcome
                journal_hits += 1
                continue
        pending.append(i)

    executed = 0
    fallback_reasons: dict[str, int] = {}
    budget_exhausted = _exhausted_budget(policy, started) if pending else None

    def landing(cells: list[int]) -> Callable[[int, Outcome], bool]:
        """The one landing callback of both runners, for ``cells``.

        It journals the cell's outcome, then checks the budgets
        (unless it was the sweep's last cell); ``False`` stops the
        runner.
        """

        def land(k: int, outcome: Outcome) -> bool:
            nonlocal executed, budget_exhausted
            i = cells[k]
            executed += 1
            if isinstance(outcome, RunFailure):
                total_attempts = prior_attempts[i] + outcome.attempts
                outcome = dataclasses.replace(
                    outcome,
                    attempts=total_attempts,
                    quarantined=total_attempts >= policy.quarantine_after,
                )
            outcomes[i] = outcome
            if journal is not None:
                key = journal_key(specs[i])
                if isinstance(outcome, RunFailure):
                    journal.append_failure(key, outcome)
                else:
                    journal.append_result(key, outcome)
            if executed < len(pending):
                budget_exhausted = _exhausted_budget(policy, started)
            return budget_exhausted is None

        return land

    # Cells for the scalar runner: every pending cell on the scalar
    # engine, the cells the core leaves out on the batch engine.
    scalar_cells = pending if engine == "scalar" else []
    if engine == "batch":
        # The vectorized engine amortizes per-pass dispatch over every
        # lane, so it wants the widest block available.
        batch_size = policy.batch_size or max(1, len(pending))
        for start in range(0, len(pending), batch_size):
            if budget_exhausted is not None:
                break
            block = pending[start:start + batch_size]
            from repro.sim.batch import execute_runspecs

            results, reasons = execute_runspecs(
                [specs[i] for i in block], landing(block)
            )
            for reason, count in reasons.items():
                fallback_reasons[reason] = (
                    fallback_reasons.get(reason, 0) + count
                )
            scalar_cells += [i for i, r in zip(block, results) if r is None]

    if scalar_cells and budget_exhausted is None:
        run_parallel_salvage(
            [specs[i] for i in scalar_cells],
            max_workers=max_workers or 1,
            timeout=policy.timeout,
            retries=policy.retries,
            backoff=policy.backoff,
            jitter=policy.jitter,
            seed=policy.seed,
            on_outcome=landing(scalar_cells),
        )

    failures = [o for o in outcomes if isinstance(o, RunFailure)]
    return SweepReport(
        outcomes=tuple(outcomes),
        journal_hits=journal_hits,
        executed=executed,
        not_run=sum(1 for o in outcomes if o is None),
        failed=len(failures),
        quarantined=sum(1 for f in failures if f.quarantined),
        elapsed=time.monotonic() - started,
        budget_exhausted=budget_exhausted,
        journal_path=str(journal.path) if journal is not None else None,
        engine=engine,
        fallback_reasons=fallback_reasons,
    )
