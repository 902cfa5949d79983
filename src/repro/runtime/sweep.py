"""High-level resumable sweeps: the experiments' entry into the runtime.

The figure/table harnesses describe their work as lists of
:class:`~repro.analysis.parallel.RunSpec` cells; this module executes
them through the supervisor with an optional journal attached, and
re-aggregates outcomes into the shapes the experiments consume
(per-scheduler miss rates, capacity-sweep points).

Journal selection is environment-driven so every existing experiment
becomes resumable without new plumbing: set ``REPRO_JOURNAL=/path/to/
sweep.journal`` and ``repro run fig8``, the resilience experiment, the
table 1 capacity search and the ``repro sweep`` CLI all checkpoint
through that file — kill any of them mid-run and rerunning converges to
the identical result set.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Sequence

from repro.analysis.parallel import RunFailure, RunSpec
from repro.experiments.common import PaperSetup
from repro.runtime.journal import ResultJournal
from repro.runtime.supervisor import (
    SupervisorPolicy,
    SweepReport,
    run_supervised,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.sweep import CapacitySweepPoint

__all__ = [
    "SweepFailedError",
    "engine_from_env",
    "journal_from_env",
    "journaled_capacity_sweep",
    "journaled_miss_rates",
    "run_journaled_sweep",
]

#: Environment variable naming the journal file of the current sweep.
JOURNAL_ENV = "REPRO_JOURNAL"

#: Environment variable selecting the sweep engine (scalar or batch).
ENGINE_ENV = "REPRO_ENGINE"


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


def journal_from_env() -> Optional[ResultJournal]:
    """The journal named by ``$REPRO_JOURNAL``, or ``None`` when unset."""
    path = os.environ.get(JOURNAL_ENV)
    if not path:
        return None
    return ResultJournal(path)


def engine_from_env(default: str = "scalar") -> str:
    """The engine named by ``$REPRO_ENGINE`` (``default`` when unset).

    Callers pick their own default — the fig8/fig9 drivers default to
    the batch engine now that it covers the default ``profile``
    predictor — and ``$REPRO_ENGINE`` always wins when set.
    """
    engine = os.environ.get(ENGINE_ENV, "").strip() or default
    if engine not in ("scalar", "batch"):
        raise ValueError(
            f"{ENGINE_ENV} must be 'scalar' or 'batch', got {engine!r}"
        )
    return engine


def run_journaled_sweep(
    specs: Sequence[RunSpec],
    journal: Optional[ResultJournal] = None,
    policy: SupervisorPolicy = SupervisorPolicy(),
    max_workers: Optional[int] = None,
    engine: Optional[str] = None,
) -> SweepReport:
    """Supervised sweep over ``specs``; journal defaults to the env var.

    The journal (owned or env-derived) is closed before returning when
    this function opened it; pass an explicit instance to keep it open
    across several sweeps (the capacity search does).  ``engine=None``
    reads ``$REPRO_ENGINE`` (scalar when unset), so existing experiments
    pick up the vectorized core without new plumbing.
    """
    owned = journal is None
    if owned:
        journal = journal_from_env()
    if engine is None:
        engine = engine_from_env()
    try:
        return run_supervised(
            specs,
            policy=policy,
            journal=journal,
            max_workers=max_workers,
            engine=engine,
        )
    finally:
        if owned and journal is not None:
            journal.close()


def _complete_results(report: SweepReport) -> None:
    """Raise unless every cell of the report carries a result."""
    failures = report.failures()
    if failures:
        raise SweepFailedError(failures)
    if report.not_run:
        raise RuntimeError(
            f"sweep stopped early: {report.budget_exhausted} budget "
            f"exhausted with {report.not_run} cell(s) not run; rerun with "
            "the same journal to continue"
        )


def journaled_miss_rates(
    scheduler_names: Sequence[str],
    utilization: float,
    capacity: float,
    seeds: Sequence[int],
    setup: Optional[PaperSetup] = None,
    journal: Optional[ResultJournal] = None,
    policy: SupervisorPolicy = SupervisorPolicy(),
    max_workers: Optional[int] = None,
    engine: Optional[str] = None,
) -> dict[str, float]:
    """Pooled miss rate per scheduler for one configuration cell.

    A one-capacity :func:`journaled_capacity_sweep`: all schedulers
    share the same seeds (paired comparison).
    """
    (point,) = journaled_capacity_sweep(
        scheduler_names,
        utilization=utilization,
        capacities=(capacity,),
        seeds=seeds,
        setup=setup,
        journal=journal,
        policy=policy,
        max_workers=max_workers,
        engine=engine,
    )
    return {name: point.miss_rate(name) for name in scheduler_names}


def journaled_capacity_sweep(
    scheduler_names: Sequence[str],
    utilization: float,
    capacities: Sequence[float],
    seeds: Sequence[int],
    setup: Optional[PaperSetup] = None,
    journal: Optional[ResultJournal] = None,
    policy: SupervisorPolicy = SupervisorPolicy(),
    max_workers: Optional[int] = None,
    engine: Optional[str] = None,
) -> "list[CapacitySweepPoint]":
    """Supervised capacity sweep; the experiments' one sweep call.

    Cells are capacity-major, then scheduler, then seed.  Returns the
    ``list[CapacitySweepPoint]`` structure of
    :func:`repro.analysis.sweep.run_capacity_sweep` (with slim results
    inside).  Raises :class:`SweepFailedError` if any cell still fails
    after the policy's retries.
    """
    from repro.analysis.metrics import aggregate_results
    from repro.analysis.sweep import CapacitySweepPoint, ReplicatedRun

    setup = setup or PaperSetup()
    specs = [
        RunSpec(
            scheduler_name=name,
            utilization=utilization,
            capacity=capacity,
            seed=seed,
            setup=setup,
        )
        for capacity in capacities
        for name in scheduler_names
        for seed in seeds
    ]
    report = run_journaled_sweep(
        specs,
        journal=journal,
        policy=policy,
        max_workers=max_workers,
        engine=engine,
    )
    _complete_results(report)
    results = report.results()
    points = []
    index = 0
    per_cell = len(seeds)
    for capacity in capacities:
        cell = {}
        for name in scheduler_names:
            chunk = tuple(results[index : index + per_cell])
            index += per_cell
            cell[name] = ReplicatedRun(
                scheduler_name=name,
                capacity=capacity,
                results=chunk,
                metrics=aggregate_results(chunk),
            )
        points.append(CapacitySweepPoint(capacity=capacity, by_scheduler=cell))
    return points
