"""The experiments' one entry into the sweep runtime.

Every figure/table harness describes its work as a list of
:class:`~repro.analysis.parallel.RunSpec` cells and runs it through
:func:`run_journaled_sweep`, which hands it to the supervisor with the
environment's journal and engine attached; the harness then aggregates
:meth:`SweepReport.complete_results() <repro.runtime.supervisor.
SweepReport.complete_results>` into its own shape.

Journal selection is environment-driven so every experiment is
resumable without new plumbing: with ``REPRO_JOURNAL=/path/to/
sweep.journal`` set, every experiment grid (``repro run fig6`` ...
``repro run ablation-aet``) and the ``repro sweep`` CLI checkpoint
through that file — kill any of them mid-run and rerunning converges
to the identical result set.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.analysis.parallel import RunSpec
from repro.runtime.journal import ResultJournal
from repro.runtime.supervisor import (
    SupervisorPolicy,
    SweepFailedError,
    SweepReport,
    run_supervised,
)

__all__ = [
    "SweepFailedError",
    "engine_from_env",
    "journal_from_env",
    "run_journaled_sweep",
]

#: Environment variable naming the journal file of the current sweep.
JOURNAL_ENV = "REPRO_JOURNAL"

#: Environment variable selecting the sweep engine (scalar or batch).
ENGINE_ENV = "REPRO_ENGINE"


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

