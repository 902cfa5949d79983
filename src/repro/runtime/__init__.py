"""Crash-consistent sweep runtime.

Every reproduced figure/table is a long multi-process sweep; this
package makes those sweeps survive crashes, kills and budget limits:

* :mod:`repro.runtime.journal` — an append-only, fsync'd,
  content-addressed **result journal** keyed by ``(spec_hash,
  scheduler_name, engine_version)``, with CRC-framed records and
  torn-write recovery on open;
* :mod:`repro.runtime.supervisor` — a **worker supervisor** layering
  checkpoint/resume, deterministic seeded retry backoff, poisoned-task
  quarantine and wall-clock/memory budgets over
  :func:`repro.analysis.parallel.run_parallel_salvage`.
  :func:`~repro.runtime.supervisor.run_supervised` is the one way a
  ``RunSpec`` grid is executed, on either engine; batch-engine cells
  the vectorized core leaves out run on the same scalar runner;
* :mod:`repro.runtime.sweep` — :func:`~repro.runtime.sweep.
  run_journaled_sweep`, the one sweep call of every experiment grid,
  with the ``$REPRO_JOURNAL`` / ``$REPRO_ENGINE`` wiring that makes the
  experiments resumable without code changes.

The chaos harness exercising all of this lives in
:mod:`repro.faults.chaos`; format and semantics are documented in
``docs/runtime.md``.
"""

from repro.runtime.journal import (
    ENGINE_VERSION,
    JournalError,
    JournalInfo,
    JournalKey,
    ResultJournal,
    journal_key,
    journal_keys,
    result_from_payload,
    result_to_payload,
    spec_hash,
)
from repro.runtime.supervisor import (
    SupervisorPolicy,
    SweepReport,
    run_supervised,
)
from repro.runtime.sweep import (
    SweepFailedError,
    journal_from_env,
    run_journaled_sweep,
)

__all__ = [
    "ENGINE_VERSION",
    "JournalError",
    "JournalInfo",
    "JournalKey",
    "ResultJournal",
    "SupervisorPolicy",
    "SweepFailedError",
    "SweepReport",
    "journal_from_env",
    "journal_key",
    "journal_keys",
    "result_from_payload",
    "result_to_payload",
    "run_journaled_sweep",
    "run_supervised",
    "spec_hash",
]
