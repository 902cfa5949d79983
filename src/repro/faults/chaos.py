"""Chaos harness: process-level fault injection for the sweep runtime.

Where the rest of :mod:`repro.faults` perturbs the *simulated* world
(harvest outages, overruns), this module perturbs the *execution*
substrate — workers that crash, die by signal or stall, and journals
that get killed mid-write — so the crash-consistency claims of
:mod:`repro.runtime` are provable rather than aspirational:

* :class:`FlakySetup` — a :class:`~repro.experiments.common.PaperSetup`
  whose first ``fail_attempts`` runs of every cell fail in a chosen
  ``mode`` (``raise`` an exception, ``kill`` the worker process with
  SIGKILL, or ``stall`` past any timeout) and then behave normally.
  Attempts are counted through marker files in a scratch directory, so
  the flakiness is deterministic across retry rounds and across the
  process boundary;
* :class:`ChaosJournal` — a :class:`~repro.runtime.journal.
  ResultJournal` that SIGKILLs its own process at a configured append,
  optionally after writing only half of the record frame (a *torn
  write*).  ``repro sweep --chaos-kill-record N`` arms it from the CLI
  so kill-and-resume scenarios run as real subprocesses;
* :func:`truncate_tail` / :func:`flip_byte` — offline journal
  corruption for recovery tests.

All chaos is deterministic: kill points are append indices, failure
counts are explicit, nothing reads a clock or an unseeded RNG.  See
``docs/runtime.md`` for the chaos suite these primitives drive.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.experiments.common import PaperSetup
from repro.runtime.journal import ResultJournal
from repro.sim.simulator import SimulationResult

__all__ = [
    "ChaosJournal",
    "FlakySetup",
    "KILL_MODES",
    "WORKER_FAILURE_MODES",
    "flip_byte",
    "truncate_tail",
]

#: How a :class:`FlakySetup` cell fails while within its failure budget.
WORKER_FAILURE_MODES: tuple[str, ...] = ("raise", "kill", "stall")

#: Where a :class:`ChaosJournal` kill lands relative to the armed record:
#: ``before`` — nothing of the record reaches disk; ``torn`` — half the
#: frame is written and fsync'd first (the torn-tail recovery case);
#: ``after`` — the full record commits, the process dies right after.
KILL_MODES: tuple[str, ...] = ("before", "torn", "after")


@dataclass(frozen=True)
class FlakySetup(PaperSetup):
    """A paper setup whose first attempts per cell fail on purpose.

    ``scratch_dir`` holds one marker file per (scheduler, seed,
    capacity) cell; its size is the number of attempts made so far.
    Fresh worker processes therefore agree on the attempt count, and a
    cell becomes healthy exactly after ``fail_attempts`` failures —
    deterministic flakiness, ideal for retry-path tests.
    """

    scratch_dir: str = ""
    fail_attempts: int = 1
    mode: str = "raise"
    stall_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.mode not in WORKER_FAILURE_MODES:
            raise ValueError(
                f"unknown failure mode {self.mode!r}; "
                f"available: {WORKER_FAILURE_MODES}"
            )

    def _marker(self, scheduler_name: str, capacity: float, seed: int) -> Path:
        if not self.scratch_dir:
            raise ValueError("FlakySetup needs a scratch_dir")
        return Path(self.scratch_dir) / (
            f"{scheduler_name}-c{capacity:g}-s{seed}.attempts"
        )

    def attempts_so_far(
        self, scheduler_name: str, capacity: float, seed: int
    ) -> int:
        marker = self._marker(scheduler_name, capacity, seed)
        try:
            return marker.stat().st_size
        except FileNotFoundError:
            return 0

    def run(
        self,
        scheduler_name: str,
        utilization: float,
        capacity: float,
        seed: int,
        energy_sample_interval: Optional[float] = None,
    ) -> SimulationResult:
        marker = self._marker(scheduler_name, capacity, seed)
        marker.parent.mkdir(parents=True, exist_ok=True)
        attempt = self.attempts_so_far(scheduler_name, capacity, seed) + 1
        with open(marker, "ab") as handle:
            handle.write(b".")
        if attempt <= self.fail_attempts:
            if self.mode == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if self.mode == "stall":
                time.sleep(self.stall_seconds)
            raise RuntimeError(
                f"chaos: injected failure on attempt {attempt} of "
                f"{scheduler_name} seed={seed}"
            )
        return super().run(
            scheduler_name,
            utilization,
            capacity,
            seed,
            energy_sample_interval=energy_sample_interval,
        )


class ChaosJournal(ResultJournal):
    """A result journal that kills its own process at a chosen append.

    ``kill_record`` is 1-based: the Nth :meth:`append` triggers the
    kill, at the point selected by ``kill_mode`` (see
    :data:`KILL_MODES`).  Appends before the armed one behave normally,
    so the journal accumulates exactly ``kill_record - 1`` durable
    records (``kill_record`` for mode ``after``) before the process
    vanishes — the deterministic SIGKILL points of the chaos suite.
    """

    def __init__(
        self,
        path: Union[str, Path],
        kill_record: int,
        kill_mode: str = "before",
    ) -> None:
        if kill_record < 1:
            raise ValueError(f"kill_record must be >= 1, got {kill_record!r}")
        if kill_mode not in KILL_MODES:
            raise ValueError(
                f"unknown kill mode {kill_mode!r}; available: {KILL_MODES}"
            )
        self._kill_record = kill_record
        self._kill_mode = kill_mode
        self._appends = 0
        super().__init__(path)

    def _commit(self, frame: bytes) -> None:
        self._appends += 1
        if self._appends != self._kill_record:
            super()._commit(frame)
            return
        if self._kill_mode == "before":
            os.kill(os.getpid(), signal.SIGKILL)
        if self._kill_mode == "torn":
            # Durably write *half* the frame, then die: exactly the torn
            # tail that recovery must detect and discard.
            super()._commit(frame[: max(1, len(frame) // 2)])
            os.kill(os.getpid(), signal.SIGKILL)
        super()._commit(frame)  # "after"
        os.kill(os.getpid(), signal.SIGKILL)


def truncate_tail(path: Union[str, Path], drop_bytes: int) -> None:
    """Remove the last ``drop_bytes`` bytes of a file (simulated tear)."""
    if drop_bytes < 0:
        raise ValueError(f"drop_bytes must be >= 0, got {drop_bytes!r}")
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(max(0, size - drop_bytes))


def flip_byte(path: Union[str, Path], offset_from_end: int) -> None:
    """XOR one byte near the end of a file (simulated bit rot)."""
    size = os.path.getsize(path)
    if not 0 < offset_from_end <= size:
        raise ValueError(
            f"offset_from_end must be in (0, {size}], got {offset_from_end!r}"
        )
    with open(path, "r+b") as handle:
        handle.seek(size - offset_from_end)
        byte = handle.read(1)
        handle.seek(size - offset_from_end)
        handle.write(bytes([byte[0] ^ 0xFF]))
