"""Workloads, timed sweep passes and correctness checks.

One *sweep* is what a client of ``repro sweep`` does: submit a grid of
cells to :func:`repro.runtime.supervisor.run_supervised` against a fresh
journal and wait for it (the *write pass*), then submit the same grid
again against the now-complete journal (the *read pass*, every cell a
journal hit).  Only those calls are timed; the correctness checks run
afterwards.

This module imports only what a sweep itself needs, because the set-up
probe (``run.py --setup-probe``) imports it in a fresh interpreter to
measure the cost of reaching the first call into the sweep.  The tracer
and the equivalence comparator are imported where they are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Optional, Sequence

import numpy as np

import repro.runtime.supervisor as supervisor_module
from repro.analysis.parallel import RunSpec
from repro.experiments.common import PaperSetup
from repro.experiments.fig8_fig9 import DEFAULT_FRACTIONS, REFERENCE_CAPACITY
from repro.runtime.journal import JournalKey, ResultJournal, result_to_payload
from repro.runtime.supervisor import SupervisorPolicy
from repro.sim.simulator import SimulationResult

HORIZON = 2000.0
SCHEDULERS = ("lsa", "ea-dvfs")

#: ``--seed n`` draws its task-set seeds from ``[n * SEED_STRIDE, ...)``,
#: so different benchmark seeds never share a cell.
SEED_STRIDE = 100_000

#: The supervisor policy of every sweep: the ``repro sweep`` defaults.
POLICY = SupervisorPolicy()

#: Grid of ``--tiny`` smoke runs: 2 capacities x 2 schedulers x 1 seed.
TINY_FRACTIONS = DEFAULT_FRACTIONS[:2]


def usable_cpus() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fig8/fig9-style capacity grid."""

    name: str
    utilization: float
    predictor: str
    engine: str
    #: Task-set seeds per sweep; a sweep has 9 x 2 x this many cells.
    seeds_per_sweep: int

    @property
    def max_workers(self) -> Optional[int]:
        return usable_cpus() if self.engine == "scalar" else None

    def grid(
        self,
        first_seed: int,
        n_seeds: int,
        fractions: Sequence[float] = DEFAULT_FRACTIONS,
    ) -> list[RunSpec]:
        """Capacity-major cells, ordered as ``journaled_capacity_sweep`` does."""
        setup = PaperSetup(horizon=HORIZON, predictor_kind=self.predictor)
        reference = REFERENCE_CAPACITY[self.utilization]
        return [
            RunSpec(
                scheduler_name=name,
                utilization=self.utilization,
                capacity=fraction * reference,
                seed=seed,
                setup=setup,
            )
            for fraction in fractions
            for name in SCHEDULERS
            for seed in range(first_seed, first_seed + n_seeds)
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig8-profile", 0.4, "profile", "batch", seeds_per_sweep=8),
        Workload("scalar-pool", 0.4, "profile", "scalar", seeds_per_sweep=1),
    )
}


class StampedJournal(ResultJournal):
    """A result journal that remembers when its first append returned."""

    first_append_at: Optional[float] = None

    def append(self, key: JournalKey, kind: str, payload: dict[str, Any]) -> None:
        super().append(key, kind, payload)
        if self.first_append_at is None:
            self.first_append_at = time.perf_counter()


@dataclass
class Sweep:
    """Timings and checks of one write + read pass over one grid."""

    cells: int
    write_s: float
    first_durable_s: float
    executed: int
    fallbacks: int
    journal_bytes: int
    #: ``result_to_payload`` of every written cell (``None`` if it failed).
    payloads: list[Optional[dict[str, Any]]]
    #: Wall time of each read pass.
    read_s: list[float] = field(default_factory=list)
    journal_records: int = 0
    #: Indices of cells that failed or failed a correctness check.
    failed: set[int] = field(default_factory=set)
    #: Wall time of each cell replayed on the scalar engine.
    replay_s: list[float] = field(default_factory=list)


def _payload(outcome: object) -> Optional[dict[str, Any]]:
    if isinstance(outcome, SimulationResult):
        return result_to_payload(outcome)
    return None


def _submit(
    workload: Workload, specs: Sequence[RunSpec], journal: ResultJournal
) -> supervisor_module.SweepReport:
    # Looked up on the module at call time, so the tracer's wrapper is seen.
    return supervisor_module.run_supervised(
        specs, policy=POLICY, journal=journal,
        max_workers=workload.max_workers, engine=workload.engine,
    )


def _read_pass(
    workload: Workload, specs: Sequence[RunSpec], journal_path: Path,
    traced: Callable[[], ContextManager[Any]],
) -> tuple[float, supervisor_module.SweepReport, int]:
    """(wall time, report, live records) of one resume over the journal."""
    with traced():
        started = time.perf_counter()
        journal = ResultJournal(journal_path, create=False)
        try:
            report = _submit(workload, specs, journal)
            return time.perf_counter() - started, report, len(journal)
        finally:
            journal.close()


def run_sweep(
    workload: Workload,
    specs: Sequence[RunSpec],
    journal_path: Path,
    traced: Callable[[], ContextManager[Any]] = contextlib.nullcontext,
    read_passes: int = 1,
) -> Sweep:
    """Time the write pass and ``read_passes`` read passes.

    ``traced`` wraps each timed region.  Every read pass's
    ``result_to_payload`` must equal the write pass's for every cell, and
    every cell must be a journal hit; a cell that fails either check, or
    failed outright, is recorded in ``Sweep.failed``.
    """
    journal = StampedJournal(journal_path)
    try:
        with traced():
            started = time.perf_counter()
            written = _submit(workload, specs, journal)
            write_s = time.perf_counter() - started
        first_append = journal.first_append_at
    finally:
        journal.close()

    sweep = Sweep(
        cells=len(specs),
        write_s=write_s,
        first_durable_s=(
            first_append - started if first_append is not None else write_s
        ),
        executed=written.executed,
        fallbacks=written.batch_fallbacks,
        journal_bytes=journal_path.stat().st_size,
        payloads=[_payload(o) for o in written.outcomes],
    )
    for _ in range(read_passes):
        read_s, resumed, sweep.journal_records = _read_pass(
            workload, specs, journal_path, traced
        )
        sweep.read_s.append(read_s)
        for i, outcome in enumerate(resumed.outcomes):
            if sweep.payloads[i] is None or _payload(outcome) != sweep.payloads[i]:
                sweep.failed.add(i)
        if resumed.executed or resumed.journal_hits != len(specs):
            sweep.failed.update(range(len(specs)))
    journal_path.unlink()
    return sweep


def replay_plan(n_sweeps: int, n_cells: int, count: int) -> list[tuple[int, int]]:
    """A stratified subsample of a run, as ``(sweep, cell)`` pairs.

    One cell from each of ``count`` equal strata of the grid, taken from
    sweeps spread evenly over the run.  The grid is capacity-major, so
    the strata span the capacity range; the sweep number also moves the
    pick inside its stratum.
    """
    count = min(count, n_cells)
    stratum = n_cells // count
    plan = []
    for j in range(count):
        k = j * n_sweeps // count
        plan.append((k, j * stratum + k % stratum))
    return plan


def replay(
    specs: Sequence[RunSpec],
    sweep: Sweep,
    indices: Sequence[int],
    traced: Callable[[], ContextManager[Any]] = contextlib.nullcontext,
) -> None:
    """Re-run the cells ``indices`` of a sweep in-process on the scalar engine.

    Integer counters must match the sweep's result exactly and energies
    and times within the equivalence suite's 1e-9; a mismatching cell is
    added to ``sweep.failed``.
    """
    from repro.runtime.journal import result_from_payload
    from repro.verify.batch_equivalence import compare_results

    for i in indices:
        spec = specs[i]
        with traced():
            started = time.perf_counter()
            scalar = spec.setup.run(
                spec.scheduler_name, spec.utilization, spec.capacity, spec.seed
            )
            sweep.replay_s.append(time.perf_counter() - started)
        payload = sweep.payloads[i]
        if payload is None or compare_results(scalar, result_from_payload(payload)):
            sweep.failed.add(i)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def probe_setup(workload: Workload, first_seed: int, journal_path: Path) -> float:
    """The set-up of a fresh sweep process, up to its first sweep call.

    Builds the grid and opens a fresh journal, then returns the
    ``time.monotonic()`` reading taken where the sweep would be submitted.
    """
    workload.grid(first_seed, workload.seeds_per_sweep)
    journal = ResultJournal(journal_path)
    reached = time.monotonic()
    journal.close()
    return reached


def measure_setup(workload: Workload, first_seed: int, journal_path: Path) -> float:
    """Interpreter start to first sweep call, in one fresh process."""
    command = [
        sys.executable, str(Path(__file__).with_name("run.py")), "--setup-probe",
        "--workload", workload.name, "--seed", str(first_seed),
        "--journal", str(journal_path),
    ]
    started = time.monotonic()
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])["first_call_at"] - started


def _git_commit(root: Path) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(src: Path) -> str:
    """SHA-256 over the package sources (identifies a checkout without git)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int) -> dict[str, Any]:
    """The machine and code a result was measured on."""
    try:
        affinity: Optional[list[int]] = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
        "seed": seed,
    }
