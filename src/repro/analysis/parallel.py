"""Multi-process execution of replication sweeps.

The figure/table experiments replicate each configuration across many
seeded task sets; the runs are embarrassingly parallel.  This module
holds the one place any sweep cell runs on the scalar simulator:

* :class:`RunSpec` — one picklable cell (setup + scheduler + capacity +
  seed);
* :func:`run_parallel_salvage` — execute many specs, preserving input
  order, serially in-process or on one long-lived process pool.

Results are always *slim* (job list dropped) because shipping thousands
of job objects through IPC costs more than the simulation itself for
short runs, and the sweeps only consume metrics and counters.

The runner is crash tolerant: per-cell timeouts, bounded retries with
exponential backoff, and salvage semantics — a cell that keeps failing
becomes a :class:`RunFailure` record in the result list instead of
poisoning the whole sweep.  An optional callback hears each final
outcome the moment it lands, which is how the supervisor
(:func:`repro.runtime.supervisor.run_supervised`, the entry point of
every sweep) journals cell by cell.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Iterator,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.experiments.common import PaperSetup
from repro.sim.simulator import SimulationResult

__all__ = [
    "RunFailure",
    "RunSpec",
    "retry_delay",
    "run_parallel_salvage",
]


@dataclass(frozen=True)
class RunSpec:
    """One simulation cell, fully described by picklable values."""

    scheduler_name: str
    utilization: float
    capacity: float
    seed: int
    setup: PaperSetup = PaperSetup()
    energy_sample_interval: Optional[float] = None


@dataclass(frozen=True)
class _WorkerError:
    """Picklable capture of a worker-side exception.

    Tracebacks do not survive the process boundary, so the worker
    formats its own before returning; a :class:`WatchdogError`
    additionally ships its structured diagnostics snapshot.
    """

    error_type: str
    message: str
    traceback: str
    diagnostics: Optional[dict[str, Any]] = None


def _capture_error(exc: BaseException) -> _WorkerError:
    from repro.sim.watchdog import WatchdogError

    diagnostics: Optional[dict[str, Any]] = None
    if isinstance(exc, WatchdogError):
        diagnostics = dataclasses.asdict(exc.diagnostics)
    return _WorkerError(
        error_type=type(exc).__name__,
        message=str(exc) or type(exc).__name__,
        traceback="".join(traceback_module.format_exception(exc)),
        diagnostics=diagnostics,
    )


def _execute_captured(spec: RunSpec) -> Union[SimulationResult, _WorkerError]:
    """Run one cell and slim its result; errors return, never raise."""
    try:
        result = spec.setup.run(
            scheduler_name=spec.scheduler_name,
            utilization=spec.utilization,
            capacity=spec.capacity,
            seed=spec.seed,
            energy_sample_interval=spec.energy_sample_interval,
        )
    except Exception as exc:  # noqa: BLE001 - salvage semantics
        return _capture_error(exc)
    return dataclasses.replace(result, jobs=())


@dataclass(frozen=True)
class RunFailure:
    """Salvage record for one sweep cell that produced no result.

    Attributes
    ----------
    spec:
        The cell that failed.
    error_type:
        Class name of the final error (``"TimeoutError"`` for timeouts).
    message:
        The final error message.
    attempts:
        How many times the cell was tried before giving up.
    timed_out:
        Whether the final failure was a timeout (vs. a raised error).
    traceback:
        The worker-side formatted traceback of the final error, when one
        was captured (``None`` for timeouts and broken pools — there is
        no worker stack to report).
    diagnostics:
        Structured :class:`~repro.sim.watchdog.SimulationDiagnostics`
        snapshot (as a plain dict) when the final error was a
        :class:`~repro.sim.watchdog.WatchdogError`.
    quarantined:
        Whether the supervisor stopped retrying this cell because it
        reached the poisoned-task threshold (see ``repro.runtime``).
    """

    spec: RunSpec
    error_type: str
    message: str
    attempts: int
    timed_out: bool = False
    traceback: Optional[str] = None
    diagnostics: Optional[dict[str, Any]] = None
    quarantined: bool = False


#: What a salvaged cell yields: its result or its failure record.
Outcome = Union[SimulationResult, RunFailure]


def _failure(
    spec: RunSpec, exc: BaseException, attempts: int, timed_out: bool = False
) -> RunFailure:
    captured = _capture_error(exc)
    return RunFailure(
        spec=spec,
        error_type=captured.error_type,
        message=captured.message,
        attempts=attempts,
        timed_out=timed_out,
        traceback=captured.traceback,
        diagnostics=captured.diagnostics,
    )


def _failure_from_worker(
    spec: RunSpec, err: _WorkerError, attempts: int
) -> RunFailure:
    return RunFailure(
        spec=spec,
        error_type=err.error_type,
        message=err.message,
        attempts=attempts,
        timed_out=False,
        traceback=err.traceback,
        diagnostics=err.diagnostics,
    )


#: How often an idle pool worker checks that its parent is still alive.
_PARENT_POLL_S = 0.25


def _exit_with_parent() -> None:
    """Pool initializer: end this worker once its parent process is gone.

    Between cells a worker blocks on the call queue, and a parent killed
    by SIGKILL never sends the shutdown sentinel that would wake it.  A
    daemon thread polls the parent PID and exits the worker hard as soon
    as it has been reparented.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _terminate(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down without waiting and kill its worker processes.

    A worker stalled past its timeout would otherwise pin a core for the
    rest of the sweep and hold up interpreter exit until its cell
    returned, which for a truly hung cell is never.
    """
    terminate_workers = getattr(pool, "terminate_workers", None)
    if terminate_workers is not None:  # Python 3.14+
        terminate_workers()
        return
    processes = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.terminate()


@dataclass(frozen=True)
class _Launch:
    """One in-flight cell: its index, its pool and its deadline."""

    index: int
    pool: ProcessPoolExecutor
    cutoff: Optional[float]


class _CellPool:
    """Up to ``workers`` cells in flight on one long-lived process pool.

    The pool is created on the first launch and replaced only when it
    breaks (a worker died) or one of its cells overstays its deadline.
    A pool retired for a timeout keeps its healthy siblings running
    until they land or reach their own deadlines; then its workers are
    terminated.  The window equals the worker count, so a cell starts
    the moment it is launched and its deadline counts from there.
    """

    def __init__(
        self,
        specs: Sequence[RunSpec],
        workers: int,
        timeout: Optional[float],
    ) -> None:
        self._specs = specs
        self._workers = workers
        self._timeout = timeout
        self._pool: Optional[ProcessPoolExecutor] = None
        self._in_flight: dict[Future[Any], _Launch] = {}
        self._retiring: list[ProcessPoolExecutor] = []

    def stream(
        self, order: Sequence[int], launching: Callable[[], bool]
    ) -> Iterator[tuple[int, Outcome]]:
        """Run ``order``, launching the next cell as each one lands."""
        queue = deque(order)
        while True:
            while queue and len(self._in_flight) < self._workers and launching():
                self._launch(queue.popleft())
            if not self._in_flight:
                return
            yield from self._collect()

    def close(self) -> None:
        """Shut the live pool down; terminate every pool still working."""
        if self._pool is not None and not self._in_flight:
            self._pool.shutdown()
        elif self._pool is not None:
            self._retire(self._pool)
        self._pool = None
        self._in_flight.clear()
        self._reap()

    def _launch(self, i: int) -> None:
        if self._pool is None:
            # Workers fork from this process: load numpy.random (every
            # source draws from it) here once, not in each fresh worker.
            import numpy.random  # noqa: F401
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers, initializer=_exit_with_parent
            )
        future: Future[Any]
        try:
            future = self._pool.submit(_execute_captured, self._specs[i])
        except BrokenProcessPool as exc:
            # A worker died since the last collect: this attempt is lost
            # with its siblings and lands as their failure does.
            future = Future()
            future.set_exception(exc)
        cutoff = None
        if self._timeout is not None:
            cutoff = time.monotonic() + self._timeout
        self._in_flight[future] = _Launch(i, self._pool, cutoff)

    def _collect(self) -> list[tuple[int, Outcome]]:
        """Wait for in-flight cells to land or time out; launch order."""
        cutoffs = [
            launch.cutoff
            for launch in self._in_flight.values()
            if launch.cutoff is not None
        ]
        wait(
            self._in_flight,
            timeout=max(0.0, min(cutoffs) - time.monotonic())
            if cutoffs else None,
            return_when=FIRST_COMPLETED,
        )
        clock = time.monotonic()
        landed: list[tuple[int, Outcome]] = []
        for future, launch in list(self._in_flight.items()):
            spec = self._specs[launch.index]
            if future.done():
                outcome = self._outcome(future, spec, launch.pool)
            elif launch.cutoff is not None and launch.cutoff <= clock:
                future.cancel()
                self._retire(launch.pool)
                outcome = RunFailure(
                    spec=spec,
                    error_type="TimeoutError",
                    message=f"no result within {self._timeout:g}s",
                    attempts=0,  # filled in by the caller
                    timed_out=True,
                )
            else:
                continue
            del self._in_flight[future]
            landed.append((launch.index, outcome))
        self._reap()
        return landed

    def _outcome(
        self, future: Future[Any], spec: RunSpec, pool: ProcessPoolExecutor
    ) -> Outcome:
        try:
            cell = future.result()
        except BrokenProcessPool as exc:
            # The worker died (e.g. by signal) — every sibling future of
            # this pool is lost too and lands here as well.
            self._retire(pool)
            return _failure(spec, exc, attempts=0)
        except Exception as exc:  # noqa: BLE001 - salvage any pool error
            return _failure(spec, exc, attempts=0)
        if isinstance(cell, _WorkerError):
            return _failure_from_worker(spec, cell, attempts=0)
        return cell

    def _retire(self, pool: ProcessPoolExecutor) -> None:
        if pool is self._pool:
            self._pool = None
        if pool not in self._retiring:
            self._retiring.append(pool)

    def _reap(self) -> None:
        busy = [launch.pool for launch in self._in_flight.values()]
        for pool in [p for p in self._retiring if p not in busy]:
            self._retiring.remove(pool)
            _terminate(pool)


def _serial_cells(
    specs: Sequence[RunSpec],
    order: Sequence[int],
    launching: Callable[[], bool],
) -> Iterator[tuple[int, Outcome]]:
    """Run ``order`` in-process, one cell after another."""
    for i in order:
        if not launching():
            return
        cell = _execute_captured(specs[i])
        if isinstance(cell, _WorkerError):
            yield i, _failure_from_worker(specs[i], cell, attempts=0)
        else:
            yield i, cell


def retry_delay(
    backoff: float,
    round_no: int,
    jitter: float = 0.0,
    seed: int = 0,
) -> float:
    """Backoff sleep before retry round ``round_no`` (1-based).

    The base delay doubles per round (``backoff * 2**(round_no - 1)``);
    ``jitter`` widens it by a *seeded* multiplicative factor drawn from
    ``U[1, 1 + jitter]`` via a private numpy stream, so two sweeps with
    equal seeds sleep identically — no wall-clock entropy reaches the
    schedule (exactly the discipline the simulation layer follows).
    """
    base = backoff * 2 ** (round_no - 1)
    if jitter <= 0 or base <= 0:
        return base
    rng = np.random.default_rng(seed + round_no)
    return base * (1.0 + jitter * float(rng.random()))


def _retry_order(pending: Sequence[int], round_no: int, seed: int) -> list[int]:
    """Seeded permutation of the cells retried in ``round_no``.

    Retrying in a deterministic shuffle (rather than input order)
    decorrelates neighbouring cells that failed together — e.g. a batch
    that hit one wedged worker — while keeping the whole schedule a pure
    function of the seed.
    """
    rng = np.random.default_rng(seed + 1_000_003 * round_no)
    order = list(pending)
    rng.shuffle(order)
    return order


def run_parallel_salvage(
    specs: Sequence[RunSpec],
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.5,
    jitter: float = 0.0,
    seed: int = 0,
    on_outcome: Optional[Callable[[int, Outcome], bool]] = None,
) -> list[Optional[Outcome]]:
    """Run ``specs`` with salvage semantics; outcomes in input order.

    Every spec yields exactly one entry, in input order: its
    :class:`~repro.sim.SimulationResult` on success, or a
    :class:`RunFailure` record (carrying the worker traceback and, for
    watchdog aborts, the structured diagnostics snapshot) once
    ``1 + retries`` attempts are exhausted.  A raising or hanging worker
    never aborts the sweep.

    Pooled runs keep up to ``max_workers`` cells in flight on one
    process pool that lives for the whole call, launching the next cell
    as each one lands; the pool is replaced only after a timeout or a
    dead worker.  Workers exit on their own if this process dies.

    Parameters
    ----------
    timeout:
        Per-cell wall-clock timeout in seconds, counted from the cell's
        launch; a cell still running at its deadline is salvaged as
        timed out and its worker terminated.  Only enforced on pooled
        runs — the serial path (``max_workers=1`` or a single spec)
        cannot preempt a stuck call and documents timeouts as
        unsupported there.
    retries:
        Extra attempts per failing cell (0 = one attempt only).  Retry
        round ``r`` starts once round ``r - 1`` has drained.
    backoff:
        Sleep before retry round ``r`` is ``backoff * 2**(r-1)`` seconds,
        widened by ``jitter``.
    jitter:
        Relative width of the seeded backoff jitter (0 = pure
        exponential); see :func:`retry_delay`.
    seed:
        Seed of the retry schedule: both the backoff jitter and the
        order in which failing cells are retried are pure functions of
        it, so a sweep's retry behaviour is bit-reproducible.
    on_outcome:
        Called in this process as ``on_outcome(index, outcome)`` with
        each cell's *final* outcome, the moment it is known.  Returning
        ``False`` stops new launches: cells already in flight still
        finish and are reported, a failed cell whose retries were cut
        short is final with its last failure, and cells never launched
        come back as ``None``.
    """
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be > 0 or None, got {timeout!r}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries!r}")
    if backoff < 0:
        raise ValueError(f"backoff must be >= 0, got {backoff!r}")
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter!r}")
    if not specs:
        return []

    n = len(specs)
    results: list[Optional[Outcome]] = [None] * n
    failures: dict[int, RunFailure] = {}
    attempts = [0] * n
    go_on = True

    def launching() -> bool:
        return go_on

    cells = None
    if max_workers != 1 and n > 1:
        workers = min(n, max_workers or os.cpu_count() or 1)
        cells = _CellPool(specs, workers, timeout)
    pending = list(range(n))
    try:
        for round_no in range(1 + retries):
            if not pending or not go_on:
                break
            if round_no > 0:
                delay = retry_delay(backoff, round_no, jitter=jitter, seed=seed)
                if delay > 0:
                    time.sleep(delay)
                pending = _retry_order(pending, round_no, seed)
            landed = (
                _serial_cells(specs, pending, launching)
                if cells is None
                else cells.stream(pending, launching)
            )
            still_failing: list[int] = []
            for i, cell in landed:
                attempts[i] += 1
                if isinstance(cell, RunFailure):
                    cell = dataclasses.replace(cell, attempts=attempts[i])
                    if round_no < retries:
                        failures[i] = cell
                        still_failing.append(i)
                        continue
                results[i] = cell
                if on_outcome is not None and not on_outcome(i, cell):
                    go_on = False
            pending = still_failing
    finally:
        if cells is not None:
            cells.close()
    # Only a stop leaves earlier failures unresolved: they are final now.
    for i, failure in failures.items():
        if results[i] is None:
            results[i] = failure
            if on_outcome is not None:
                on_outcome(i, failure)
    return results

