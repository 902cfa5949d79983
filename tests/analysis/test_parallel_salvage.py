"""Failure-path tests for the crash-tolerant sweep runner."""

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analysis.parallel import (
    RunFailure,
    RunSpec,
    _retry_order,
    retry_delay,
    run_parallel_salvage,
)
from repro.experiments.common import PaperSetup
from repro.sim.simulator import SimulationResult
from repro.sim.watchdog import SimulationDiagnostics, WatchdogError

FAST_SETUP = PaperSetup(horizon=200.0)


@dataclass(frozen=True)
class RaisingSetup(PaperSetup):
    """Setup whose every run crashes (top-level class: pool-picklable)."""

    def run(self, *args, **kwargs):
        raise RuntimeError("injected worker crash")


@dataclass(frozen=True)
class WatchdogTrippingSetup(PaperSetup):
    """Setup whose every run aborts with a structured watchdog report."""

    def run(self, *args, **kwargs):
        raise WatchdogError(
            SimulationDiagnostics(
                violation="stall budget exhausted",
                time=12.5,
                segments_checked=42,
                stall_count=7,
                consecutive_stalls=7,
                completed_count=3,
                stored=0.0,
                capacity=50.0,
                detail={"budget": 5.0},
            )
        )


@dataclass(frozen=True)
class SleepingSetup(PaperSetup):
    """Setup whose every run hangs far past any reasonable timeout."""

    def run(self, *args, **kwargs):
        time.sleep(5.0)
        raise AssertionError("should have been abandoned by the timeout")


def ok_spec(seed=0):
    return RunSpec("edf", 0.4, 50.0, seed, setup=FAST_SETUP)


def bad_spec():
    return RunSpec("edf", 0.4, 50.0, 0, setup=RaisingSetup())


class TestSerialSalvage:
    def test_empty(self):
        assert run_parallel_salvage([]) == []

    def test_all_healthy_matches_plain_results(self):
        results = run_parallel_salvage([ok_spec(0), ok_spec(1)], max_workers=1)
        assert all(isinstance(r, SimulationResult) for r in results)

    def test_raising_cell_salvaged_others_complete(self):
        specs = [ok_spec(0), bad_spec(), ok_spec(1)]
        results = run_parallel_salvage(specs, max_workers=1)
        assert isinstance(results[0], SimulationResult)
        assert isinstance(results[2], SimulationResult)
        failure = results[1]
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "RuntimeError"
        assert "injected worker crash" in failure.message
        assert failure.attempts == 1
        assert failure.timed_out is False
        assert failure.spec == specs[1]

    def test_order_preserved(self):
        specs = [
            RunSpec(name, 0.4, 50.0, 0, setup=FAST_SETUP)
            for name in ("edf", "lsa", "ea-dvfs")
        ]
        results = run_parallel_salvage(specs, max_workers=1)
        assert [r.scheduler_name for r in results] == ["edf", "lsa", "ea-dvfs"]

    def test_retries_counted(self):
        results = run_parallel_salvage(
            [bad_spec(), ok_spec()], max_workers=1, retries=2, backoff=0.0
        )
        assert results[0].attempts == 3
        assert isinstance(results[1], SimulationResult)

    def test_successful_cells_not_retried(self):
        # A healthy cell succeeds in round 0 and must not run again.
        results = run_parallel_salvage(
            [ok_spec()] * 2 + [bad_spec()], max_workers=1, retries=1, backoff=0.0
        )
        assert isinstance(results[0], SimulationResult)
        assert results[2].attempts == 2


class TestPooledSalvage:
    def test_raising_cell_salvaged_others_complete(self):
        specs = [ok_spec(0), bad_spec(), ok_spec(1)]
        results = run_parallel_salvage(specs, max_workers=2, retries=1, backoff=0.0)
        assert isinstance(results[0], SimulationResult)
        assert isinstance(results[2], SimulationResult)
        failure = results[1]
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "RuntimeError"
        assert failure.attempts == 2

    def test_hanging_cell_times_out(self):
        specs = [
            ok_spec(0),
            RunSpec("edf", 0.4, 50.0, 0, setup=SleepingSetup()),
        ]
        results = run_parallel_salvage(specs, max_workers=2, timeout=0.5)
        assert isinstance(results[0], SimulationResult)
        failure = results[1]
        assert isinstance(failure, RunFailure)
        assert failure.timed_out is True
        assert failure.error_type == "TimeoutError"
        assert "0.5" in failure.message

    def test_pooled_matches_serial_for_healthy_specs(self):
        specs = [ok_spec(0), ok_spec(1)]
        serial = run_parallel_salvage(specs, max_workers=1)
        pooled = run_parallel_salvage(specs, max_workers=2)
        for s, p in zip(serial, pooled):
            assert s.missed_count == p.missed_count
            assert s.drawn_energy == pytest.approx(p.drawn_energy)


class TestStreamingPool:
    def test_one_pool_for_the_whole_call(self, pool_spy):
        results = run_parallel_salvage(
            [ok_spec(seed) for seed in range(6)], max_workers=2
        )
        assert all(isinstance(r, SimulationResult) for r in results)
        assert len(pool_spy) == 1

    def test_no_pool_without_pooled_work(self, pool_spy):
        assert run_parallel_salvage([], max_workers=2) == []
        run_parallel_salvage([ok_spec()], max_workers=2)  # one cell: serial
        run_parallel_salvage([ok_spec(0), ok_spec(1)], max_workers=1)
        assert pool_spy == []

    def test_timeout_is_counted_per_cell_from_launch(self):
        # Six quick cells queue behind one worker while the other hangs.
        # The hung cell is cut off one timeout after its launch, not
        # after a round budget scaled by the queue (4 timeouts here).
        specs = [RunSpec("edf", 0.4, 50.0, 0, setup=SleepingSetup())]
        specs += [ok_spec(seed) for seed in range(6)]
        started = time.monotonic()
        results = run_parallel_salvage(specs, max_workers=2, timeout=1.0)
        assert time.monotonic() - started < 3.5
        assert results[0].timed_out is True
        assert all(isinstance(r, SimulationResult) for r in results[1:])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_callback_hears_each_final_outcome_once(self, workers):
        heard = []
        specs = [ok_spec(0), bad_spec(), ok_spec(1)]
        results = run_parallel_salvage(
            specs, max_workers=workers, retries=1, backoff=0.0,
            on_outcome=lambda i, outcome: heard.append((i, outcome)) or True,
        )
        assert sorted(i for i, _ in heard) == [0, 1, 2]
        for i, outcome in heard:
            assert outcome is results[i]
        assert results[1].attempts == 2  # only the final failure is heard

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stop_lets_in_flight_cells_land(self, workers):
        heard = []

        def stop_after_first(i, outcome):
            heard.append(i)
            return False

        specs = [ok_spec(seed) for seed in range(6)]
        results = run_parallel_salvage(
            specs, max_workers=workers, on_outcome=stop_after_first
        )
        # Every launched cell lands and is heard; the rest never run.
        assert len(heard) == workers
        assert [r is not None for r in results].count(True) == workers
        assert sorted(heard) == [
            i for i, r in enumerate(results) if r is not None
        ]

    def test_stop_finalizes_failures_awaiting_retry(self):
        heard = []

        def stop_on_first_result(i, outcome):
            heard.append((i, outcome))
            return False

        results = run_parallel_salvage(
            [bad_spec(), ok_spec(0), ok_spec(1)],
            max_workers=1, retries=2, backoff=0.0,
            on_outcome=stop_on_first_result,
        )
        assert isinstance(results[0], RunFailure)
        assert results[0].attempts == 1
        assert isinstance(results[1], SimulationResult)
        assert results[2] is None
        assert [i for i, _ in heard] == [1, 0]


#: A pooled sweep whose second cell hangs for a minute; the script
#: reports what the parent saw.  Run as a file so the setup class is
#: importable by workers under any start method.
_STALL_SCRIPT = """
import os
import sys
import time
from dataclasses import dataclass

from repro.analysis.parallel import RunSpec, run_parallel_salvage
from repro.experiments.common import PaperSetup


@dataclass(frozen=True)
class PidStallSetup(PaperSetup):
    pid_file: str = ""

    def run(self, *args, **kwargs):
        with open(self.pid_file, "w") as handle:
            handle.write(str(os.getpid()))
        time.sleep(60.0)


if __name__ == "__main__":
    specs = [
        RunSpec("edf", 0.4, 50.0, 0, setup=PaperSetup(horizon=200.0)),
        RunSpec("edf", 0.4, 50.0, 1, setup=PidStallSetup(pid_file=sys.argv[1])),
    ]
    results = run_parallel_salvage(specs, max_workers=2, timeout=0.5)
    print(type(results[1]).__name__, results[1].timed_out)
"""


class TestStalledWorkerTerminated:
    def test_script_exits_promptly_and_worker_is_gone(
        self, tmp_path, survivors
    ):
        script = tmp_path / "stall.py"
        script.write_text(_STALL_SCRIPT)
        pid_file = tmp_path / "worker.pid"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(script), str(pid_file)],
            capture_output=True, text=True, env=env, timeout=30,
        )
        spent = time.monotonic() - started
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["RunFailure", "True"]
        # The hung cell sleeps 60 s: exiting well before that means its
        # worker was terminated rather than waited for.
        assert spent < 20.0
        left = survivors([int(pid_file.read_text())], within=5.0)
        for pid in left:  # do not leak it into the rest of the run
            os.kill(pid, signal.SIGKILL)
        assert left == []


class TestDiagnosticsCapture:
    def test_serial_failure_carries_traceback(self):
        failure = run_parallel_salvage([bad_spec()], max_workers=1)[0]
        assert isinstance(failure, RunFailure)
        assert "Traceback (most recent call last)" in failure.traceback
        assert "injected worker crash" in failure.traceback
        assert "RaisingSetup" in failure.traceback or "run" in failure.traceback

    def test_pooled_failure_carries_worker_traceback(self):
        # The traceback is formatted worker-side: it must survive the
        # process boundary intact.
        failure = run_parallel_salvage([bad_spec()] * 2, max_workers=2)[0]
        assert isinstance(failure, RunFailure)
        assert "Traceback (most recent call last)" in failure.traceback
        assert "injected worker crash" in failure.traceback

    def test_watchdog_diagnostics_captured(self):
        spec = RunSpec("edf", 0.4, 50.0, 0, setup=WatchdogTrippingSetup())
        failure = run_parallel_salvage([spec], max_workers=1)[0]
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "WatchdogError"
        assert failure.diagnostics is not None
        assert failure.diagnostics["violation"] == "stall budget exhausted"
        assert failure.diagnostics["stall_count"] == 7
        assert failure.diagnostics["detail"] == {"budget": 5.0}

    def test_timeout_failure_has_no_traceback(self):
        specs = [RunSpec("edf", 0.4, 50.0, 0, setup=SleepingSetup())] * 2
        failure = run_parallel_salvage(specs, max_workers=2, timeout=0.5)[0]
        assert failure.timed_out is True
        assert failure.traceback is None
        assert failure.diagnostics is None


class TestDeterministicRetrySchedule:
    def test_retry_delay_doubles_per_round(self):
        assert retry_delay(0.5, 1) == 0.5
        assert retry_delay(0.5, 2) == 1.0
        assert retry_delay(0.5, 3) == 2.0

    def test_retry_delay_zero_backoff(self):
        assert retry_delay(0.0, 1, jitter=0.5, seed=3) == 0.0

    def test_jitter_is_seeded_and_bounded(self):
        delays = {retry_delay(1.0, 1, jitter=0.25, seed=7) for _ in range(5)}
        assert len(delays) == 1  # pure function of (round, seed)
        delay = delays.pop()
        assert 1.0 <= delay <= 1.25
        assert retry_delay(1.0, 1, jitter=0.25, seed=8) != delay

    def test_retry_order_is_seeded_permutation(self):
        pending = list(range(10))
        order = _retry_order(pending, round_no=1, seed=0)
        assert sorted(order) == pending
        assert order == _retry_order(pending, round_no=1, seed=0)
        assert order != _retry_order(pending, round_no=2, seed=0)
        assert order != _retry_order(pending, round_no=1, seed=1)

    def test_salvage_outcome_reproducible_under_fixed_seed(self):
        specs = [bad_spec(), ok_spec(0), bad_spec(), ok_spec(1)]
        kwargs = dict(max_workers=1, retries=2, backoff=0.0, jitter=0.5, seed=9)
        first = run_parallel_salvage(specs, **kwargs)
        second = run_parallel_salvage(specs, **kwargs)
        for a, b in zip(first, second):
            assert type(a) is type(b)
            if isinstance(a, RunFailure):
                assert a.attempts == b.attempts
                assert a.message == b.message


@pytest.mark.slow
class TestWorkerDeath:
    """Genuinely hostile workers: hangs and signal deaths (pooled only)."""

    def _flaky(self, tmp_path, mode, fail_attempts=1):
        from repro.faults.chaos import FlakySetup

        return FlakySetup(
            horizon=200.0,
            scratch_dir=str(tmp_path / "scratch"),
            fail_attempts=fail_attempts,
            mode=mode,
            stall_seconds=10.0,
        )

    def test_sigkilled_worker_salvaged(self, tmp_path):
        # The worker dies by SIGKILL: the pool breaks, and the cell is
        # salvaged as a BrokenProcessPool failure instead of aborting.
        # A healthy companion spec keeps the sweep on the pooled path —
        # single-spec sweeps run serially, where a kill-mode FlakySetup
        # would take down the test process itself.
        setup = self._flaky(tmp_path, "kill", fail_attempts=10)
        specs = [
            RunSpec("edf", 0.4, 50.0, 0, setup=setup),
            RunSpec("edf", 0.4, 50.0, 1, setup=FAST_SETUP),
        ]
        results = run_parallel_salvage(specs, max_workers=2, retries=0)
        failure = results[0]
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "BrokenProcessPool"
        assert failure.attempts == 1
        assert failure.timed_out is False

    def test_sigkilled_worker_heals_on_retry(self, tmp_path):
        # First attempt dies by signal; the retry round gets a fresh
        # pool and the (now healthy) cell completes.
        setup = self._flaky(tmp_path, "kill", fail_attempts=1)
        specs = [
            RunSpec("edf", 0.4, 50.0, 0, setup=setup),
            RunSpec("edf", 0.4, 50.0, 1, setup=FAST_SETUP),
        ]
        results = run_parallel_salvage(
            specs, max_workers=2, retries=1, backoff=0.0, seed=0
        )
        assert isinstance(results[0], SimulationResult)
        assert isinstance(results[1], SimulationResult)

    def test_stalling_worker_times_out_then_heals(self, tmp_path):
        setup = self._flaky(tmp_path, "stall", fail_attempts=1)
        specs = [RunSpec("edf", 0.4, 50.0, 0, setup=setup)]
        results = run_parallel_salvage(
            specs + [RunSpec("edf", 0.4, 50.0, 1, setup=FAST_SETUP)],
            max_workers=2,
            timeout=1.0,
            retries=1,
            backoff=0.0,
            seed=0,
        )
        assert isinstance(results[0], SimulationResult)
        assert isinstance(results[1], SimulationResult)


class TestValidation:
    def test_bad_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            run_parallel_salvage([ok_spec()], timeout=0.0)

    def test_bad_retries(self):
        with pytest.raises(ValueError, match="retries"):
            run_parallel_salvage([ok_spec()], retries=-1)

    def test_bad_backoff(self):
        with pytest.raises(ValueError, match="backoff"):
            run_parallel_salvage([ok_spec()], backoff=-0.5)
