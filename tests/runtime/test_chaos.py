"""Chaos acceptance suite: kill-and-resume equals uninterrupted.

These tests drive the real CLI in real subprocesses: a sweep is
SIGKILL'd at three seeded interruption points — before a journal append,
mid-append (torn write) and right after one — then resumed against the
surviving journal.  The acceptance bar is bit-identical exports (exact
JSON, every float at full precision) versus a sweep that was never
interrupted.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

SWEEP_ARGS = [
    "sweep",
    "--scheduler", "edf",
    "--capacities", "50",
    "--seeds", "3",
    "--horizon", "200",
]
#: Cells of one sweep: one scheduler x one capacity x three seeds.
SWEEP_CELLS = 3

#: (1-based armed append, kill mode): the three seeded interruption
#: points of the acceptance criterion — first record lost entirely,
#: second torn mid-write, third durable with the process dying after.
KILL_POINTS = [(1, "before"), (2, "torn"), (3, "after")]


def run_cli(args, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env.pop("REPRO_JOURNAL", None)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli {args} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
        )
    return proc


def sweep(journal, workers, extra=()):
    return run_cli(
        [*SWEEP_ARGS, "--workers", workers, "--journal", str(journal), *extra]
    )


def export(journal, out):
    run_cli(["journal", "export", str(journal), "--out", str(out)])
    return Path(out).read_bytes()


def children(pid):
    """PIDs whose parent is ``pid``, from a scan of ``/proc``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry.name))
    return found


@pytest.mark.slow
class TestKillAndResume:
    #: ``--workers`` of every sweep: serial and in-process.
    workers = "1"
    #: Extra arguments of every sweep (the engine; default scalar).
    engine_args: tuple = ()

    def test_resume_is_bit_identical_at_every_kill_point(self, tmp_path):
        clean = tmp_path / "clean.journal"
        sweep(clean, self.workers, self.engine_args)
        reference = export(clean, tmp_path / "clean.json")
        assert reference  # non-empty export

        for record, mode in KILL_POINTS:
            journal = tmp_path / f"chaos-{record}-{mode}.journal"
            proc = run_cli(
                [
                    *SWEEP_ARGS,
                    "--workers", self.workers,
                    *self.engine_args,
                    "--journal", str(journal),
                    "--chaos-kill-record", str(record),
                    "--chaos-kill-mode", mode,
                ],
                check=False,
            )
            assert proc.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL), (
                f"expected SIGKILL death at ({record}, {mode}), got "
                f"{proc.returncode}: {proc.stdout} {proc.stderr}"
            )

            # What survived is exactly what the kill mode promises.
            inspect = run_cli(["journal", "inspect", str(journal)]).stdout
            durable = record if mode == "after" else record - 1
            assert f"records: {durable} " in inspect
            if mode == "torn":
                assert "recovered: discarded" in inspect

            # Resume: only the missing cells run, then exports match
            # the uninterrupted reference byte for byte.
            resumed = sweep(journal, self.workers, self.engine_args)
            executed = SWEEP_CELLS - durable
            assert (
                f"journal: {durable} hit(s), {executed} executed"
                in resumed.stdout
            )
            assert export(journal, tmp_path / f"{record}-{mode}.json") == reference

    def test_double_kill_then_resume(self, tmp_path):
        # Crash twice at different points; the journal still converges.
        journal = tmp_path / "twice.journal"
        for record, mode in ((1, "torn"), (2, "torn")):
            proc = run_cli(
                [
                    *SWEEP_ARGS,
                    "--workers", self.workers,
                    *self.engine_args,
                    "--journal", str(journal),
                    "--chaos-kill-record", str(record),
                    "--chaos-kill-mode", mode,
                ],
                check=False,
            )
            assert proc.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)
        sweep(journal, self.workers, self.engine_args)
        clean = tmp_path / "clean.journal"
        sweep(clean, self.workers, self.engine_args)
        assert export(journal, tmp_path / "a.json") == export(
            clean, tmp_path / "b.json"
        )


class TestKillAndResumePooled(TestKillAndResume):
    """The same kill points on a pool of two workers, where records land
    in completion order rather than input order."""

    workers = "2"


class TestKillAndResumeBatch(TestKillAndResume):
    """The same kill points on the batch engine, which journals each cell
    as its lane reaches the horizon: the kills at records 1 and 2 land
    while the vectorized core still has lanes running."""

    engine_args = ("--engine", "batch")


@pytest.mark.slow
class TestMixedEngineResume:
    """A sweep killed on the scalar engine and resumed on the batch core
    exports the same bytes as an uninterrupted scalar run: the engines
    agree bit for bit, and the exact export would show a last-bit
    divergence."""

    def test_scalar_kill_batch_resume_matches_scalar_run(self, tmp_path):
        grid = [*SWEEP_ARGS, "--scheduler", "lsa", "--workers", "1"]
        clean = tmp_path / "clean.journal"
        run_cli([*grid, "--engine", "scalar", "--journal", str(clean)])
        reference = export(clean, tmp_path / "clean.json")

        journal = tmp_path / "mixed.journal"
        proc = run_cli(
            [
                *grid, "--engine", "scalar", "--journal", str(journal),
                "--chaos-kill-record", "3", "--chaos-kill-mode", "torn",
            ],
            check=False,
        )
        assert proc.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)

        resumed = run_cli(
            [*grid, "--engine", "batch", "--journal", str(journal)]
        ).stdout
        assert "journal: 2 hit(s), 4 executed" in resumed
        assert "engine: batch (0 scalar fallback(s))" in resumed
        assert export(journal, tmp_path / "mixed.json") == reference


@pytest.mark.slow
class TestPoolWorkersDieWithParent:
    def test_sigkilled_sweep_leaves_no_worker_behind(self, tmp_path, survivors):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC
        env.pop("REPRO_JOURNAL", None)
        journal = tmp_path / "big.journal"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "sweep",
                "--workers", "2", "--seeds", "40", "--horizon", "2000",
                "--journal", str(journal),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            # Mid-run: both workers are up and a record has landed.
            deadline = time.monotonic() + 60.0
            workers = []
            while time.monotonic() < deadline and proc.poll() is None:
                workers = children(proc.pid)
                landed = journal.exists() and journal.stat().st_size > 8
                if len(workers) >= 2 and landed:  # more than the magic
                    break
                time.sleep(0.05)
            assert len(workers) >= 2, "sweep never started its pool"
        finally:
            proc.kill()
            proc.wait()
        left = survivors(workers, within=5.0)
        for pid in left:  # do not leak them into the rest of the run
            os.kill(pid, signal.SIGKILL)
        assert left == []


@pytest.mark.slow
class TestCliSweepFailures:
    def test_usage_errors_exit_2(self, tmp_path):
        proc = run_cli(
            [*SWEEP_ARGS, "--chaos-kill-record", "1"], check=False
        )
        assert proc.returncode == 2  # chaos kill without --journal

    def test_sweep_exit_codes(self, tmp_path):
        ok = run_cli([*SWEEP_ARGS, "--export", str(tmp_path / "e.json")])
        assert "3 ok" in ok.stdout
        assert (tmp_path / "e.json").exists()
