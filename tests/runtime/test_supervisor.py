"""Tests for the supervised sweep loop: resume, quarantine, budgets."""

import dataclasses
import time
from dataclasses import dataclass

import pytest

from repro.analysis.parallel import RunFailure, RunSpec
from repro.experiments.common import PaperSetup
from repro.experiments.resilience import ResilienceSetup
from repro.faults.chaos import FlakySetup
from repro.runtime.journal import ResultJournal, journal_key, result_to_payload
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
from repro.serialization import canonical_json
from repro.sim.simulator import SimulationResult

FAST_SETUP = PaperSetup(horizon=200.0)


@dataclass(frozen=True)
class RaisingSetup(PaperSetup):
    def run(self, *args, **kwargs):
        raise RuntimeError("injected crash")


@dataclass(frozen=True)
class SlowSetup(PaperSetup):
    """Healthy, but slow enough that a tiny wall-clock budget trips."""

    def run(self, *args, **kwargs):
        time.sleep(0.05)
        return super().run(*args, **kwargs)


@dataclass(frozen=True)
class HangingSetup(PaperSetup):
    """Never finishes within any test timeout."""

    def run(self, *args, **kwargs):
        time.sleep(30.0)
        raise AssertionError("should have been cut off by the timeout")


def specs_for(n, setup=FAST_SETUP, name="edf"):
    return [RunSpec(name, 0.4, 50.0, seed, setup=setup) for seed in range(n)]


class TestPolicyValidation:
    def test_bad_retries(self):
        with pytest.raises(ValueError, match="retries"):
            SupervisorPolicy(retries=-1)

    def test_bad_quarantine(self):
        with pytest.raises(ValueError, match="quarantine_after"):
            SupervisorPolicy(quarantine_after=0)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            SupervisorPolicy(batch_size=0)

    def test_bad_budgets(self):
        with pytest.raises(ValueError, match="max_wall_clock"):
            SupervisorPolicy(max_wall_clock=0.0)
        with pytest.raises(ValueError, match="max_rss_mb"):
            SupervisorPolicy(max_rss_mb=-1.0)


class TestSupervisedNoJournal:
    def test_all_healthy(self):
        report = run_supervised(specs_for(3), max_workers=1)
        assert report.ok
        assert report.executed == 3
        assert report.journal_hits == 0
        assert len(report.results()) == 3
        assert "3 cell(s)" in report.format_text()

    def test_failures_reported_in_order(self):
        specs = specs_for(1) + specs_for(1, setup=RaisingSetup())
        report = run_supervised(
            specs, policy=SupervisorPolicy(retries=0, backoff=0.0), max_workers=1
        )
        assert not report.ok
        assert report.failed == 1
        assert isinstance(report.outcomes[0], SimulationResult)
        failure = report.outcomes[1]
        assert isinstance(failure, RunFailure)
        assert "FAILED" in report.format_text()

    def test_wall_clock_budget_flushes_partial(self):
        policy = SupervisorPolicy(max_wall_clock=0.06, batch_size=1)
        report = run_supervised(
            specs_for(30, setup=SlowSetup()), policy=policy, max_workers=1
        )
        assert report.budget_exhausted == "wall-clock"
        assert report.not_run > 0
        assert report.executed + report.not_run == 30
        assert "budget exhausted" in report.format_text()

    def test_memory_budget_trips_immediately(self):
        # Any real process exceeds 1 MiB RSS, so the first check trips.
        policy = SupervisorPolicy(max_rss_mb=1.0)
        report = run_supervised(specs_for(2), policy=policy, max_workers=1)
        assert report.budget_exhausted == "memory"
        assert report.executed == 0
        assert report.not_run == 2


class TestPooledLifecycle:
    """One worker pool per scalar sweep, journaled cell by cell."""

    def test_one_pool_for_a_clean_sweep(self, tmp_path, pool_spy):
        with ResultJournal(tmp_path / "j.journal") as journal:
            report = run_supervised(specs_for(6), journal=journal, max_workers=2)
            assert report.ok and report.executed == 6
            assert len(journal) == 6
        assert len(pool_spy) == 1

    def test_no_pool_when_every_cell_is_a_journal_hit(self, tmp_path, pool_spy):
        with ResultJournal(tmp_path / "j.journal") as journal:
            run_supervised(specs_for(6), journal=journal, max_workers=2)
            pool_spy.clear()
            report = run_supervised(specs_for(6), journal=journal, max_workers=2)
        assert (report.journal_hits, report.executed) == (6, 0)
        assert pool_spy == []

    def test_timeout_replaces_the_pool_once(self, tmp_path, pool_spy):
        # One worker hangs; the other is still working through the slow
        # healthy cells when the hung one times out, so the rest launch
        # on exactly one replacement pool.
        healthy = specs_for(16, setup=SlowSetup(horizon=200.0))
        specs = specs_for(1, setup=HangingSetup()) + healthy
        policy = SupervisorPolicy(timeout=0.5, retries=0)
        with ResultJournal(tmp_path / "j.journal") as journal:
            report = run_supervised(
                specs, policy=policy, journal=journal, max_workers=2
            )
            assert len(journal) == 17  # the healthy siblings and the failure
        assert len(pool_spy) == 2
        failure = report.outcomes[0]
        assert isinstance(failure, RunFailure) and failure.timed_out
        assert (report.failed, report.completed) == (1, 16)

    def test_pooled_wall_clock_budget(self, tmp_path, pool_spy):
        specs = specs_for(20, setup=SlowSetup(horizon=200.0))
        policy = SupervisorPolicy(max_wall_clock=0.3)
        with ResultJournal(tmp_path / "j.journal") as journal:
            first = run_supervised(
                specs, policy=policy, journal=journal, max_workers=2
            )
            assert first.budget_exhausted == "wall-clock"
            assert first.not_run > 0
            assert first.executed + first.not_run == 20
            # Every finished cell is durable; the rest were never run.
            assert len(journal) == first.executed
            assert sum(o is None for o in first.outcomes) == first.not_run
            rerun = run_supervised(specs, journal=journal, max_workers=2)
        assert rerun.ok
        assert (rerun.journal_hits, rerun.executed) == (
            first.executed, first.not_run
        )
        assert len(pool_spy) == 2  # one per sweep

    def test_serial_by_default(self, pool_spy):
        report = run_supervised(specs_for(3))
        assert report.ok
        assert pool_spy == []


class TestBatchFallbackRouting:
    """Batch-engine cells the core leaves out run on the scalar runner,
    with the sweep's timeout, retries, quarantine and journaling."""

    @pytest.mark.parametrize(
        "faults", [{"blackout": True}, {"overrun": True}],
        ids=["blackout", "overrun"],
    )
    def test_run_overriding_setups_fall_back(self, faults):
        # Regression: the batch lane builder rebuilt these cells from
        # the nominal task set and source, so their faults never fired.
        setup = ResilienceSetup(horizon=400.0, **faults)
        specs = [RunSpec("lsa", 0.6, 30.0, seed, setup) for seed in range(3)]
        scalar = run_supervised(specs, engine="scalar")
        batch = run_supervised(specs, engine="batch")
        assert batch.fallback_reasons == {
            "setup ResilienceSetup overrides run": 3
        }
        assert [result_to_payload(r) for r in batch.results()] == [
            result_to_payload(r) for r in scalar.results()
        ]
        assert len(batch.results()) == 3

    def test_hanging_fallback_times_out(self, tmp_path, pool_spy):
        covered = specs_for(3, name="lsa")
        sampled = dataclasses.replace(covered[0], energy_sample_interval=10.0)
        specs = covered + specs_for(1, setup=HangingSetup()) + [sampled]
        policy = SupervisorPolicy(timeout=0.5, retries=0)
        started = time.monotonic()
        with ResultJournal(tmp_path / "j.journal") as journal:
            report = run_supervised(
                specs, policy=policy, journal=journal, max_workers=2,
                engine="batch",
            )
            assert len(journal) == 5
            record = journal.get(journal_key(specs[3]))
        assert time.monotonic() - started < 20.0
        assert record["kind"] == "failure"
        assert record["payload"]["timed_out"] is True
        # Only the hanging and the sampled cell left the core.
        assert report.fallback_reasons == {
            "setup HangingSetup overrides run": 1,
            "energy sampling requested": 1,
        }
        failure = report.outcomes[3]
        assert isinstance(failure, RunFailure) and failure.timed_out
        assert (report.failed, report.completed) == (1, 4)
        assert len(pool_spy) == 1

    def test_lane_build_error_falls_back_with_retries(self):
        # The lane builder raises for an unknown predictor kind; the cell
        # falls back and fails on the scalar runner exactly as it does on
        # the scalar engine, retries included.
        specs = specs_for(1, setup=PaperSetup(predictor_kind="bogus"))
        policy = SupervisorPolicy(retries=1, backoff=0.0)
        scalar = run_supervised(specs, policy=policy)
        batch = run_supervised(specs, policy=policy, engine="batch")
        assert batch.fallback_reasons == {"lane build raised ValueError": 1}
        (want,), (got,) = scalar.failures(), batch.failures()
        assert got.attempts == want.attempts == 2
        assert (got.error_type, got.message) == (want.error_type, want.message)

    def test_raising_fallback_journaled_like_scalar(self, tmp_path):
        specs = specs_for(1, name="lsa") + specs_for(1, setup=RaisingSetup())
        policy = SupervisorPolicy(retries=1, backoff=0.0, quarantine_after=3)
        journals = {
            engine: ResultJournal(tmp_path / f"{engine}.journal")
            for engine in ("scalar", "batch")
        }
        try:
            for expected in ((2, False), (4, True)):
                records = {}
                for engine, journal in journals.items():
                    report = run_supervised(
                        specs, policy=policy, journal=journal, engine=engine
                    )
                    failure = report.outcomes[1]
                    assert (failure.attempts, failure.quarantined) == expected
                    records[engine] = journal.get(journal_key(specs[1]))
                assert records["batch"] == records["scalar"]
        finally:
            for journal in journals.values():
                journal.close()


class TestBatchBudgets:
    """On the batch engine every landing journals the cell and then
    checks the budgets, so a budget stops the vectorized core mid-run."""

    def test_budget_stops_the_core_mid_run(
        self, tmp_path, monkeypatch, pool_spy
    ):
        import repro.runtime.supervisor as supervisor

        specs = specs_for(6, name="lsa")
        k = 2
        with ResultJournal(tmp_path / "clean.journal") as clean:
            run_supervised(specs, journal=clean, engine="batch")
            reference = canonical_json(clean.to_canonical())
        original = supervisor._exhausted_budget
        with ResultJournal(tmp_path / "j.journal") as journal:
            # The wall-clock budget runs out once k cells have landed.
            monkeypatch.setattr(
                supervisor,
                "_exhausted_budget",
                lambda policy, started: (
                    "wall-clock" if len(journal) >= k else None
                ),
            )
            first = run_supervised(
                specs, journal=journal, max_workers=2, engine="batch"
            )
            assert first.budget_exhausted == "wall-clock"
            assert (first.executed, first.not_run) == (k, len(specs) - k)
            assert first.fallback_reasons == {}
            assert len(journal) == k
            assert pool_spy == []  # no scalar fallback was launched
            monkeypatch.setattr(supervisor, "_exhausted_budget", original)
            rerun = run_supervised(
                specs, journal=journal, max_workers=2, engine="batch"
            )
            assert rerun.ok
            assert (rerun.journal_hits, rerun.executed) == (
                k, len(specs) - k
            )
            assert canonical_json(journal.to_canonical()) == reference


class TestSupervisedWithJournal:
    def test_resume_skips_journaled_results(self, tmp_path):
        specs = specs_for(4)
        with ResultJournal(tmp_path / "j.journal") as journal:
            first = run_supervised(specs, journal=journal, max_workers=1)
            assert (first.journal_hits, first.executed) == (0, 4)
            second = run_supervised(specs, journal=journal, max_workers=1)
            assert (second.journal_hits, second.executed) == (4, 0)
        assert canonical_json(
            [result_to_payload(r) for r in first.results()]
        ) == canonical_json([result_to_payload(r) for r in second.results()])

    def test_partial_journal_runs_only_missing(self, tmp_path):
        specs = specs_for(4)
        with ResultJournal(tmp_path / "j.journal") as journal:
            run_supervised(specs[:2], journal=journal, max_workers=1)
            report = run_supervised(specs, journal=journal, max_workers=1)
            assert (report.journal_hits, report.executed) == (2, 2)
            assert report.ok

    def test_failures_retried_on_resume_until_quarantined(self, tmp_path):
        specs = specs_for(1, setup=RaisingSetup())
        policy = SupervisorPolicy(retries=0, backoff=0.0, quarantine_after=3)
        with ResultJournal(tmp_path / "j.journal") as journal:
            for expected_attempts in (1, 2):
                report = run_supervised(
                    specs, policy=policy, journal=journal, max_workers=1
                )
                failure = report.outcomes[0]
                assert failure.attempts == expected_attempts
                assert failure.quarantined is False
                assert report.executed == 1
            # Third run reaches the threshold and quarantines.
            report = run_supervised(
                specs, policy=policy, journal=journal, max_workers=1
            )
            assert report.outcomes[0].quarantined is True
            assert report.quarantined == 1
            # Fourth run: quarantined failure is a journal hit, no retry.
            report = run_supervised(
                specs, policy=policy, journal=journal, max_workers=1
            )
            assert report.executed == 0
            assert report.journal_hits == 1
            assert report.outcomes[0].quarantined is True

    def test_flaky_cell_heals_through_journaled_retries(self, tmp_path):
        setup = FlakySetup(
            horizon=200.0,
            scratch_dir=str(tmp_path / "scratch"),
            fail_attempts=1,
            mode="raise",
        )
        specs = specs_for(1, setup=setup)
        policy = SupervisorPolicy(retries=1, backoff=0.0)
        with ResultJournal(tmp_path / "j.journal") as journal:
            report = run_supervised(
                specs, policy=policy, journal=journal, max_workers=1
            )
            assert report.ok  # failed once, healed on the in-run retry
            result = report.outcomes[0]
            assert isinstance(result, SimulationResult)


class TestJournaledSweepHelpers:
    def test_env_journal(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL", str(tmp_path / "env.journal"))
        journal = journal_from_env()
        assert journal is not None
        journal.close()
        report = run_journaled_sweep(specs_for(2), max_workers=1)
        assert report.ok
        assert report.journal_hits == 0
        # Rerun resumes from the same env journal.
        report = run_journaled_sweep(specs_for(2), max_workers=1)
        assert report.journal_hits == 2

    def test_env_unset_means_no_journal(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOURNAL", raising=False)
        assert journal_from_env() is None
        report = run_journaled_sweep(specs_for(1), max_workers=1)
        assert report.journal_path is None

    def test_journaled_sweep_matches_serial(self, tmp_path):
        specs = specs_for(2) + specs_for(2, name="lsa")
        with ResultJournal(tmp_path / "j.journal") as journal:
            fresh = run_journaled_sweep(specs, journal=journal, max_workers=1)
            resumed = run_journaled_sweep(
                specs, journal=journal, max_workers=1
            )
        assert resumed.journal_hits == len(specs)
        serial = [
            FAST_SETUP.run(s.scheduler_name, 0.4, 50.0, s.seed) for s in specs
        ]
        for report in (fresh, resumed):
            assert [
                result_to_payload(r) for r in report.complete_results()
            ] == [result_to_payload(r) for r in serial]

    def test_sweep_failed_error_carries_traceback(self, tmp_path):
        report = run_journaled_sweep(
            specs_for(1, setup=RaisingSetup()),
            journal=ResultJournal(tmp_path / "j.journal"),
            max_workers=1,
        )
        with pytest.raises(SweepFailedError, match="injected crash") as info:
            report.complete_results()
        failure = info.value.failures[0]
        assert failure.traceback is not None
        assert "RuntimeError" in failure.traceback


class TestSweepReportShape:
    def test_counts_consistent(self):
        report = SweepReport(
            outcomes=(None,),
            journal_hits=0,
            executed=0,
            not_run=1,
            failed=0,
            quarantined=0,
            elapsed=0.0,
            budget_exhausted="wall-clock",
        )
        assert not report.ok
        assert report.completed == 0
        assert dataclasses.asdict(report)["budget_exhausted"] == "wall-clock"

    def test_complete_results_refuses_unrun_cells(self):
        report = SweepReport(
            outcomes=(None,), journal_hits=0, executed=0, not_run=1,
            failed=0, quarantined=0, elapsed=0.0,
            budget_exhausted="wall-clock",
        )
        with pytest.raises(RuntimeError, match="wall-clock budget"):
            report.complete_results()


class TestRssMeasurement:
    @pytest.mark.parametrize(
        "platform, maxrss", [("linux", 150 * 1024), ("darwin", 150 << 20)]
    )
    def test_platform_units(self, monkeypatch, platform, maxrss):
        import resource
        import sys
        from types import SimpleNamespace

        from repro.runtime.supervisor import _rss_mb

        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(
            resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=maxrss)
        )
        assert _rss_mb() == 150.0
