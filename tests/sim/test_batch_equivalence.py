"""Differential equivalence: the vectorized batch engine vs scalar.

The batch engine's contract (``docs/batch-simulation.md``): identical
deadline decisions and counters, energies equal within 1e-9, on every
world it claims to cover — and a counted, journaled scalar fallback on
every world it does not.  This suite enforces the contract end to end:

* a tier-1 smoke (the batch core importable and agreeing with the
  scalar simulator on a small sweep grid and on seeded random worlds);
* the N-seeded differential harness (``repro verify --batch``) with
  minimal-reproducing-seed reporting;
* the array-only job-generation path against ``TaskSet.jobs``;
* the supervisor/``SweepReport`` engine routing and journal mixing.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.analysis.parallel import RunSpec
from repro.experiments.common import PaperSetup
from repro.runtime import ResultJournal, run_supervised
from repro.runtime.journal import result_to_payload
from repro.runtime.sweep import ENGINE_ENV, engine_from_env
from repro.sim.batch import (
    _BatchCore,
    _periodic_job_arrays,
    _runspec_lane,
    _scenario_lane,
    execute_runspecs,
    run_scenario_batch,
    runspec_fallback_reason,
    scenario_fallback_reason,
)
from repro.sim.simulator import SimulationResult
from repro.verify.batch_equivalence import (
    BatchEquivalenceReport,
    compare_results,
    run_batch_equivalence,
)
from repro.verify.differential import Discrepancy
from repro.verify.scenarios import FaultPlan, ScenarioSpec, TaskParams

ORACLE_SETUP = PaperSetup(horizon=400.0, predictor_kind="oracle")


def _grid(setup=ORACLE_SETUP, seeds=2, capacities=(40.0, 150.0)):
    return [
        RunSpec(
            scheduler_name=name,
            utilization=0.4,
            capacity=capacity,
            seed=seed,
            setup=setup,
        )
        for capacity in capacities
        for name in ("lsa", "ea-dvfs")
        for seed in range(seeds)
    ]


class TestTier1Smoke:
    def test_batch_agrees_with_scalar_on_tiny_sweep(self):
        specs = _grid()
        outcomes, reasons = execute_runspecs(specs, slim=True)
        assert reasons == {}
        for spec, batch_result in zip(specs, outcomes):
            assert isinstance(batch_result, SimulationResult)
            scalar = spec.setup.run(
                spec.scheduler_name, spec.utilization, spec.capacity,
                spec.seed,
            )
            assert compare_results(scalar, batch_result) == []

    @pytest.mark.parametrize(
        "kind", ["oracle", "profile", "mean", "last-value"]
    )
    def test_every_predictor_kind_vectorized(self, kind):
        # The tentpole contract: no predictor kind falls back, and each
        # one's batch run matches the scalar reference bit-for-bit on
        # counters (1e-9 on energies).
        setup = PaperSetup(horizon=400.0, predictor_kind=kind)
        specs = _grid(setup=setup, seeds=1)
        outcomes, reasons = execute_runspecs(specs, slim=True)
        assert reasons == {}
        for spec, batch_result in zip(specs, outcomes):
            assert isinstance(batch_result, SimulationResult)
            scalar = spec.setup.run(
                spec.scheduler_name, spec.utilization, spec.capacity,
                spec.seed,
            )
            assert compare_results(scalar, batch_result) == []

    def test_scenario_worlds_agree(self):
        report = run_batch_equivalence(n=6, seed=0, allow_faults=False)
        assert report.ok, report.format_text()
        assert report.batch_cells > 0
        assert report.simulations_run > 0

    def test_high_miss_world_agrees(self):
        # An energy-starved, barely-schedulable world: misses everywhere,
        # so the deadline/drop bookkeeping is exercised hard.
        spec = ScenarioSpec(
            seed=0,  # constant source at 1.0 power: far below demand
            tasks=(TaskParams(period=10.0, wcet=9.0),),
            source_kind="constant",
            capacity=6.0,
            predictor_kind="oracle",
            horizon=200.0,
        )
        outcome = run_scenario_batch([spec], "ea-dvfs")
        assert outcome.fallbacks == 0
        batch_result = outcome.results[0]
        scalar = spec.run("ea-dvfs")
        assert scalar.missed_count > 0
        assert compare_results(scalar, batch_result) == []


class TestEventDrain:
    """The one-pass event drain against the scalar one-at-a-time pops.

    Tasks sharing one period release together, and their implicit
    deadlines coincide with the next releases, so every period boundary
    drains a release and a deadline per task in one pass.  An
    energy-starved, overloaded world misses several deadlines in one
    lane at one instant, which is where a plain fancy-index increment
    would under-count ``missed_count``.
    """

    @staticmethod
    def _world(n_tasks: int, miss_policy: str, seed: int) -> ScenarioSpec:
        return ScenarioSpec(
            seed=seed,
            tasks=tuple(
                TaskParams(period=10.0, wcet=2.0 + 0.5 * i)
                for i in range(n_tasks)
            ),
            source_kind="constant",
            capacity=5.0,
            predictor_kind="oracle",
            miss_policy=miss_policy,
            horizon=200.0,
        )

    @pytest.mark.parametrize("miss_policy", ["drop", "continue"])
    @pytest.mark.parametrize(
        "n_tasks",
        [3, _BatchCore.EVENT_WINDOW],  # 2 * 8 events: a second pass
    )
    def test_coincident_events_match_scalar_payload(
        self, n_tasks, miss_policy
    ):
        specs = [self._world(n_tasks, miss_policy, seed) for seed in range(3)]
        for scheduler in ("edf", "lsa", "ea-dvfs"):
            outcome = run_scenario_batch(specs, scheduler)
            assert outcome.fallbacks == 0
            for spec, batch_result in zip(specs, outcome.results):
                scalar = spec.run(scheduler)
                assert scalar.missed_count > 1
                assert result_to_payload(batch_result) == result_to_payload(
                    scalar
                )
                assert compare_results(scalar, batch_result) == []

    def test_window_overflow_takes_a_second_pass(self):
        # 2 * EVENT_WINDOW events are due at t = 10: a lane that fills
        # its whole window re-enters the drain for the rest.
        window = _BatchCore.EVENT_WINDOW
        spec = self._world(window, "drop", 0)
        core = _BatchCore([_scenario_lane(spec, "edf")])
        core._process_due_events()  # t = 0: the first releases
        assert core.ev_ptr[0] == window
        core.t[:] = 10.0  # nothing ran: every first job misses
        core._process_due_events()
        assert core.ev_ptr[0] == 3 * window
        assert core.next_ev[0] == 20.0
        assert core.missed_count[0] == window
        assert (core.best_rank < np.iinfo(np.int64).max).all()


@pytest.mark.slow
class TestSeededSweep:
    def test_sixty_faulted_worlds(self):
        report = run_batch_equivalence(n=60, seed=0, allow_faults=True)
        assert report.ok, report.format_text()
        # Faulted worlds must take the scalar fallback, clean oracle
        # worlds the core: both paths must appear at this width.
        assert report.batch_cells > 0
        assert report.fallback_cells > 0


class TestFallbackRouting:
    def test_runspec_fallback_reasons(self):
        covered = _grid(seeds=1)[0]
        assert runspec_fallback_reason(covered) is None
        # The default (profile) predictor is vectorized — no fallback.
        profile = dataclasses.replace(
            covered, setup=PaperSetup(horizon=400.0)
        )
        assert runspec_fallback_reason(profile) is None
        sampled = dataclasses.replace(covered, energy_sample_interval=10.0)
        assert "sampling" in str(runspec_fallback_reason(sampled))
        unknown = dataclasses.replace(covered, scheduler_name="stretch-edf")
        assert "not vectorized" in str(runspec_fallback_reason(unknown))
        infinite = dataclasses.replace(covered, capacity=math.inf)
        assert "infinite" in str(runspec_fallback_reason(infinite))

    def test_scenario_fallback_reasons(self):
        spec = ScenarioSpec(
            seed=0, tasks=(TaskParams(period=20.0, wcet=2.0),),
            predictor_kind="oracle",
        )
        assert scenario_fallback_reason(spec, "ea-dvfs") is None
        faulted = dataclasses.replace(
            spec, faults=FaultPlan(overrun=True)
        )
        assert scenario_fallback_reason(faulted, "ea-dvfs") == (
            "fault plan active"
        )
        # Every online predictor kind is vectorized now — no predictor
        # triggers a fallback under any covered scheduler.
        for kind in ("profile", "mean", "last-value"):
            online = dataclasses.replace(spec, predictor_kind=kind)
            for scheduler in ("lsa", "ea-dvfs", "edf"):
                assert scenario_fallback_reason(online, scheduler) is None

    def test_mixed_batch_counts_fallbacks(self):
        covered = _grid(seeds=1)[0]
        sampled = dataclasses.replace(covered, energy_sample_interval=10.0)
        outcomes, reasons = execute_runspecs([covered, sampled], slim=True)
        assert len(outcomes) == 2
        assert all(isinstance(o, SimulationResult) for o in outcomes)
        assert sum(reasons.values()) == 1
        assert any("sampling" in reason for reason in reasons)

    def test_empty_batch(self):
        outcomes, reasons = execute_runspecs([], slim=True)
        assert outcomes == []
        assert reasons == {}

    def test_default_grid_has_no_fallbacks(self):
        # Satellite regression: the default sweep grid (profile
        # predictor, finite capacity, no faults) must be fully
        # vectorized — an empty fallback histogram, not a silent
        # scalar sweep.
        specs = _grid(setup=PaperSetup(horizon=400.0))
        report = run_supervised(specs, engine="batch")
        assert report.engine == "batch"
        assert report.batch_fallbacks == 0
        assert report.fallback_reasons == {}
        assert all(
            isinstance(o, SimulationResult) for o in report.outcomes
        )

    def test_slim_lane_refuses_job_results(self):
        lane = _runspec_lane(_grid(seeds=1)[0], slim=True)
        assert lane.jobs is None  # the array-only fast path was taken
        core = _BatchCore([lane])
        core.run()
        assert core.errors[0] is None
        with pytest.raises(RuntimeError, match="slim"):
            core.result(0, include_jobs=True)


class TestArrayJobGeneration:
    def test_matches_taskset_jobs(self):
        setup = ORACLE_SETUP
        for seed in range(4):
            taskset = setup.taskset(seed, 0.5)
            arrays = _periodic_job_arrays(taskset, setup.horizon)
            assert arrays is not None
            jrelease, jdeadline, jwork, jtask, task_names = arrays
            jobs = list(taskset.jobs(setup.horizon, None))
            assert jrelease.shape[0] == len(jobs)
            for i, job in enumerate(jobs):
                # Bit-exact: the array path performs the same int*float
                # arithmetic as the scalar release generator.
                assert jrelease[i] == job.release
                assert jdeadline[i] == job.absolute_deadline
                assert jwork[i] == job.wcet
                assert task_names[int(jtask[i])] == job.task.name

    def test_non_periodic_taskset_returns_none(self):
        from repro.faults import OverrunWorkload

        taskset = OverrunWorkload(
            ORACLE_SETUP.taskset(0, 0.4), seed=0
        )
        assert _periodic_job_arrays(taskset, 400.0) is None


class TestSupervisorEngine:
    def test_batch_engine_matches_scalar_engine(self):
        specs = _grid()
        scalar_report = run_supervised(specs)
        batch_report = run_supervised(specs, engine="batch")
        assert scalar_report.engine == "scalar"
        assert batch_report.engine == "batch"
        assert batch_report.batch_fallbacks == 0
        assert "engine: batch (0 scalar fallback(s))" in (
            batch_report.format_text()
        )
        assert "engine:" not in scalar_report.format_text()
        for scalar, batch in zip(
            scalar_report.outcomes, batch_report.outcomes
        ):
            assert isinstance(scalar, SimulationResult)
            assert isinstance(batch, SimulationResult)
            assert compare_results(scalar, batch) == []

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            run_supervised(_grid(seeds=1), engine="warp")

    def test_journal_entries_mix_across_engines(self, tmp_path):
        specs = _grid(seeds=1)
        path = tmp_path / "sweep.journal"
        journal = ResultJournal(path)
        try:
            first = run_supervised(specs, journal=journal, engine="scalar")
        finally:
            journal.close()
        assert first.executed == len(specs)
        journal = ResultJournal(path)
        try:
            second = run_supervised(specs, journal=journal, engine="batch")
        finally:
            journal.close()
        # Scalar-journaled cells satisfy the batch run untouched: the
        # engines are interchangeable at the journal layer.
        assert second.executed == 0
        assert second.journal_hits == len(specs)

    def test_engine_from_env(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert engine_from_env() == "scalar"
        assert engine_from_env(default="batch") == "batch"
        monkeypatch.setenv(ENGINE_ENV, "batch")
        assert engine_from_env() == "batch"
        monkeypatch.setenv(ENGINE_ENV, "scalar")
        # The env var wins over the caller's default.
        assert engine_from_env(default="batch") == "scalar"
        monkeypatch.setenv(ENGINE_ENV, "warp")
        with pytest.raises(ValueError, match=ENGINE_ENV):
            engine_from_env()

    def test_resume_does_not_recount_fallbacks(self, tmp_path):
        # Satellite regression: fallback tallies count only cells
        # executed in *this* run.  A journal-resumed sweep re-serves
        # every cell from the journal and must report zero fallbacks,
        # not re-add the first run's histogram.
        covered = _grid(seeds=1)[0]
        sampled = dataclasses.replace(
            covered, energy_sample_interval=10.0
        )
        specs = [covered, sampled]
        path = tmp_path / "sweep.journal"
        journal = ResultJournal(path)
        try:
            first = run_supervised(specs, journal=journal, engine="batch")
        finally:
            journal.close()
        assert first.batch_fallbacks == 1
        assert first.fallback_reasons == {
            "energy sampling requested": 1
        }
        journal = ResultJournal(path)
        try:
            second = run_supervised(specs, journal=journal, engine="batch")
        finally:
            journal.close()
        assert second.journal_hits == len(specs)
        assert second.executed == 0
        assert second.batch_fallbacks == 0
        assert second.fallback_reasons == {}


class TestReporting:
    def test_minimal_seed_and_format(self):
        report = BatchEquivalenceReport(n_scenarios=10, base_seed=0)
        for seed in (7, 3):
            report.discrepancies.append(Discrepancy(
                seed=seed, check="batch-equivalence[lsa]",
                detail="missed_count: scalar 1 != batch 2",
                scenario=f"seed={seed}",
            ))
        assert not report.ok
        assert report.minimal_seed == 3
        text = report.format_text()
        assert "minimal reproducing seed: 3" in text
        assert "DISCREPANCIES" in text

    def test_compare_results_detects_divergence(self):
        spec = _grid(seeds=1)[0]
        result = spec.setup.run(
            spec.scheduler_name, spec.utilization, spec.capacity, spec.seed
        )
        assert compare_results(result, result) == []
        skewed = dataclasses.replace(
            result, missed_count=result.missed_count + 1,
            drawn_energy=result.drawn_energy + 1e-3,
        )
        problems = compare_results(result, skewed)
        assert any("missed_count" in p for p in problems)
        assert any("drawn_energy" in p for p in problems)

    def test_compare_results_ignores_trace(self):
        from repro.sim.tracing import Trace

        spec = _grid(seeds=1)[0]
        result = spec.setup.run(
            spec.scheduler_name, spec.utilization, spec.capacity, spec.seed
        )
        retraced = dataclasses.replace(result, trace=Trace())
        assert compare_results(result, retraced) == []

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError, match="n must be"):
            run_batch_equivalence(n=0)

    def test_progress_callback(self):
        calls: list[tuple[int, int]] = []
        run_batch_equivalence(
            n=1, seed=3, allow_faults=False,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls
        assert calls[-1][0] == calls[-1][1] == len(calls)


def test_numpy_event_order_is_deterministic():
    # Guards the static event-table build: equal (time, priority) keys
    # must keep their sequence order (np.lexsort stability), or deadline
    # processing could reorder against the scalar heap.
    times = np.asarray([5.0, 5.0, 1.0, 5.0])
    prio = np.asarray([1, 0, 1, 0], dtype=np.int64)
    seq = np.arange(4, dtype=np.int64)
    order = np.lexsort((seq, prio, times))
    assert order.tolist() == [2, 1, 3, 0]
