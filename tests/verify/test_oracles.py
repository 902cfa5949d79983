"""Decision oracles, degeneracy identities, and trace re-checks."""

import math

import pytest

from repro.core.ea_dvfs import EaDvfsScheduler
from repro.core.slowdown import compute_plan
from repro.cpu.presets import stretch_example_scale, xscale_pxa
from repro.sched.base import Decision
from repro.sim.simulator import DeadlineMissPolicy
from repro.verify import (
    OracleCheckedScheduler,
    OracleViolationError,
    check_accounting,
    check_causality,
    check_energy_conservation,
    compare_schedules,
    random_scenario,
    recompute_plan,
)
from repro.verify.scenarios import ScenarioSpec, TaskParams


class TestRecomputePlan:
    """The independent oracle arithmetic against the production plan."""

    @pytest.mark.parametrize("scale_fn", [xscale_pxa, stretch_example_scale])
    @pytest.mark.parametrize("energy", [0.0, 1.0, 7.5, 40.0, math.inf])
    @pytest.mark.parametrize("work,window", [
        (1.0, 10.0), (5.0, 6.0), (9.999, 10.0), (12.0, 10.0), (0.0, 5.0),
    ])
    def test_matches_production_plan(self, scale_fn, energy, work, window):
        scale = scale_fn()
        now, deadline = 3.0, 3.0 + window
        oracle = recompute_plan(now, deadline, work, energy, scale)
        plan = compute_plan(
            now=now, deadline=deadline, remaining_work=work,
            available_energy=energy, scale=scale,
        )
        if oracle.feasible_level is None:
            assert not plan.deadline_reachable
            return
        assert plan.deadline_reachable
        assert oracle.s1 == plan.s1
        assert oracle.s2 == plan.s2

    def test_unreachable_deadline(self):
        oracle = recompute_plan(0.0, 5.0, 10.0, 100.0, xscale_pxa())
        assert oracle.feasible_level is None

    def test_negative_window(self):
        oracle = recompute_plan(10.0, 5.0, 1.0, 100.0, xscale_pxa())
        assert oracle.feasible_level is None

    def test_infinite_energy_collapses_to_now(self):
        oracle = recompute_plan(2.0, 12.0, 4.0, math.inf, xscale_pxa())
        assert oracle.s1 == 2.0
        assert oracle.s2 == 2.0

    def test_scarce_energy_orders_s1_before_s2(self):
        scale = stretch_example_scale()
        oracle = recompute_plan(0.0, 10.0, 2.0, 8.0, scale)
        assert oracle.feasible_level is not None
        assert oracle.feasible_level.speed < 1.0
        assert oracle.s1 <= oracle.s2


class _SabotagedScheduler(EaDvfsScheduler):  # repro-lint: disable=RPR301 -- deliberately malformed test double
    """EA-DVFS that ignores the slow-down plan — the oracle must notice."""

    def decide(self, now, ready, outlook):
        job = ready.peek()
        if job is None:
            return Decision.idle()
        return Decision.run(job, self._scale.max_level)


class TestOracleCheckedScheduler:
    def test_rejects_foreign_schedulers(self):
        from repro.sched.lsa import LazyScheduler

        with pytest.raises(TypeError, match="EaDvfsScheduler"):
            OracleCheckedScheduler(LazyScheduler(xscale_pxa()))

    def test_clean_run_checks_every_decision(self):
        spec = random_scenario(3, allow_faults=False)
        wrapped = OracleCheckedScheduler(EaDvfsScheduler(spec.scale()))
        spec.run(wrapped)
        assert wrapped.checked_decisions > 0

    def test_clean_run_without_slowdown(self):
        spec = random_scenario(5, allow_faults=False)
        wrapped = OracleCheckedScheduler(
            EaDvfsScheduler(spec.scale(), slowdown=False)
        )
        spec.run(wrapped)
        assert wrapped.checked_decisions > 0

    def test_sabotaged_scheduler_is_caught(self):
        """A policy that never slows down must trip the oracle on an
        energy-scarce world."""
        spec = ScenarioSpec(
            seed=0,
            tasks=(TaskParams(period=10.0, wcet=6.0),),
            source_kind="constant",
            capacity=6.0,
            predictor_kind="oracle",
            horizon=200.0,
        )
        wrapped = OracleCheckedScheduler(_SabotagedScheduler(spec.scale()))
        with pytest.raises(OracleViolationError) as excinfo:
            spec.run(wrapped)
        violation = excinfo.value.violation
        assert violation.expected != violation.actual
        assert "oracle" in violation.context


@pytest.mark.differential
class TestDegeneracyOracles:
    """The paper's two equivalence claims, as schedule-identity tests."""

    @pytest.mark.parametrize("seed", range(8))
    def test_infinite_storage_is_plain_edf(self, seed):
        spec = random_scenario(seed).with_infinite_storage()
        result_ea = spec.run("ea-dvfs")
        result_edf = spec.run("edf")
        assert compare_schedules(
            result_ea, result_edf, label_a="ea-dvfs", label_b="edf"
        ) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_slowdown_disabled_is_lsa(self, seed):
        spec = random_scenario(seed)
        result_nosd = spec.run("ea-dvfs-noslowdown")
        result_lsa = spec.run("lsa")
        assert compare_schedules(
            result_nosd, result_lsa,
            label_a="ea-dvfs-noslowdown", label_b="lsa",
        ) == []

    def test_compare_schedules_detects_differences(self):
        """Different schedulers on a scarce world must NOT be identical —
        guards against a vacuously-passing comparator."""
        spec = ScenarioSpec(
            seed=1,
            tasks=(TaskParams(period=10.0, wcet=6.0),),
            source_kind="constant",
            capacity=6.0,
            predictor_kind="oracle",
            horizon=200.0,
        )
        result_ea = spec.run("ea-dvfs")
        result_edf = spec.run("edf")
        assert compare_schedules(result_ea, result_edf) != []


class TestTraceChecks:
    def _clean_run(self, seed=7):
        spec = random_scenario(seed, allow_faults=False)
        return spec, spec.run("ea-dvfs")

    def test_clean_run_passes_all_checks(self):
        spec, result = self._clean_run()
        policy = DeadlineMissPolicy(spec.miss_policy)
        assert check_energy_conservation(result, spec.capacity) == []
        assert check_causality(result, policy) == []
        assert check_accounting(result, policy) == []

    def test_conservation_flags_ledger_drift(self):
        spec, result = self._clean_run()
        problems = check_energy_conservation(
            result, initial_stored=spec.capacity + 25.0
        )
        assert any("ledger" in p for p in problems)

    def test_conservation_skips_ledger_when_lossy(self):
        spec, result = self._clean_run()
        assert check_energy_conservation(
            result, initial_stored=spec.capacity + 25.0, lossless=False
        ) == []
