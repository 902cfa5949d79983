"""Tests for the resilience experiment."""

import math

import pytest

from repro.experiments.common import PaperSetup
from repro.experiments.resilience import (
    SCENARIOS,
    ResilienceResult,
    ResilienceSetup,
    run_resilience,
)

FAST = dict(setup=PaperSetup(horizon=600.0), n_sets=1, retries=0)


class TestDeterminism:
    def test_bit_for_bit_reproducible(self):
        # The acceptance criterion: two runs with the same fixed seeds
        # produce identical results, faults and all.
        a = run_resilience(**FAST)
        b = run_resilience(**FAST)
        assert a == b
        assert a.miss_rates == b.miss_rates


class TestStructure:
    def test_grid_is_complete(self):
        result = run_resilience(**FAST)
        assert result.scenarios == SCENARIOS
        assert result.scheduler_names == ("edf", "lsa", "ea-dvfs")
        assert set(result.miss_rates) == {
            (scenario, name)
            for scenario in SCENARIOS
            for name in ("edf", "lsa", "ea-dvfs")
        }
        for miss_rate in result.miss_rates.values():
            assert math.isnan(miss_rate) or 0.0 <= miss_rate <= 1.0
        assert result.failures == ()

    def test_format_text(self):
        result = run_resilience(**FAST)
        text = result.format_text()
        assert "Miss rates under injected faults" in text
        for scenario in SCENARIOS:
            assert scenario in text

    def test_scenario_subset(self):
        result = run_resilience(scenarios=("baseline",), **FAST)
        assert result.scenarios == ("baseline",)
        assert len(result.miss_rates) == 3

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_resilience(scenarios=("baseline", "asteroid"), **FAST)


class TestResilienceSetup:
    def test_fault_flags_change_the_world(self):
        base = ResilienceSetup(horizon=600.0)
        faulted = ResilienceSetup(horizon=600.0, blackout=True, overrun=True)
        clean = base.run("edf", 0.6, 150.0, seed=0)
        stressed = faulted.run("edf", 0.6, 150.0, seed=0)
        # Same seed, same workload sizing — only the faults differ, and
        # they must actually perturb the outcome.
        assert clean.released_count == stressed.released_count
        assert clean.drawn_energy != pytest.approx(stressed.drawn_energy)

    def test_runs_are_watchdogged_by_default(self):
        assert ResilienceSetup().watchdog is True

    def test_failure_record_is_exposed(self):
        # Covered in depth by tests/analysis/test_parallel_salvage.py; the
        # experiment-level contract is just the result field's type.
        assert ResilienceResult(
            utilization=0.6, capacity=150.0, n_sets=0,
            scenarios=("baseline",), scheduler_names=("edf",),
            miss_rates={("baseline", "edf"): math.nan},
        ).failures == ()
