"""Seeded scenario generation and its builders."""

import math

import pytest

from repro.faults import OverrunWorkload
from repro.sim.simulator import SimulationResult
from repro.verify.scenarios import (
    FaultPlan,
    ScenarioSpec,
    TaskParams,
    random_scenario,
)


class TestRandomScenario:
    def test_deterministic_per_seed(self):
        assert random_scenario(17) == random_scenario(17)
        assert random_scenario(17) != random_scenario(18)

    def test_no_faults_flag(self):
        for seed in range(30):
            spec = random_scenario(seed, allow_faults=False)
            assert not spec.faults.any_active

    def test_fault_mix_is_nontrivial(self):
        specs = [random_scenario(seed) for seed in range(60)]
        faulted = sum(1 for spec in specs if spec.faults.any_active)
        assert 0 < faulted < len(specs)

    def test_utilization_within_bounds(self):
        for seed in range(40):
            spec = random_scenario(seed)
            assert spec.total_utilization <= 1.0 + 1e-9


class TestScenarioSpecValidation:
    def test_requires_tasks(self):
        with pytest.raises(ValueError, match="at least one task"):
            ScenarioSpec(seed=0, tasks=())

    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError, match="unknown source kind"):
            ScenarioSpec(
                seed=0, tasks=(TaskParams(10.0, 1.0),), source_kind="wind"
            )

    def test_rejects_unknown_fault(self):
        with pytest.raises(ValueError, match="unknown source fault"):
            FaultPlan(source_fault="meteor")

    def test_rejects_spikes_on_infinite_storage(self):
        with pytest.raises(ValueError, match="finite capacity"):
            ScenarioSpec(
                seed=0,
                tasks=(TaskParams(10.0, 1.0),),
                capacity=math.inf,
                faults=FaultPlan(storage_spikes=True),
            )


class TestBuilders:
    def test_builders_return_fresh_objects(self):
        spec = random_scenario(4)
        assert spec.build_source() is not spec.build_source()
        assert spec.build_storage() is not spec.build_storage()

    def test_overrun_wraps_taskset(self):
        spec = ScenarioSpec(
            seed=0,
            tasks=(TaskParams(10.0, 1.0),),
            faults=FaultPlan(overrun=True),
        )
        assert isinstance(spec.build_taskset(), OverrunWorkload)

    def test_run_round_trip(self):
        spec = random_scenario(2, allow_faults=False)
        result = spec.run("edf")
        assert isinstance(result, SimulationResult)
        assert result.horizon == spec.horizon

    def test_identical_worlds_for_identical_specs(self):
        spec = random_scenario(9)
        a = spec.run("lsa")
        b = spec.run("lsa")
        assert a.missed_count == b.missed_count
        assert a.drawn_energy == b.drawn_energy
        assert a.final_stored == b.final_stored


class TestDerivedScenarios:
    def test_with_infinite_storage(self):
        spec = random_scenario(11)
        derived = spec.with_infinite_storage()
        assert math.isinf(derived.capacity)
        assert not derived.faults.storage_spikes
        assert derived.tasks == spec.tasks

    def test_without_faults(self):
        spec = random_scenario(26)  # known to carry a fault plan
        assert not spec.without_faults().faults.any_active

    def test_describe_mentions_faults(self):
        spec = ScenarioSpec(
            seed=0,
            tasks=(TaskParams(10.0, 1.0),),
            faults=FaultPlan(source_fault="blackout", overrun=True),
        )
        text = spec.describe()
        assert "blackout" in text and "overrun" in text
        assert "seed=0" in text
