"""The shared Hypothesis strategy library."""

import pytest
from hypothesis import given, settings

from repro.sched.registry import available_schedulers
from repro.verify.strategies import (
    FUZZED_SCHEDULERS,
    scenario_specs,
    scheduler_names,
    seeds,
    storage_programs,
    task_counts,
    task_params_lists,
    utilizations,
)


class TestScalarStrategies:
    @given(seed=seeds(50), n=task_counts(6), u=utilizations())
    @settings(max_examples=25, deadline=None)
    def test_scalar_ranges(self, seed, n, u):
        assert 0 <= seed <= 50
        assert 1 <= n <= 6
        assert 0.05 <= u <= 1.0

    @given(name=scheduler_names())
    @settings(max_examples=10, deadline=None)
    def test_scheduler_names_are_registered(self, name):
        assert name in available_schedulers()

    def test_fuzzed_schedulers_are_registered(self):
        assert set(FUZZED_SCHEDULERS) <= set(available_schedulers())


class TestStoragePrograms:
    @given(program=storage_programs())
    @settings(max_examples=30, deadline=None)
    def test_program_shape(self, program):
        capacity, initial, segments = program
        assert 10.0 <= capacity <= 1000.0
        assert 0.0 <= initial <= capacity
        assert 1 <= len(segments) <= 20
        for duration, harvest, draw in segments:
            assert duration >= 0.0
            assert harvest >= 0.0
            assert draw >= 0.0


class TestScenarioSpecs:
    @given(spec=scenario_specs())
    @settings(max_examples=30, deadline=None)
    def test_specs_are_valid_and_buildable(self, spec):
        # Construction already validated the spec; the builders must not
        # reject what the strategy produced.
        assert spec.total_utilization <= 1.0 + 1e-9
        spec.build_taskset()
        spec.build_storage()
        source = spec.build_source()
        spec.build_predictor(source)

    @given(spec=scenario_specs(allow_faults=False))
    @settings(max_examples=20, deadline=None)
    def test_no_faults_variant(self, spec):
        assert not spec.faults.any_active

    @pytest.mark.differential
    @given(spec=scenario_specs(allow_faults=False))
    @settings(max_examples=10, deadline=None)
    def test_specs_simulate(self, spec):
        result = spec.run("ea-dvfs")
        assert result.horizon == spec.horizon

    @given(tasks=task_params_lists())
    @settings(max_examples=25, deadline=None)
    def test_task_params_schedulable(self, tasks):
        assert sum(p.wcet / p.period for p in tasks) <= 1.0 + 1e-9
