"""Tests for the sweep entry points: the salvage runner and the
supervised sweep built on it, against direct ``setup.run`` loops."""

import dataclasses

import pytest

from repro.analysis.metrics import pooled_miss_rate
from repro.analysis.parallel import RunSpec, run_parallel_salvage
from repro.experiments.common import PaperSetup
from repro.runtime.journal import result_to_payload
from repro.runtime.sweep import run_journaled_sweep
from repro.serialization import canonical_json, result_to_dict

FAST_SETUP = PaperSetup(horizon=400.0)


@pytest.fixture(autouse=True)
def _no_env_journal(monkeypatch):
    monkeypatch.delenv("REPRO_JOURNAL", raising=False)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


class TestRunParallel:
    def test_empty(self):
        assert run_parallel_salvage([]) == []

    def test_single_spec_runs_inline(self, pool_spy):
        spec = RunSpec("edf", 0.4, 50.0, 0, setup=FAST_SETUP)
        (result,) = run_parallel_salvage([spec], max_workers=2)
        assert result.scheduler_name == "edf"
        assert result.released_count > 0
        assert pool_spy == []

    def test_order_preserved(self):
        specs = [
            RunSpec("edf", 0.4, 50.0, 0, setup=FAST_SETUP),
            RunSpec("lsa", 0.4, 50.0, 0, setup=FAST_SETUP),
            RunSpec("ea-dvfs", 0.4, 50.0, 0, setup=FAST_SETUP),
        ]
        results = run_parallel_salvage(specs, max_workers=2)
        assert [r.scheduler_name for r in results] == ["edf", "lsa", "ea-dvfs"]

    def test_matches_serial_execution(self):
        spec = RunSpec("lsa", 0.4, 60.0, 3, setup=FAST_SETUP)
        serial = run_parallel_salvage([spec], max_workers=1)[0]
        parallel = run_parallel_salvage([spec, spec], max_workers=2)[0]
        assert parallel.missed_count == serial.missed_count
        assert parallel.drawn_energy == pytest.approx(serial.drawn_energy)

    def test_slim_strips_jobs(self):
        spec = RunSpec("edf", 0.4, 50.0, 0, setup=FAST_SETUP)
        (slim,) = run_parallel_salvage([spec])
        direct = FAST_SETUP.run("edf", 0.4, 50.0, 0)
        assert len(direct.jobs) == direct.released_count > 0
        assert slim.jobs == ()
        # Counters and energies survive slimming unchanged.
        assert canonical_json(result_to_dict(slim)) == canonical_json(
            result_to_dict(dataclasses.replace(direct, jobs=()))
        )


def grid(names, capacities, seeds=range(2)):
    return [
        RunSpec(name, 0.4, capacity, seed, setup=FAST_SETUP)
        for capacity in capacities
        for name in names
        for seed in seeds
    ]


def miss_rates(names, capacity, max_workers):
    """Pooled miss rate per scheduler of one supervised sweep."""
    results = run_journaled_sweep(
        grid(names, (capacity,)), max_workers=max_workers
    ).complete_results()
    return {
        name: pooled_miss_rate(results[2 * k:2 * k + 2])
        for k, name in enumerate(names)
    }


class TestParallelCapacitySweep:
    def test_matches_serial_sweep(self):
        specs = grid(("lsa", "ea-dvfs"), (20.0, 80.0))
        parallel = run_journaled_sweep(specs, max_workers=2).complete_results()
        serial = [
            FAST_SETUP.run(s.scheduler_name, 0.4, s.capacity, s.seed)
            for s in specs
        ]
        assert [result_to_payload(r) for r in parallel] == [
            result_to_payload(r) for r in serial
        ]


class TestWorkersEnv:
    def test_default_is_one(self, monkeypatch):
        from repro.experiments.common import workers

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert workers() == 1

    def test_parsing(self, monkeypatch):
        from repro.experiments.common import workers

        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert workers() == 4
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ValueError, match="integer"):
            workers()
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            workers()


class TestParallelMissRates:
    def test_rates_per_scheduler(self):
        rates = miss_rates(("lsa", "ea-dvfs"), 30.0, max_workers=2)
        assert set(rates) == {"lsa", "ea-dvfs"}
        assert all(0.0 <= r <= 1.0 for r in rates.values())

    def test_matches_serial_pooling(self):
        serial = miss_rates(("lsa",), 30.0, max_workers=1)
        parallel = miss_rates(("lsa",), 30.0, max_workers=2)
        assert parallel == serial
        direct = [FAST_SETUP.run("lsa", 0.4, 30.0, s) for s in range(2)]
        assert serial == {"lsa": pooled_miss_rate(direct)}
