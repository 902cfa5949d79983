"""Tests for the sweep entry points: the salvage runner and the
supervised capacity-sweep / miss-rate helpers built on it."""

import dataclasses

import pytest

from repro.analysis.parallel import RunSpec, run_parallel_salvage
from repro.experiments.common import PaperSetup
from repro.runtime.sweep import journaled_capacity_sweep, journaled_miss_rates
from repro.serialization import canonical_json, result_to_dict
from repro.timeutils import time_eq

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


class TestParallelCapacitySweep:
    def test_matches_serial_sweep(self):
        from repro.analysis.sweep import run_capacity_sweep

        serial = run_capacity_sweep(
            FAST_SETUP.factory(0.4),
            scheduler_names=("lsa", "ea-dvfs"),
            capacities=(20.0, 80.0),
            seeds=range(2),
        )
        parallel = journaled_capacity_sweep(
            scheduler_names=("lsa", "ea-dvfs"),
            utilization=0.4,
            capacities=(20.0, 80.0),
            seeds=range(2),
            setup=FAST_SETUP,
            max_workers=2,
        )
        assert len(parallel) == len(serial)
        for p, s in zip(parallel, serial):
            assert time_eq(p.capacity, s.capacity)
            for name in ("lsa", "ea-dvfs"):
                assert p.miss_rate(name) == pytest.approx(s.miss_rate(name))


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
        rates = journaled_miss_rates(
            scheduler_names=("lsa", "ea-dvfs"),
            utilization=0.4,
            capacity=30.0,
            seeds=range(2),
            setup=FAST_SETUP,
            max_workers=2,
        )
        assert set(rates) == {"lsa", "ea-dvfs"}
        assert all(0.0 <= r <= 1.0 for r in rates.values())

    def test_matches_serial_pooling(self):
        kwargs = dict(
            scheduler_names=("lsa",),
            utilization=0.4,
            capacity=30.0,
            seeds=range(2),
            setup=FAST_SETUP,
        )
        serial = journaled_miss_rates(max_workers=1, **kwargs)
        parallel = journaled_miss_rates(max_workers=2, **kwargs)
        assert parallel == serial
