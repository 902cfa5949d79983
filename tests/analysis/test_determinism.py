"""Seed determinism across every sweep execution path.

The paired-comparison methodology of the experiments (and the verify
tier's golden fixtures) rests on one property: the same
:class:`~repro.analysis.parallel.RunSpec` produces byte-identical
result payloads no matter *how* it is executed — directly through
``PaperSetup.run``, serially in-process or on the worker pool of
:func:`run_parallel_salvage`, or through the supervised sweep on either
engine.
"""

import dataclasses

import pytest

from repro.analysis.parallel import RunSpec, run_parallel_salvage
from repro.runtime import run_supervised
from repro.experiments.common import PaperSetup
from repro.runtime.journal import result_to_payload

_SETUP = PaperSetup(horizon=300.0)

_SPECS = tuple(
    RunSpec(
        scheduler_name=scheduler,
        utilization=0.4,
        capacity=120.0,
        seed=seed,
        setup=_SETUP,
    )
    for scheduler in ("ea-dvfs", "lsa")
    for seed in (0, 1)
)


def _fingerprints(results):
    """Exact fingerprints: every field of every (slim) result, compared
    with ``==`` at full float precision."""
    return [result_to_payload(result) for result in results]


def _direct(spec):
    return _SETUP.run(
        scheduler_name=spec.scheduler_name,
        utilization=spec.utilization,
        capacity=spec.capacity,
        seed=spec.seed,
    )


class TestSeedDeterminism:
    def test_serial_path_is_repeatable(self):
        first = _fingerprints(run_parallel_salvage(_SPECS, max_workers=1))
        second = _fingerprints(run_parallel_salvage(_SPECS, max_workers=1))
        assert first == second

    @pytest.mark.slow
    def test_pool_matches_serial(self):
        serial = _fingerprints(run_parallel_salvage(_SPECS, max_workers=1))
        pooled = _fingerprints(run_parallel_salvage(_SPECS, max_workers=2))
        assert pooled == serial

    def test_salvage_serial_matches_plain(self):
        plain = _fingerprints(
            dataclasses.replace(_direct(spec), jobs=()) for spec in _SPECS
        )
        salvaged = run_parallel_salvage(_SPECS, max_workers=1)
        assert all(hasattr(r, "scheduler_name") for r in salvaged)
        assert _fingerprints(salvaged) == plain

    @pytest.mark.slow
    def test_salvage_pool_matches_serial(self):
        serial = _fingerprints(run_parallel_salvage(_SPECS, max_workers=1))
        salvaged = run_parallel_salvage(_SPECS, max_workers=2, retries=1)
        assert _fingerprints(salvaged) == serial

    def test_distinct_seeds_differ(self):
        """Guards against a fingerprint that ignores the payload."""
        prints = _fingerprints(run_parallel_salvage(_SPECS, max_workers=1))
        assert all(
            prints[i] != prints[j]
            for i in range(len(prints)) for j in range(i)
        )

    def test_direct_setup_run_matches_runspec_path(self):
        spec = _SPECS[0]
        direct = dataclasses.replace(_direct(spec), jobs=())
        for engine in ("scalar", "batch"):
            (via_sweep,) = run_supervised([spec], engine=engine).outcomes
            assert result_to_payload(via_sweep) == result_to_payload(direct)
