"""Batch-engine throughput gate on figure-8-style capacity sweeps.

Runs the vectorized SoA core (``repro.sim.batch``) against the scalar
event simulator on the workload it was built for: the figure 8
miss-rate grid (U=0.4, 9 capacity fractions x 2 schedulers x many
seeds), once per predictor kind:

* ``oracle`` — the closed-form source integral;
* ``profile`` — the default predictor behind the flagship figures, with
  the bin walks and EWMA updates inside the SoA core.  The assert that
  it never falls back pins that the default path runs fully vectorized.

The gate is ``speedup_vs_live``: live scalar cost (measured on a
stratified subsample, extrapolated to the full grid) over live batch
cost.  Both sides run on the same machine in the same process, so
machine speed cancels.  Nothing is recorded: slowdowns between commits
are measured by sweepbench (``BENCHMARK.json``), which scales to the
host's speed.
"""

import time

import pytest

from repro.analysis.parallel import RunSpec
from repro.experiments.common import PaperSetup
from repro.experiments.fig8_fig9 import DEFAULT_FRACTIONS, REFERENCE_CAPACITY
from repro.sim.batch import execute_runspecs
from repro.sim.simulator import SimulationResult

#: Seeds per (capacity, scheduler) cell.  48 puts the grid at 864 lanes
#: — wide enough to amortize the core's per-pass dispatch (the speedup
#: asymptote is reached around here), small enough for a ~15s bench.
N_SEEDS = 48

#: Every ``STRIDE``-th cell runs on the scalar engine to estimate the
#: full-grid scalar cost without paying for it (the full scalar grid
#: takes over a minute).  The spec order is capacity-major, so a stride
#: of 18 samples every capacity and both schedulers.
STRIDE = 18

_SCHEDULERS = ("lsa", "ea-dvfs")
_UTILIZATION = 0.4


def _grid(predictor: str) -> list[RunSpec]:
    setup = PaperSetup(horizon=2000.0, predictor_kind=predictor)
    reference = REFERENCE_CAPACITY[_UTILIZATION]
    return [
        RunSpec(
            scheduler_name=name,
            utilization=_UTILIZATION,
            capacity=fraction * reference,
            seed=seed,
            setup=setup,
        )
        for fraction in DEFAULT_FRACTIONS
        for name in _SCHEDULERS
        for seed in range(N_SEEDS)
    ]


@pytest.mark.parametrize("predictor", ["oracle", "profile"])
def test_batch_throughput(predictor):
    specs = _grid(predictor)
    n_cells = len(specs)

    # -- live batch: the whole grid through the SoA core -----------------
    started = time.perf_counter()
    batch_outcomes, fallback_reasons = execute_runspecs(specs)
    batch_total = time.perf_counter() - started
    fallbacks = sum(fallback_reasons.values())
    assert fallbacks == 0, (
        f"{predictor} grid cells fell back to scalar: {fallback_reasons!r}"
    )
    assert all(
        isinstance(outcome, SimulationResult) for outcome in batch_outcomes
    )

    # -- live scalar: stratified subsample, extrapolated -----------------
    sample = list(range(0, n_cells, STRIDE))
    started = time.perf_counter()
    scalar_outcomes = []
    for i in sample:
        spec = specs[i]
        scalar_outcomes.append(spec.setup.run(
            spec.scheduler_name, spec.utilization, spec.capacity, spec.seed
        ))
    scalar_sample_total = time.perf_counter() - started
    scalar_est_total = scalar_sample_total / len(sample) * n_cells

    # The engines must agree on the measured quantity (a cheap inline
    # sanity check; the real contract lives in the equivalence suite).
    for i, scalar_result in zip(sample, scalar_outcomes):
        batch_result = batch_outcomes[i]
        assert isinstance(batch_result, SimulationResult)
        assert batch_result.missed_count == scalar_result.missed_count, (
            f"engines disagree on cell {i}: batch "
            f"{batch_result.missed_count} vs scalar "
            f"{scalar_result.missed_count} misses"
        )

    speedup_vs_live = scalar_est_total / batch_total

    # The oracle core was accepted at >=10x on this grid and the profile
    # predictors at >=5x (their bin walk costs more than the closed-form
    # source integral); assert the lower bar for both so shared-CI noise
    # cannot flake the gate while order-of-magnitude regressions trip it.
    assert speedup_vs_live >= 5.0, (
        f"{predictor} batch speedup collapsed: {speedup_vs_live:.1f}x vs "
        f"live scalar"
    )
