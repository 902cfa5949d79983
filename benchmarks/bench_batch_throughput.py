"""Batch-engine throughput on figure-8-style capacity sweeps.

Measures the vectorized SoA core (``repro.sim.batch``) against the
scalar event simulator on the workload it was built for: the figure 8
miss-rate grid (U=0.4, 9 capacity fractions x 2 schedulers x many
seeds), once per predictor kind:

* ``oracle`` — the closed-form source integral; results in
  ``benchmarks/results/batch_throughput.{json,txt}``.
* ``profile`` — the default predictor behind the flagship figures, with
  the bin walks and EWMA updates inside the SoA core; results in
  ``benchmarks/results/profile_throughput.{json,txt}``.  The assert that
  it never falls back pins that the default path runs fully vectorized.

Two speedups are computed per kind:

* ``speedup_vs_live`` — live scalar cost (measured on a stratified
  subsample, extrapolated to the full grid) over live batch cost.  Both
  sides run on the same machine in the same process, so machine speed
  cancels; this is the primary regression assert.
* ``speedup_vs_committed`` — committed scalar estimate (from the
  kind's baseline JSON as of the previous commit) over live batch cost.
  Loose guard only: it trips on order-of-magnitude engine regressions
  without being sensitive to CI hardware.

The refreshed baseline is written back to the kind's JSON; the
committed copy records the speedup measured at commit time.
"""

import json
import time
from pathlib import Path

import pytest

from repro.analysis.parallel import RunSpec
from repro.experiments.common import PaperSetup
from repro.experiments.fig8_fig9 import DEFAULT_FRACTIONS, REFERENCE_CAPACITY
from repro.serialization import atomic_write_text
from repro.sim.batch import execute_runspecs
from repro.sim.simulator import SimulationResult

RESULTS_DIR = Path(__file__).parent / "results"

#: Result name (``results/<name>.json`` and ``.txt``) per predictor kind.
RESULT_NAMES = {"oracle": "batch_throughput", "profile": "profile_throughput"}

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


@pytest.mark.parametrize("predictor", sorted(RESULT_NAMES))
def test_batch_throughput(report, predictor):
    name = RESULT_NAMES[predictor]
    baseline_path = RESULTS_DIR / f"{name}.json"
    specs = _grid(predictor)
    n_cells = len(specs)

    # -- live batch: the whole grid through the SoA core -----------------
    started = time.perf_counter()
    batch_outcomes, fallback_reasons = execute_runspecs(specs, slim=True)
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
    scalar_per_cell = scalar_sample_total / len(sample)
    scalar_est_total = scalar_per_cell * n_cells

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

    committed_scalar_est = None
    speedup_vs_committed = None
    if baseline_path.exists():
        committed = json.loads(baseline_path.read_text())
        if committed.get("cells") == n_cells:
            committed_scalar_est = committed.get("scalar_est_total_s")
    if committed_scalar_est is not None:
        speedup_vs_committed = committed_scalar_est / batch_total

    baseline = {
        "cells": n_cells,
        "horizon": 2000.0,
        "utilization": _UTILIZATION,
        "predictor": predictor,
        "batch_total_s": round(batch_total, 3),
        "batch_per_cell_ms": round(batch_total / n_cells * 1e3, 3),
        "batch_fallbacks": fallbacks,
        "scalar_sample_cells": len(sample),
        "scalar_per_cell_ms": round(scalar_per_cell * 1e3, 3),
        "scalar_est_total_s": round(scalar_est_total, 3),
        "speedup_vs_live": round(speedup_vs_live, 2),
    }
    if speedup_vs_committed is not None:
        baseline["speedup_vs_committed"] = round(speedup_vs_committed, 2)
    RESULTS_DIR.mkdir(exist_ok=True)
    atomic_write_text(
        baseline_path,
        json.dumps(baseline, indent=2, sort_keys=True) + "\n",
    )

    lines = [
        f"{predictor}-predictor batch throughput ({n_cells} fig8-style "
        f"cells, horizon 2000)"
    ]
    for key, value in sorted(baseline.items()):
        lines.append(f"  {key:24} {value}")
    report(name, "\n".join(lines))

    # The oracle core was accepted at >=10x on this grid and the profile
    # predictors at >=5x (their bin walk costs more than the closed-form
    # source integral); assert the lower bar for both so shared-CI noise
    # cannot flake the gate while order-of-magnitude regressions trip it.
    assert speedup_vs_live >= 5.0, (
        f"{predictor} batch speedup collapsed: {speedup_vs_live:.1f}x vs "
        f"live scalar"
    )
    if speedup_vs_committed is not None:
        assert speedup_vs_committed >= 3.0, (
            f"batch engine slower than 1/3 of the committed scalar "
            f"estimate: {speedup_vs_committed:.1f}x"
        )
