"""Figures 8 & 9 — deadline miss rate vs. normalized storage capacity.

Protocol (section 5.3): sweep the storage capacity, measure the deadline
miss rate of LSA and EA-DVFS over many task sets, and plot against the
*normalized* capacity (capacity divided by the largest swept value).

The interesting (energy-starved) absolute capacity range depends on the
utilization — misses vanish once the storage can bridge the harvest
troughs of the eq. (13) envelope — so each figure sweeps fractions of a
utilization-specific reference capacity ``c_ref`` chosen to span the full
miss-rate decline (see EXPERIMENTS.md).  Figure 8 (U=0.4): EA-DVFS cuts
the miss rate by at least ~50%.  Figure 9 (U=0.8): the curves close up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.metrics import AggregateMetrics, aggregate_results
from repro.experiments.common import PaperSetup, replications, workers
from repro.plotting import ascii_plot
from repro.sim.simulator import SimulationResult

__all__ = [
    "CapacitySweepPoint",
    "DEFAULT_FRACTIONS",
    "MissRateResult",
    "ReplicatedRun",
    "run_fig8",
    "run_fig9",
    "run_miss_rate_sweep",
]

#: Normalized-capacity grid of the reproduced figures.
DEFAULT_FRACTIONS: tuple[float, ...] = (
    0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0,
)

#: Reference capacities spanning the miss-rate decline (measured for the
#: default setup; see EXPERIMENTS.md).
REFERENCE_CAPACITY = {0.4: 250.0, 0.8: 1000.0}

_SCHEDULERS = ("lsa", "ea-dvfs")


@dataclass(frozen=True)
class ReplicatedRun:
    """All replications of one (scheduler, capacity) cell."""

    scheduler_name: str
    capacity: float
    results: tuple[SimulationResult, ...]
    metrics: AggregateMetrics


@dataclass(frozen=True)
class CapacitySweepPoint:
    """One x-axis point of a miss-rate-vs-capacity curve."""

    capacity: float
    by_scheduler: dict[str, ReplicatedRun]

    def miss_rate(self, scheduler_name: str) -> float:
        """Pooled miss rate of one scheduler at this capacity."""
        return self.by_scheduler[scheduler_name].metrics.pooled_miss_rate


@dataclass(frozen=True)
class MissRateResult:
    """Miss-rate-vs-capacity curves for LSA and EA-DVFS."""

    figure: str
    utilization: float
    reference_capacity: float
    points: tuple[CapacitySweepPoint, ...]
    n_sets: int

    @property
    def fractions(self) -> np.ndarray:
        return np.asarray(
            [p.capacity / self.reference_capacity for p in self.points]
        )

    def curve(self, scheduler_name: str) -> np.ndarray:
        return np.asarray([p.miss_rate(scheduler_name) for p in self.points])

    @property
    def mean_reduction(self) -> float:
        """Average relative miss-rate reduction of EA-DVFS vs LSA.

        Computed over capacities where LSA actually misses; the paper
        reports "over 50% on average" at U=0.4.
        """
        lsa = self.curve("lsa")
        ea = self.curve("ea-dvfs")
        mask = lsa > 0
        if not mask.any():
            return 0.0
        return float(np.mean(1.0 - ea[mask] / lsa[mask]))

    def format_text(self) -> str:
        chart = ascii_plot(
            {name: (self.fractions, self.curve(name)) for name in _SCHEDULERS},
            title=(
                f"{self.figure}: deadline miss rate (U={self.utilization}, "
                f"{self.n_sets} task sets/point)"
            ),
            xlabel=f"normalized storage capacity (c_ref={self.reference_capacity:g})",
            ylabel="miss",
            y_min=0.0,
        )
        rows = ["frac  capacity   lsa      ea-dvfs  reduction"]
        for point in self.points:
            lsa = point.miss_rate("lsa")
            ea = point.miss_rate("ea-dvfs")
            red = (1.0 - ea / lsa) if lsa > 0 else float("nan")
            rows.append(
                f"{point.capacity / self.reference_capacity:4.2f}  "
                f"{point.capacity:8.1f}  {lsa:7.4f}  {ea:7.4f}  {red:8.2%}"
            )
        rows.append(f"mean miss-rate reduction (where LSA misses): "
                    f"{self.mean_reduction:.1%}")
        return chart + "\n" + "\n".join(rows)


def run_miss_rate_sweep(
    utilization: float,
    figure: str,
    setup: PaperSetup | None = None,
    reference_capacity: float | None = None,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    n_sets: int | None = None,
    engine: str | None = None,
) -> MissRateResult:
    """Sweep capacity fractions and measure pooled miss rates.

    ``engine`` selects the execution engine (``"scalar"`` or
    ``"batch"``); ``None`` reads ``$REPRO_ENGINE`` and defaults to
    ``"batch"`` — the vectorized engine covers every predictor kind, so
    the flagship figures take the fast path end-to-end (set
    ``REPRO_ENGINE=scalar`` to force the scalar event loop).  Either
    way the grid is one supervised sweep: it checkpoints through
    ``$REPRO_JOURNAL`` when set and runs scalar cells on
    ``$REPRO_WORKERS`` processes.
    """
    from repro.analysis.parallel import RunSpec
    from repro.runtime.sweep import engine_from_env, run_journaled_sweep

    setup = setup or PaperSetup()
    if reference_capacity is None:
        try:
            reference_capacity = REFERENCE_CAPACITY[utilization]
        except KeyError:
            raise ValueError(
                f"no reference capacity calibrated for U={utilization!r}; "
                "pass reference_capacity explicitly"
            ) from None
    if n_sets is None:
        n_sets = replications(6)
    capacities = [f * reference_capacity for f in fractions]
    # Capacity-major, then scheduler, then seed: every scheduler at one
    # capacity sees the same seeds (paired comparison).
    specs = [
        RunSpec(name, utilization, capacity, seed, setup=setup)
        for capacity in capacities
        for name in _SCHEDULERS
        for seed in range(n_sets)
    ]
    results = iter(
        run_journaled_sweep(
            specs,
            max_workers=workers(),
            engine=engine or engine_from_env(default="batch"),
        ).complete_results()
    )
    points = []
    for capacity in capacities:
        runs = {}
        for name in _SCHEDULERS:
            chunk = tuple(next(results) for _ in range(n_sets))
            runs[name] = ReplicatedRun(
                name, capacity, chunk, aggregate_results(chunk)
            )
        points.append(CapacitySweepPoint(capacity, runs))
    return MissRateResult(
        figure=figure,
        utilization=utilization,
        reference_capacity=reference_capacity,
        points=tuple(points),
        n_sets=n_sets,
    )


def run_fig8(**kwargs) -> MissRateResult:
    """Figure 8: U = 0.4 — EA-DVFS at least halves the miss rate."""
    return run_miss_rate_sweep(utilization=0.4, figure="Figure 8", **kwargs)


def run_fig9(**kwargs) -> MissRateResult:
    """Figure 9: U = 0.8 — EA-DVFS performs close to LSA."""
    return run_miss_rate_sweep(utilization=0.8, figure="Figure 9", **kwargs)
