"""Metric extraction and aggregation over simulation results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.stats import SummaryStats, summarize
from repro.sim.simulator import SimulationResult
from repro.sim.tracing import TraceKind

__all__ = [
    "AggregateMetrics",
    "aggregate_results",
    "energy_series",
    "miss_rate_by_task",
    "pooled_miss_rate",
]


@dataclass(frozen=True)
class AggregateMetrics:
    """Metrics pooled over several runs of the same configuration."""

    scheduler_name: str
    n_runs: int
    miss_rate: SummaryStats
    final_fraction: SummaryStats
    overflow_energy: SummaryStats
    stall_count: SummaryStats
    #: Pooled miss rate: total misses / total judged jobs (weights runs by
    #: their job counts, unlike the per-run mean in ``miss_rate``).
    pooled_miss_rate: float

    def __str__(self) -> str:
        return (
            f"{self.scheduler_name}: miss_rate {self.miss_rate} "
            f"(pooled {self.pooled_miss_rate:.4f}) over {self.n_runs} runs"
        )


def pooled_miss_rate(results: Sequence[SimulationResult]) -> float:
    """Total misses over total judged jobs (0.0 when nothing was judged)."""
    total_missed = sum(r.missed_count for r in results)
    total_judged = sum(r.judged_count for r in results)
    return total_missed / total_judged if total_judged else 0.0


def aggregate_results(results: Sequence[SimulationResult]) -> AggregateMetrics:
    """Pool runs of one scheduler configuration into summary statistics."""
    if not results:
        raise ValueError("no results to aggregate")
    names = {r.scheduler_name for r in results}
    if len(names) != 1:
        raise ValueError(f"mixed schedulers in one aggregate: {sorted(names)}")
    fractions = [r.final_fraction for r in results]
    finite_fractions = [f for f in fractions if not np.isnan(f)] or [0.0]
    return AggregateMetrics(
        scheduler_name=results[0].scheduler_name,
        n_runs=len(results),
        miss_rate=summarize([r.miss_rate for r in results]),
        final_fraction=summarize(finite_fractions),
        overflow_energy=summarize([r.overflow_energy for r in results]),
        stall_count=summarize([float(r.stall_count) for r in results]),
        pooled_miss_rate=pooled_miss_rate(results),
    )


def energy_series(
    result: SimulationResult,
    field: str = "fraction",
) -> tuple[np.ndarray, np.ndarray]:
    """The recorded stored-energy time series of one run.

    Requires the run to have been traced with
    ``trace_kinds=(TraceKind.ENERGY, ...)`` and an
    ``energy_sample_interval``; raises otherwise rather than returning an
    empty series silently.
    """
    times, values = result.trace.series(TraceKind.ENERGY, field)
    if times.size == 0:
        raise ValueError(
            "run has no energy trace; enable TraceKind.ENERGY and set "
            "energy_sample_interval in SimulationConfig"
        )
    return times, values


def miss_rate_by_task(result: SimulationResult) -> dict[str, float]:
    """Per-task miss rate of one run (released tasks only)."""
    rates: dict[str, float] = {}
    for name, released in result.per_task_released.items():
        missed = result.per_task_missed.get(name, 0)
        rates[name] = missed / released if released else 0.0
    return rates
