"""Analysis utilities: metrics aggregation, statistics, capacity search,
and (crash-tolerant) parallel sweep execution."""

from repro.analysis.capacity import CapacitySearchResult, find_min_capacity
from repro.analysis.metrics import (
    AggregateMetrics,
    aggregate_results,
    energy_series,
    miss_rate_by_task,
)
from repro.analysis.schedulability import (
    EnergyFeasibility,
    demand_bound,
    edf_schedulable,
    energy_feasibility,
    full_speed_energy_demand_rate,
    max_energy_deficit,
    min_energy_demand_rate,
)
from repro.analysis.parallel import (
    RunFailure,
    RunSpec,
    run_parallel_salvage,
)
from repro.analysis.stats import (
    SummaryStats,
    bootstrap_ci,
    mean_confidence_interval,
    summarize,
)
from repro.analysis.sweep import (
    CapacitySweepPoint,
    ReplicatedRun,
    run_capacity_sweep,
    run_replications,
)

__all__ = [
    "AggregateMetrics",
    "CapacitySearchResult",
    "CapacitySweepPoint",
    "EnergyFeasibility",
    "ReplicatedRun",
    "RunFailure",
    "RunSpec",
    "SummaryStats",
    "aggregate_results",
    "bootstrap_ci",
    "demand_bound",
    "edf_schedulable",
    "energy_feasibility",
    "energy_series",
    "find_min_capacity",
    "full_speed_energy_demand_rate",
    "max_energy_deficit",
    "mean_confidence_interval",
    "min_energy_demand_rate",
    "miss_rate_by_task",
    "run_capacity_sweep",
    "run_parallel_salvage",
    "run_replications",
    "summarize",
]
