"""Offline schedulability and energy-feasibility analysis.

The paper's online algorithms assume the *timing* side is feasible
(``U <= 1``, eq. (14)) and evaluates the *energy* side empirically.  This
module provides the corresponding offline tests a system designer would
run before deploying a harvesting node:

* :func:`edf_schedulable` — exact EDF feasibility for periodic sets:
  the Liu & Layland utilization bound for implicit deadlines, and the
  processor-demand criterion (Baruah et al.) for constrained deadlines;
* :func:`demand_bound` — the EDF demand-bound function ``dbf(t)``;
* :func:`min_energy_demand_rate` — the long-run energy demand if every
  task ran at its slowest individually-feasible DVFS level (a lower
  bound on any EDF-based DVFS schedule's draw);
* :func:`full_speed_energy_demand_rate` — the LSA/EDF draw rate
  ``U * P_max``;
* :func:`energy_feasibility` — compares both rates against the source's
  long-run mean power;
* :func:`max_energy_deficit` — the largest harvest-vs-demand drawdown
  over a horizon: a storage-capacity *lower bound* for zero misses under
  a constant demand rate (useful to seed Table-1-style searches).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cpu.dvfs import FrequencyScale
from repro.energy.source import EnergySource
from repro.tasks.task import PeriodicTask, TaskSet
from repro.timeutils import EPSILON, ordered_sum

__all__ = [
    "EnergyFeasibility",
    "demand_bound",
    "edf_schedulable",
    "energy_feasibility",
    "full_speed_energy_demand_rate",
    "max_energy_deficit",
    "min_energy_demand_rate",
]


def _periodic_tasks(taskset: TaskSet) -> list[PeriodicTask]:
    periodic = taskset.periodic_tasks()
    if len(periodic) != len(taskset):
        raise ValueError("schedulability analysis requires an all-periodic set")
    return periodic


def demand_bound(taskset: TaskSet, t: float) -> float:
    """EDF demand-bound function ``dbf(t)`` for a periodic task set.

    Total execution demand of jobs with both release and deadline inside
    any window of length ``t``:
    ``dbf(t) = sum_i max(0, floor((t - D_i) / T_i) + 1) * C_i``.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    total = 0.0
    for task in _periodic_tasks(taskset):
        jobs = math.floor((t - task.relative_deadline) / task.period) + 1
        if jobs > 0:
            total += jobs * task.wcet
    return total


def edf_schedulable(taskset: TaskSet) -> bool:
    """Exact preemptive-EDF feasibility of a periodic task set.

    Implicit deadlines (``D_i == T_i`` for all tasks): ``U <= 1``
    (Liu & Layland).  Constrained deadlines (``D_i <= T_i``): the
    processor-demand criterion — ``dbf(t) <= t`` at every absolute
    deadline up to the analysis bound ``L*`` (Baruah/Rosier).  Deadlines
    beyond the period are rejected (not needed for this paper's model).
    """
    tasks = _periodic_tasks(taskset)
    utilization = taskset.utilization
    if utilization > 1.0 + EPSILON:
        return False
    if all(
        abs(task.relative_deadline - task.period) <= EPSILON for task in tasks
    ):
        return True
    if any(task.relative_deadline > task.period + EPSILON for task in tasks):
        raise ValueError("arbitrary (D > T) deadlines are not supported")

    # Analysis bound: L* = max(D_i, sum U_i (T_i - D_i) / (1 - U)),
    # falling back to the hyperperiod-style bound when U == 1.
    if utilization < 1.0 - EPSILON:
        l_star = ordered_sum(
            task.utilization * (task.period - task.relative_deadline)
            for task in tasks
        ) / (1.0 - utilization)
        bound = max([l_star] + [task.relative_deadline for task in tasks])
    else:
        bound = max(task.relative_deadline for task in tasks) + 2 * max(
            task.period for task in tasks
        ) * len(tasks)

    # Check dbf(t) <= t at every absolute deadline <= bound.
    checkpoints: set[float] = set()
    for task in tasks:
        deadline = task.relative_deadline
        while deadline <= bound + EPSILON:
            checkpoints.add(deadline)
            deadline += task.period
    return all(demand_bound(taskset, t) <= t + EPSILON for t in sorted(checkpoints))


def full_speed_energy_demand_rate(
    taskset: TaskSet, scale: FrequencyScale
) -> float:
    """Long-run draw of an always-full-speed schedule: ``U * P_max``."""
    return taskset.utilization * scale.max_power


def min_energy_demand_rate(taskset: TaskSet, scale: FrequencyScale) -> float:
    """Lower bound on the long-run draw of any EDF-based DVFS schedule.

    Each task is charged at the energy-per-work of the slowest level that
    could finish it within its own deadline with the whole window to
    itself — ignoring interference, so this is optimistic (a true lower
    bound).
    """
    total = 0.0
    for task in _periodic_tasks(taskset):
        level = scale.min_feasible_level(task.wcet, task.relative_deadline)
        if level is None:
            raise ValueError(
                f"{task.name} cannot meet its deadline even at full speed"
            )
        total += task.utilization * level.energy_per_work
    return total


@dataclass(frozen=True)
class EnergyFeasibility:
    """Outcome of the long-run energy balance check."""

    mean_harvest_power: float
    full_speed_demand: float
    min_demand: float

    @property
    def feasible_at_full_speed(self) -> bool:
        """LSA / plain EDF can be sustained indefinitely."""
        return self.full_speed_demand <= self.mean_harvest_power + EPSILON

    @property
    def feasible_with_dvfs(self) -> bool:
        """Some DVFS schedule might be sustainable (necessary condition)."""
        return self.min_demand <= self.mean_harvest_power + EPSILON

    @property
    def headroom(self) -> float:
        """Harvest margin over the full-speed demand (may be negative)."""
        return self.mean_harvest_power - self.full_speed_demand


def energy_feasibility(
    taskset: TaskSet,
    source: EnergySource,
    scale: FrequencyScale,
) -> EnergyFeasibility:
    """Long-run energy balance of a workload against a source."""
    return EnergyFeasibility(
        mean_harvest_power=source.mean_power(),
        full_speed_demand=full_speed_energy_demand_rate(taskset, scale),
        min_demand=min_energy_demand_rate(taskset, scale),
    )


def max_energy_deficit(
    source: EnergySource,
    demand_rate: float,
    horizon: float,
    quantum: float = 1.0,
) -> float:
    """Largest cumulative shortfall of harvest below a constant demand.

    Computes the maximum drawdown of ``integral(PS) - demand_rate * t``
    over ``[0, horizon]`` on a regular grid.  A storage smaller than this
    value *cannot* sustain the demand without interruption on this source
    realization, making it a useful lower bound when sizing capacities
    (e.g. to seed the Table 1 search).
    """
    if demand_rate < 0 or not math.isfinite(demand_rate):
        raise ValueError(f"demand_rate must be finite and >= 0, got {demand_rate!r}")
    if horizon <= 0 or not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    if quantum <= 0:
        raise ValueError(f"quantum must be > 0, got {quantum!r}")
    steps = int(math.ceil(horizon / quantum))
    net = np.empty(steps + 1, dtype=float)
    net[0] = 0.0
    t = 0.0
    for i in range(steps):
        end = min(t + quantum, horizon)
        harvested = source.energy(t, end)
        net[i + 1] = net[i] + harvested - demand_rate * (end - t)
        t = end
    running_peak = np.maximum.accumulate(net)
    drawdown = running_peak - net
    return float(drawdown.max())
