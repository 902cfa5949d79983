"""Differential equivalence of the vectorized batch engine vs scalar.

:func:`run_batch_equivalence` draws N reproducible worlds with
:func:`repro.verify.scenarios.random_scenario`, turns each (world,
scheduler) pair into a sweep cell (:meth:`ScenarioSpec.cell`), runs the
cells once through the batch core's one front-end,
:func:`repro.sim.batch.execute_runspecs`, and once through the
reference scalar simulator, and asserts:

* **bit-exact results** — counters, per-task tallies, energy
  aggregates, the busy-time profile and per-job timelines must be
  *equal*: the batch core performs the same float operations in the
  same order as the scalar loop (see ``docs/batch-simulation.md``);
* **fallback plumbing** — cells the front-end leaves out (faulted
  worlds, infinite storage) are tallied, run here on the scalar
  simulator through the cell's own setup and checked for determinism.

The scenario pool draws every predictor kind (``oracle``, ``profile``,
``mean``, ``last-value``), all vectorized; the report counts scenarios
per kind so CI shows each kind was actually exercised.

Failures reuse the :class:`~repro.verify.differential.Discrepancy` /
report machinery, so the smallest failing scenario seed is surfaced as
the minimal reproduction handle exactly like the oracle battery.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim.batch import execute_runspecs
from repro.sim.simulator import SimulationResult
from repro.verify.differential import DifferentialReport, Discrepancy
from repro.verify.oracles import compare_schedules
from repro.verify.scenarios import random_scenario

__all__ = [
    "BATCH_CHECKED_SCHEDULERS",
    "BatchEquivalenceReport",
    "compare_results",
    "run_batch_equivalence",
]

#: Scheduler policies with a vectorized kernel (every registry policy
#: the batch engine claims to cover — uncovered names are a fallback,
#: not a comparison).
BATCH_CHECKED_SCHEDULERS: tuple[str, ...] = (
    "edf",
    "lsa",
    "ea-dvfs",
    "ea-dvfs-noslowdown",
)

#: Every measured field of a result.  The engines are bit-exact, so
#: each must match with ``==``.  ``trace`` is left out: traces compare
#: by identity and carry no measured quantities.
_FIELDS: tuple[str, ...] = (
    "released_count",
    "completed_count",
    "missed_count",
    "judged_count",
    "switch_count",
    "stall_count",
    "harvested_energy",
    "drawn_energy",
    "overflow_energy",
    "leaked_energy",
    "final_stored",
    "idle_time",
    "stall_time",
    "busy_time_profile",
    "per_task_released",
    "per_task_missed",
)


def compare_results(
    scalar: SimulationResult, batch: SimulationResult
) -> list[str]:
    """All divergences between a scalar and a batch run of one world.

    Every field in :data:`_FIELDS` must be equal, and so must the
    per-job timelines when both results carry them
    (:func:`~repro.verify.oracles.compare_schedules`).
    """
    problems = [
        f"{name}: scalar {getattr(scalar, name)!r} != "
        f"batch {getattr(batch, name)!r}"
        for name in _FIELDS
        if getattr(scalar, name) != getattr(batch, name)
    ]
    if scalar.jobs and batch.jobs:
        problems += compare_schedules(
            scalar, batch, label_a="scalar", label_b="batch"
        )
    return problems


@dataclass
class BatchEquivalenceReport(DifferentialReport):
    """A differential report with batch-vs-fallback lane accounting."""

    #: Cells actually simulated inside the vectorized core.
    batch_cells: int = 0
    #: Cells the front-end routed to the scalar engine instead.
    fallback_cells: int = 0
    #: Histogram of fallback reasons across the sweep.
    fallback_reasons: dict[str, int] = field(default_factory=dict)
    #: Scenarios drawn per predictor kind (coverage evidence: the sweep
    #: must exercise every vectorized kind, not just the oracle).
    predictor_kinds: dict[str, int] = field(default_factory=dict)

    def format_text(self) -> str:
        lines = [
            f"batch equivalence sweep: {self.n_scenarios} scenarios "
            f"(seeds {self.base_seed}.."
            f"{self.base_seed + self.n_scenarios - 1}) x "
            f"{len(BATCH_CHECKED_SCHEDULERS)} schedulers, "
            f"{self.simulations_run} simulations",
            f"  {self.batch_cells} cell(s) vectorized, "
            f"{self.fallback_cells} scalar fallback(s)",
        ]
        for reason in sorted(self.fallback_reasons):
            lines.append(
                f"    fallback[{reason}]: {self.fallback_reasons[reason]}"
            )
        if self.predictor_kinds:
            coverage = ", ".join(
                f"{kind}: {self.predictor_kinds[kind]}"
                for kind in sorted(self.predictor_kinds)
            )
            lines.append(f"  predictor coverage — {coverage}")
        if self.ok:
            lines.append("no discrepancies found")
        else:
            lines.append(f"{len(self.discrepancies)} DISCREPANCIES:")
            for discrepancy in self.discrepancies:
                lines.append(discrepancy.format_text())
            lines.append(f"minimal reproducing seed: {self.minimal_seed}")
        return "\n".join(lines)


def run_batch_equivalence(
    n: int = 100,
    seed: int = 0,
    allow_faults: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
) -> BatchEquivalenceReport:
    """Differentially test batch vs scalar over ``n`` seeded scenarios.

    Every scenario runs under each scheduler in
    :data:`BATCH_CHECKED_SCHEDULERS`, once through the batch front-end
    with job timelines (all scenarios of a scheduler share one SoA core
    run) and once
    through the scalar reference; :func:`compare_results` judges each
    pair.  ``progress`` (if given) is called as ``progress(i, total)``
    after each (scheduler, scenario) comparison column completes.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    report = BatchEquivalenceReport(n_scenarios=n, base_seed=seed)
    specs = [
        random_scenario(seed + i, allow_faults=allow_faults)
        for i in range(n)
    ]
    for spec in specs:
        report.predictor_kinds[spec.predictor_kind] = (
            report.predictor_kinds.get(spec.predictor_kind, 0) + 1
        )
    total = n * len(BATCH_CHECKED_SCHEDULERS)
    done = 0
    for scheduler_name in BATCH_CHECKED_SCHEDULERS:
        cells = [spec.cell(scheduler_name) for spec in specs]
        results, reasons = execute_runspecs(cells, include_jobs=True)
        fallbacks = sum(reasons.values())
        report.simulations_run += len(specs)
        report.fallback_cells += fallbacks
        report.batch_cells += len(specs) - fallbacks
        for reason, count in reasons.items():
            report.fallback_reasons[reason] = (
                report.fallback_reasons.get(reason, 0) + count
            )
        for spec, cell, batch_result in zip(specs, cells, results):
            # A cell the core left out runs its scalar fallback here;
            # the comparison then checks determinism of the fallback
            # path rather than the core.
            vectorized = batch_result is not None
            if batch_result is None:
                batch_result = cell.setup.run(
                    scheduler_name, cell.utilization, cell.capacity,
                    cell.seed,
                )
            scalar_result = spec.run(scheduler_name)
            report.simulations_run += 1
            report.checks_run += 1
            for problem in compare_results(scalar_result, batch_result):
                report.discrepancies.append(Discrepancy(
                    seed=spec.seed,
                    check=(
                        f"batch-equivalence[{scheduler_name}]"
                        if vectorized
                        else f"batch-fallback[{scheduler_name}]"
                    ),
                    detail=problem,
                    scenario=spec.describe(),
                ))
            done += 1
            if progress is not None:
                progress(done, total)
    return report
