"""Resilience experiment: scheduler miss rates under injected faults.

The paper's evaluation assumes a well-behaved world: the harvest
follows eq. (13) exactly and every job finishes within its WCET.  This
experiment stress-tests that assumption by re-running the section 5.1
configuration under the :mod:`repro.faults` wrappers:

* ``baseline`` — the unmodified setup;
* ``blackout`` — the source is wrapped in a
  :class:`~repro.faults.BlackoutSource` (random total outages);
* ``overrun`` — the task set is wrapped in an
  :class:`~repro.faults.OverrunWorkload` (jobs stretched past WCET);
* ``blackout+overrun`` — both at once.

Task sets are generated from the *nominal* mean harvest power in every
scenario, so all scenarios share the same workload per seed and the
comparison is paired: only the injected fault differs.  Runs execute
through the supervised sweep runtime
(:func:`~repro.runtime.sweep.run_journaled_sweep`), so a crashing or
hanging cell is salvaged as a
:class:`~repro.analysis.parallel.RunFailure` instead of aborting the
sweep, every simulation runs with the watchdog enabled, and setting
``$REPRO_JOURNAL`` makes the whole experiment resumable after a kill.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from repro.energy.storage import IdealStorage
from repro.experiments.common import PaperSetup, replications, workers
from repro.faults import BlackoutSource, OverrunWorkload
from repro.sched.registry import make_scheduler
from repro.sim.simulator import (
    HarvestingRtSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.sim.tracing import TraceKind

__all__ = [
    "ResilienceResult",
    "ResilienceSetup",
    "SCENARIOS",
    "run_resilience",
]

#: Seed offsets separating the fault streams from the source/task streams.
_BLACKOUT_SEED_OFFSET = 7_000_033
_OVERRUN_SEED_OFFSET = 9_000_011

#: Fault intensities (module constants so the experiment is reproducible
#: from the source alone).
BLACKOUT_START_PROBABILITY = 0.05
BLACKOUT_DURATION_RANGE = (5, 30)
OVERRUN_PROBABILITY = 0.2
OVERRUN_STRETCH_RANGE = (1.1, 1.6)

_SCENARIO_FLAGS: dict[str, tuple[bool, bool]] = {
    "baseline": (False, False),
    "blackout": (True, False),
    "overrun": (False, True),
    "blackout+overrun": (True, True),
}

#: Scenario ids in presentation order.
SCENARIOS: tuple[str, ...] = tuple(_SCENARIO_FLAGS)

_SCHEDULERS = ("edf", "lsa", "ea-dvfs")


@dataclass(frozen=True)
class ResilienceSetup(PaperSetup):
    """A :class:`PaperSetup` with opt-in fault injection.

    Defined at module level (and frozen/picklable) so it can travel
    inside a :class:`~repro.analysis.parallel.RunSpec` to worker
    processes.  Task-set generation still uses the *nominal* source
    statistics — faults perturb the world the scheduler faces, not the
    workload it was sized for.
    """

    blackout: bool = False
    overrun: bool = False
    watchdog: bool = True

    def run(
        self,
        scheduler_name: str,
        utilization: float,
        capacity: float,
        seed: int,
        energy_sample_interval: Optional[float] = None,
    ) -> SimulationResult:
        """One watchdogged simulation with the configured faults injected."""
        scale = self.scale()
        source = self.source(seed)
        if self.blackout:
            source = BlackoutSource(
                source,
                seed=seed + _BLACKOUT_SEED_OFFSET,
                start_probability=BLACKOUT_START_PROBABILITY,
                min_duration=BLACKOUT_DURATION_RANGE[0],
                max_duration=BLACKOUT_DURATION_RANGE[1],
            )
        taskset = self.taskset(seed, utilization)
        if self.overrun:
            taskset = OverrunWorkload(
                taskset,
                seed=seed + _OVERRUN_SEED_OFFSET,
                probability=OVERRUN_PROBABILITY,
                min_stretch=OVERRUN_STRETCH_RANGE[0],
                max_stretch=OVERRUN_STRETCH_RANGE[1],
            )
        trace_kinds: tuple[str, ...] = ()
        if energy_sample_interval is not None:
            trace_kinds = (TraceKind.ENERGY,)
        simulator = HarvestingRtSimulator(
            taskset=taskset,
            source=source,
            storage=IdealStorage(capacity=capacity),
            scheduler=make_scheduler(scheduler_name, scale),
            predictor=self.predictor(source),
            config=SimulationConfig(
                horizon=self.horizon,
                trace_kinds=trace_kinds,
                energy_sample_interval=energy_sample_interval,
                watchdog=self.watchdog,
            ),
        )
        return simulator.run()


@dataclass(frozen=True)
class ResilienceResult:
    """Pooled miss rates per (scenario, scheduler) cell.

    ``miss_rates`` maps ``(scenario, scheduler_name)`` to the pooled
    miss rate over all seeds (NaN if every replication of a cell was
    salvaged as a failure).  ``failures`` lists the salvage records, if
    any, in sweep order.
    """

    utilization: float
    capacity: float
    n_sets: int
    scenarios: tuple[str, ...]
    scheduler_names: tuple[str, ...]
    miss_rates: Mapping[tuple[str, str], float]
    failures: tuple = ()

    def format_text(self) -> str:
        """Plain-text table: scenarios as rows, schedulers as columns."""
        lines = [
            "Miss rates under injected faults "
            f"(U={self.utilization:g}, C={self.capacity:g}, "
            f"{self.n_sets} task sets)"
        ]
        name_width = max(len(s) for s in self.scenarios + ("scenario",))
        header = ["scenario".ljust(name_width)]
        header += [f"{name:>10}" for name in self.scheduler_names]
        lines.append("  ".join(header))
        for scenario in self.scenarios:
            row = [scenario.ljust(name_width)]
            for name in self.scheduler_names:
                rate = self.miss_rates[(scenario, name)]
                row.append(f"{rate:10.4f}" if math.isfinite(rate) else f"{'n/a':>10}")
            lines.append("  ".join(row))
        if self.failures:
            lines.append(
                f"salvaged failures: {len(self.failures)} cell(s) "
                "(excluded from the pooled rates)"
            )
        return "\n".join(lines)


def run_resilience(
    utilization: float = 0.6,
    capacity: float = 150.0,
    setup: Optional[PaperSetup] = None,
    n_sets: Optional[int] = None,
    scenarios: Sequence[str] = SCENARIOS,
    scheduler_names: Sequence[str] = _SCHEDULERS,
    timeout: Optional[float] = None,
    retries: int = 1,
) -> ResilienceResult:
    """Run the resilience sweep and pool miss rates per scenario.

    Every (scenario, scheduler, seed) cell is one watchdogged
    simulation, executed through the supervised sweep runtime (serial
    when ``REPRO_WORKERS=1``, the default; checkpointed through
    ``$REPRO_JOURNAL`` when set).  Fixed seeds make the result
    bit-for-bit deterministic across runs.
    """
    from repro.analysis.parallel import RunFailure, RunSpec
    from repro.runtime.supervisor import SupervisorPolicy
    from repro.runtime.sweep import run_journaled_sweep

    unknown = [s for s in scenarios if s not in _SCENARIO_FLAGS]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {unknown!r}; available: {list(_SCENARIO_FLAGS)}"
        )
    base = setup or PaperSetup()
    if n_sets is None:
        n_sets = replications(3)
    seeds = range(n_sets)
    base_fields = {
        f.name: getattr(base, f.name) for f in dataclasses.fields(PaperSetup)
    }

    specs = []
    for scenario in scenarios:
        blackout, overrun = _SCENARIO_FLAGS[scenario]
        cell_setup = ResilienceSetup(
            **base_fields, blackout=blackout, overrun=overrun
        )
        for name in scheduler_names:
            for seed in seeds:
                specs.append(
                    RunSpec(
                        scheduler_name=name,
                        utilization=utilization,
                        capacity=capacity,
                        seed=seed,
                        setup=cell_setup,
                    )
                )
    report = run_journaled_sweep(
        specs,
        policy=SupervisorPolicy(timeout=timeout, retries=retries),
        max_workers=workers(),
    )
    outcomes: Sequence[Union[SimulationResult, RunFailure, None]] = (
        report.outcomes
    )

    miss_rates: dict[tuple[str, str], float] = {}
    failures: list[RunFailure] = []
    index = 0
    for scenario in scenarios:
        for name in scheduler_names:
            chunk = outcomes[index : index + n_sets]
            index += n_sets
            missed = judged = 0
            for cell in chunk:
                if isinstance(cell, RunFailure):
                    failures.append(cell)
                elif cell is not None:
                    missed += cell.missed_count
                    judged += cell.judged_count
            miss_rates[(scenario, name)] = (
                missed / judged if judged else math.nan
            )
    return ResilienceResult(
        utilization=utilization,
        capacity=capacity,
        n_sets=n_sets,
        scenarios=tuple(scenarios),
        scheduler_names=tuple(scheduler_names),
        miss_rates=miss_rates,
        failures=tuple(failures),
    )
