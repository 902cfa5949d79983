"""Ablation experiments for the modeling choices documented in DESIGN.md.

Each runner returns an :class:`AblationResult` whose ``metrics`` carry
the raw numbers (asserted on by the benchmark harness) and whose
``format_text()`` renders the human-readable table (printed by the CLI
via ``repro run ablation-...``).

Runners:

* :func:`run_predictor_ablation` — harvest-predictor fidelity;
* :func:`run_rectification_ablation` — the eq. (13) rectification choice;
* :func:`run_switch_overhead_ablation` — DVFS switching costs;
* :func:`run_nonideal_storage_ablation` — conversion losses + leakage;
* :func:`run_dvfs_granularity_ablation` — ladder density;
* :func:`run_weather_ablation` — correlated-drought robustness;
* :func:`run_overflow_aware_ablation` — the ``ea-dvfs-oa`` extension;
* :func:`run_aet_ablation` — actual execution times below WCET.

Each runner runs its legs as one supervised sweep of :class:`PaperSetup`
cells; a variant changing more than ``scale()``, ``source()`` or
``predictor()`` (which the batch core reads) overrides ``run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.analysis.metrics import pooled_miss_rate
from repro.cpu.dvfs import FrequencyScale, SwitchingOverhead
from repro.cpu.presets import continuous_approximation, xscale_pxa
from repro.cpu.processor import Processor
from repro.energy.predictor import HarvestPredictor, ProfilePredictor
from repro.energy.source import EnergySource, MarkovWeatherSource
from repro.energy.storage import EnergyStorage, IdealStorage, NonIdealStorage
from repro.experiments.common import PaperSetup, replications, workers
from repro.sched.registry import make_scheduler
from repro.sim.simulator import (
    HarvestingRtSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.sim.tracing import TraceKind
from repro.tasks.task import PeriodicTask, TaskSet

__all__ = [
    "AblationResult",
    "run_aet_ablation",
    "run_dvfs_granularity_ablation",
    "run_nonideal_storage_ablation",
    "run_overflow_aware_ablation",
    "run_predictor_ablation",
    "run_rectification_ablation",
    "run_switch_overhead_ablation",
    "run_weather_ablation",
]


@dataclass(frozen=True)
class AblationResult:
    """Outcome of one ablation: raw metrics plus a rendered table."""

    name: str
    header: str
    rows: tuple[str, ...]
    metrics: dict[str, Any] = field(default_factory=dict)

    def format_text(self) -> str:
        return "\n".join([self.header, *("  " + row for row in self.rows)])


@dataclass(frozen=True)
class _ScalarOnlySetup(PaperSetup):
    """Base of the variants only the scalar simulator models: its
    ``run`` (which the batch core cannot replay) builds
    :meth:`PaperSetup.run`'s simulator through the hooks below."""

    def _taskset(self, seed: int, utilization: float) -> TaskSet:
        return self.taskset(seed, utilization)

    def _storage(self, capacity: float) -> EnergyStorage:
        return IdealStorage(capacity=capacity)

    def _processor(self, scale: FrequencyScale) -> Optional[Processor]:
        return None

    def _aet_seed(self, seed: int) -> Optional[int]:
        return None

    def run(
        self,
        scheduler_name: str,
        utilization: float,
        capacity: float,
        seed: int,
        energy_sample_interval: Optional[float] = None,
    ) -> SimulationResult:
        """One simulation of the variant's world."""
        scale = self.scale()
        source = self.source(seed)
        simulator = HarvestingRtSimulator(
            taskset=self._taskset(seed, utilization),
            source=source,
            storage=self._storage(capacity),
            scheduler=make_scheduler(scheduler_name, scale),
            predictor=self.predictor(source),
            processor=self._processor(scale),
            config=SimulationConfig(
                horizon=self.horizon,
                trace_kinds=(
                    (TraceKind.ENERGY,)
                    if energy_sample_interval is not None else ()
                ),
                energy_sample_interval=energy_sample_interval,
                aet_seed=self._aet_seed(seed),
            ),
        )
        return simulator.run()


@dataclass(frozen=True)
class SwitchOverheadSetup(_ScalarOnlySetup):
    """A :class:`PaperSetup` whose DVFS transitions cost time and energy."""

    overhead: SwitchingOverhead = SwitchingOverhead(time=0.05, energy=0.05)

    def _processor(self, scale: FrequencyScale) -> Processor:
        return Processor(scale, overhead=self.overhead)


@dataclass(frozen=True)
class LossyStorageSetup(_ScalarOnlySetup):
    """A :class:`PaperSetup` on a :class:`NonIdealStorage`."""

    charge_efficiency: float = 0.9
    discharge_efficiency: float = 0.9
    leakage_power: float = 0.02

    def _storage(self, capacity: float) -> EnergyStorage:
        return NonIdealStorage(
            capacity=capacity,
            charge_efficiency=self.charge_efficiency,
            discharge_efficiency=self.discharge_efficiency,
            leakage_power=self.leakage_power,
        )


@dataclass(frozen=True)
class AetSetup(_ScalarOnlySetup):
    """A :class:`PaperSetup` whose jobs run for less than their WCET:
    each job's demand is drawn from ``[bcet_ratio, 1] * WCET`` with the
    cell's seed."""

    bcet_ratio: float = 0.5

    def _taskset(self, seed: int, utilization: float) -> TaskSet:
        return TaskSet(
            [
                PeriodicTask(
                    period=t.period, wcet=t.wcet,
                    relative_deadline=t.relative_deadline,
                    name=t.name, bcet_ratio=self.bcet_ratio,
                )
                for t in self.taskset(seed, utilization).periodic_tasks()
            ]
        )

    def _aet_seed(self, seed: int) -> int:
        return seed


#: The DVFS ladders of the granularity ablation.  All peak at
#: ``P_max = 3.2``, so :meth:`PaperSetup.taskset` sizes the same task
#: sets on each of them.
_LADDERS: dict[str, Callable[[], FrequencyScale]] = {
    "continuous-32": lambda: continuous_approximation(
        n_levels=32, max_power=3.2
    ),
    "xscale-5": xscale_pxa,
    "single-speed": lambda: FrequencyScale.single_speed(power=3.2),
}


@dataclass(frozen=True)
class LadderSetup(PaperSetup):
    """A :class:`PaperSetup` on another DVFS ladder (see ``_LADDERS``)."""

    ladder: str = "xscale-5"

    def scale(self) -> FrequencyScale:
        return _LADDERS[self.ladder]()


@dataclass(frozen=True)
class WeatherSetup(PaperSetup):
    """A :class:`PaperSetup` harvesting from the regime-switching
    :class:`MarkovWeatherSource`, tracked by a finer profile predictor."""

    def source(self, seed: int) -> MarkovWeatherSource:
        return MarkovWeatherSource(seed=seed)

    def predictor(self, source: EnergySource) -> HarvestPredictor:
        return ProfilePredictor(period=400.0, n_bins=32)


def _sweep(
    cells: Sequence[tuple[PaperSetup, str, float]],
    utilization: float,
    n_sets: int,
) -> list[list[SimulationResult]]:
    """Each ``(setup, scheduler, capacity)`` cell's results over seeds
    ``0 .. n_sets-1``, from one :func:`~repro.runtime.sweep.
    run_journaled_sweep` (``$REPRO_JOURNAL``, ``$REPRO_ENGINE`` and
    ``$REPRO_WORKERS`` apply)."""
    from repro.analysis.parallel import RunSpec
    from repro.runtime.sweep import run_journaled_sweep

    specs = [
        RunSpec(name, utilization, capacity, seed, setup=setup)
        for setup, name, capacity in cells
        for seed in range(n_sets)
    ]
    results = run_journaled_sweep(specs, max_workers=workers()).complete_results()
    return [results[k * n_sets:(k + 1) * n_sets] for k in range(len(cells))]


def run_predictor_ablation(
    utilization: float = 0.4,
    capacity: float = 60.0,
    n_sets: int | None = None,
) -> AblationResult:
    """EA-DVFS miss rate under predictors of decreasing fidelity."""
    n_sets = replications(5) if n_sets is None else n_sets
    kinds = ("oracle", "profile", "mean")
    runs = _sweep(
        [(PaperSetup(predictor_kind=kind), "ea-dvfs", capacity)
         for kind in kinds],
        utilization, n_sets,
    )
    rates = {kind: pooled_miss_rate(r) for kind, r in zip(kinds, runs)}
    return AblationResult(
        name="ablation-predictor",
        header=(
            f"EA-DVFS miss rate by predictor (U={utilization}, "
            f"capacity={capacity:g}, {n_sets} task sets):"
        ),
        rows=tuple(f"{kind:>8}: {rate:.4f}" for kind, rate in rates.items()),
        metrics={"rates": rates, "n_sets": n_sets},
    )


def run_rectification_ablation(
    utilization: float = 0.8,
    capacity: float = 5_000.0,
    n_sets: int | None = None,
) -> AblationResult:
    """LSA at U=0.8 under both eq. (13) rectification readings."""
    n_sets = replications(4) if n_sets is None else n_sets
    readings = ("abs", "clamp")
    runs = _sweep(
        [(PaperSetup(rectify=rectify), "lsa", capacity)
         for rectify in readings],
        utilization, n_sets,
    )
    rates = {rectify: pooled_miss_rate(r) for rectify, r in zip(readings, runs)}
    return AblationResult(
        name="ablation-rectification",
        header=(
            f"LSA miss rate at U={utilization}, capacity={capacity:g} "
            f"({n_sets} task sets) — Table 1 requires the abs reading:"
        ),
        rows=(
            f"abs   rectification (mean ~3.99): {rates['abs']:.4f}",
            f"clamp rectification (mean ~2.00): {rates['clamp']:.4f}",
        ),
        metrics={"rates": rates, "n_sets": n_sets},
    )


def run_switch_overhead_ablation(
    utilization: float = 0.4,
    capacity: float = 60.0,
    overhead: SwitchingOverhead = SwitchingOverhead(time=0.05, energy=0.05),
    n_sets: int | None = None,
) -> AblationResult:
    """EA-DVFS with free vs costly DVFS transitions."""
    n_sets = replications(4) if n_sets is None else n_sets
    free, costly = _sweep(
        [
            (PaperSetup(), "ea-dvfs", capacity),
            (SwitchOverheadSetup(overhead=overhead), "ea-dvfs", capacity),
        ],
        utilization, n_sets,
    )
    free_rate, costly_rate = pooled_miss_rate(free), pooled_miss_rate(costly)
    switches = sum(r.switch_count for r in costly) / n_sets
    return AblationResult(
        name="ablation-switch-overhead",
        header=(
            f"EA-DVFS at U={utilization}, capacity={capacity:g} "
            f"({n_sets} task sets):"
        ),
        rows=(
            f"free switching:                     miss {free_rate:.4f}",
            f"{overhead.time:g} time + {overhead.energy:g} energy/switch: "
            f"miss {costly_rate:.4f}",
            f"(~{switches:.0f} switches per run)",
        ),
        metrics={
            "free": free_rate,
            "costly": costly_rate,
            "switches_per_run": switches,
            "n_sets": n_sets,
        },
    )


def run_nonideal_storage_ablation(
    utilization: float = 0.4,
    capacity: float = 60.0,
    charge_efficiency: float = 0.9,
    discharge_efficiency: float = 0.9,
    leakage_power: float = 0.02,
    n_sets: int | None = None,
) -> AblationResult:
    """LSA and EA-DVFS on ideal vs lossy storage."""
    n_sets = replications(4) if n_sets is None else n_sets
    lossy = LossyStorageSetup(
        charge_efficiency=charge_efficiency,
        discharge_efficiency=discharge_efficiency,
        leakage_power=leakage_power,
    )
    names = ("lsa", "ea-dvfs")
    runs = iter(_sweep(
        [(setup, name, capacity)
         for name in names for setup in (PaperSetup(), lossy)],
        utilization, n_sets,
    ))
    rates = {
        name: (pooled_miss_rate(next(runs)), pooled_miss_rate(next(runs)))
        for name in names
    }
    return AblationResult(
        name="ablation-nonideal-storage",
        header=(
            f"miss rates at U={utilization}, capacity={capacity:g} "
            f"({n_sets} task sets):"
        ),
        rows=tuple(
            f"{name:8} ideal {pair[0]:.4f} -> lossy {pair[1]:.4f}"
            for name, pair in rates.items()
        ),
        metrics={"rates": rates, "n_sets": n_sets},
    )


def run_dvfs_granularity_ablation(
    utilization: float = 0.4,
    capacity: float = 50.0,
    n_sets: int | None = None,
) -> AblationResult:
    """EA-DVFS on dense / paper / degenerate DVFS ladders."""
    n_sets = replications(4) if n_sets is None else n_sets
    runs = _sweep(
        [(LadderSetup(ladder=label), "ea-dvfs", capacity)
         for label in _LADDERS],
        utilization, n_sets,
    )
    rates = {label: pooled_miss_rate(r) for label, r in zip(_LADDERS, runs)}
    return AblationResult(
        name="ablation-dvfs-granularity",
        header=(
            f"EA-DVFS miss rate by ladder (U={utilization}, "
            f"capacity={capacity:g}, {n_sets} task sets):"
        ),
        rows=tuple(f"{label:>14}: {rate:.4f}"
                   for label, rate in rates.items()),
        metrics={"rates": rates, "n_sets": n_sets},
    )


def run_weather_ablation(
    utilization: float = 0.4,
    capacities: Sequence[float] = (50.0, 150.0, 400.0),
    horizon: float = 10_000.0,
    n_sets: int | None = None,
) -> AblationResult:
    """LSA vs EA-DVFS under the regime-switching weather source."""
    n_sets = replications(4) if n_sets is None else n_sets
    setup = WeatherSetup(horizon=horizon)
    names = ("lsa", "ea-dvfs")
    runs = iter(_sweep(
        [(setup, name, capacity) for capacity in capacities for name in names],
        utilization, n_sets,
    ))
    rates = {
        capacity: {name: pooled_miss_rate(next(runs)) for name in names}
        for capacity in capacities
    }
    rows = ["capacity   lsa      ea-dvfs"]
    rows += [
        f"{capacity:8.0f} {cell['lsa']:8.4f} {cell['ea-dvfs']:8.4f}"
        for capacity, cell in rates.items()
    ]
    return AblationResult(
        name="ablation-weather",
        header=(
            f"Markov-weather source, U={utilization}, {n_sets} task sets:"
        ),
        rows=tuple(rows),
        metrics={"rates": rates, "n_sets": n_sets},
    )


def run_overflow_aware_ablation(
    utilization: float = 0.4,
    capacity: float = 25.0,
    n_sets: int | None = None,
) -> AblationResult:
    """Plain EA-DVFS vs the overflow-aware extension at a tiny storage."""
    n_sets = replications(5) if n_sets is None else n_sets
    names = ("ea-dvfs", "ea-dvfs-oa")
    runs = _sweep(
        [(PaperSetup(), name, capacity) for name in names],
        utilization, n_sets,
    )
    metrics = {
        name: (
            pooled_miss_rate(results),
            sum(r.overflow_energy for r in results) / n_sets,
        )
        for name, results in zip(names, runs)
    }
    return AblationResult(
        name="ablation-overflow-aware",
        header=(
            f"U={utilization}, capacity={capacity:g}, {n_sets} task sets:"
        ),
        rows=tuple(
            f"{name:10} miss {pair[0]:.4f}  overflow {pair[1]:9.1f}"
            for name, pair in metrics.items()
        ),
        metrics={"rates": metrics, "n_sets": n_sets},
    )


def run_aet_ablation(
    utilization: float = 0.4,
    capacity: float = 25.0,
    bcet_ratio: float = 0.5,
    n_sets: int | None = None,
) -> AblationResult:
    """WCET-exact vs variable actual execution times."""
    n_sets = replications(4) if n_sets is None else n_sets
    aet = AetSetup(bcet_ratio=bcet_ratio) if bcet_ratio < 1.0 else PaperSetup()
    names = ("lsa", "ea-dvfs")
    runs = iter(_sweep(
        [(setup, name, capacity)
         for name in names for setup in (PaperSetup(), aet)],
        utilization, n_sets,
    ))
    rates = {
        name: (pooled_miss_rate(next(runs)), pooled_miss_rate(next(runs)))
        for name in names
    }
    return AblationResult(
        name="ablation-aet",
        header=(
            f"miss rates at U={utilization}, capacity={capacity:g} "
            f"({n_sets} task sets):"
        ),
        rows=tuple(
            f"{name:8} wcet {pair[0]:.4f} -> "
            f"aet({bcet_ratio:g}..1) {pair[1]:.4f}"
            for name, pair in rates.items()
        ),
        metrics={"rates": rates, "n_sets": n_sets},
    )
