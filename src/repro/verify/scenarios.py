"""Seeded random simulation scenarios shared by the verify tier.

One :class:`ScenarioSpec` describes a complete simulation world —
workload, energy source, storage, predictor, miss policy, horizon, and
an optional :class:`FaultPlan` of :mod:`repro.faults` decorators —
*without* holding any live objects.  Builders construct fresh stateful
components on demand, so the same spec can be run through several
schedulers and every run faces an identical world (the paired-comparison
discipline of the experiment harness, extended to verification).

Two front ends share this module:

* :func:`random_scenario` draws a spec from a single integer seed with a
  private numpy RNG — the differential harness's sampling path, usable
  without Hypothesis;
* :mod:`repro.verify.strategies` exposes a Hypothesis strategy producing
  the same specs with full shrinking support for property-based tests.

A world is built through the ``PaperSetup`` hooks of its
:class:`ScenarioSetup`: :meth:`ScenarioSpec.run` simulates it, and
:meth:`ScenarioSpec.cell` turns it into a sweep cell, so
``repro verify --batch`` drives the batch core through the same
front-end and lane builder as every sweep.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.analysis.parallel import RunSpec
from repro.cpu.dvfs import FrequencyScale
from repro.cpu.presets import xscale_pxa
from repro.energy.predictor import (
    HarvestPredictor,
    LastValuePredictor,
    MeanPowerPredictor,
    OraclePredictor,
    ProfilePredictor,
)
from repro.energy.source import (
    ConstantSource,
    DayNightSource,
    EnergySource,
    SolarStochasticSource,
)
from repro.energy.storage import EnergyStorage, IdealStorage
from repro.faults import (
    BiasedPredictor,
    BlackoutSource,
    BrownoutSource,
    DegradedStorage,
    OverrunWorkload,
    SensorDropoutSource,
)
from repro.experiments.common import PaperSetup
from repro.sched.base import Scheduler
from repro.sched.registry import make_scheduler
from repro.sim.simulator import (
    DeadlineMissPolicy,
    SimulationConfig,
    SimulationResult,
)
from repro.tasks.task import PeriodicTask, TaskSet
from repro.timeutils import ordered_sum

__all__ = [
    "FaultPlan",
    "PERIOD_CHOICES",
    "PREDICTOR_KINDS",
    "ScenarioSetup",
    "ScenarioSpec",
    "SOURCE_FAULT_KINDS",
    "SOURCE_KINDS",
    "TaskParams",
    "random_scenario",
]

#: Period pool of randomized workloads (subset of the paper's choices,
#: small enough that short horizons cover several hyperperiods).
PERIOD_CHOICES: tuple[float, ...] = (10.0, 20.0, 30.0, 50.0, 80.0)

SOURCE_KINDS: tuple[str, ...] = ("constant", "solar", "daynight")
PREDICTOR_KINDS: tuple[str, ...] = ("oracle", "profile", "mean", "last-value")
SOURCE_FAULT_KINDS: tuple[str, ...] = ("blackout", "brownout", "dropout")

#: Horizon pool — long enough for energy dynamics, short enough that a
#: 100-scenario differential sweep stays interactive.
HORIZON_CHOICES: tuple[float, ...] = (200.0, 400.0, 600.0)

#: Seed offset separating a scenario's fault RNG streams from its
#: source/AET streams.
_FAULT_SEED_OFFSET = 4_000_037


@dataclass(frozen=True)
class TaskParams:
    """Parameters of one periodic task in a scenario."""

    period: float
    wcet: float
    bcet_ratio: float = 1.0


@dataclass(frozen=True)
class FaultPlan:
    """Which :mod:`repro.faults` decorators a scenario applies."""

    source_fault: Optional[str] = None  # one of SOURCE_FAULT_KINDS
    storage_spikes: bool = False
    predictor_gain: float = 1.0
    predictor_offset_power: float = 0.0
    overrun: bool = False

    def __post_init__(self) -> None:
        if self.source_fault is not None and (
            self.source_fault not in SOURCE_FAULT_KINDS
        ):
            raise ValueError(
                f"unknown source fault {self.source_fault!r}; "
                f"available: {SOURCE_FAULT_KINDS}"
            )

    @property
    def any_active(self) -> bool:
        return (
            self.source_fault is not None
            or self.storage_spikes
            or self.predictor_gain != 1.0
            # exact: fault-plan fields are drawn from finite menus
            or self.predictor_offset_power != 0.0
            or self.overrun
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described, reproducible simulation world."""

    seed: int
    tasks: tuple[TaskParams, ...]
    source_kind: str = "solar"
    capacity: float = 100.0
    predictor_kind: str = "oracle"
    miss_policy: str = "drop"  # DeadlineMissPolicy value
    horizon: float = 400.0
    aet_seed: Optional[int] = None
    faults: FaultPlan = field(default_factory=FaultPlan)

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a scenario needs at least one task")
        if self.source_kind not in SOURCE_KINDS:
            raise ValueError(
                f"unknown source kind {self.source_kind!r}; "
                f"available: {SOURCE_KINDS}"
            )
        if self.predictor_kind not in PREDICTOR_KINDS:
            raise ValueError(
                f"unknown predictor kind {self.predictor_kind!r}; "
                f"available: {PREDICTOR_KINDS}"
            )
        DeadlineMissPolicy(self.miss_policy)  # raises on unknown values
        if self.capacity <= 0 or math.isnan(self.capacity):
            raise ValueError(f"capacity must be > 0, got {self.capacity!r}")
        if self.faults.storage_spikes and math.isinf(self.capacity):
            raise ValueError("storage spikes require a finite capacity")

    # -- builders ---------------------------------------------------------

    def scale(self) -> FrequencyScale:
        """All verify scenarios run the paper's XScale ladder."""
        return xscale_pxa()

    def build_taskset(self) -> TaskSet:
        tasks = [
            PeriodicTask(
                period=p.period,
                wcet=p.wcet,
                name=f"t{i}",
                bcet_ratio=p.bcet_ratio,
            )
            for i, p in enumerate(self.tasks)
        ]
        taskset: TaskSet = TaskSet(tasks)
        if self.faults.overrun:
            taskset = OverrunWorkload(
                taskset, seed=self.seed + _FAULT_SEED_OFFSET
            )
        return taskset

    def build_source(self) -> EnergySource:
        if self.source_kind == "constant":
            source: EnergySource = ConstantSource(1.0 + (self.seed % 7) * 0.5)
        elif self.source_kind == "solar":
            source = SolarStochasticSource(seed=self.seed)
        else:
            source = DayNightSource(
                day_power=4.0, night_power=0.2,
                day_length=60.0, night_length=40.0,
            )
        fault_seed = self.seed + _FAULT_SEED_OFFSET
        if self.faults.source_fault == "blackout":
            source = BlackoutSource(source, seed=fault_seed)
        elif self.faults.source_fault == "brownout":
            source = BrownoutSource(source, seed=fault_seed)
        elif self.faults.source_fault == "dropout":
            source = SensorDropoutSource(source, seed=fault_seed)
        return source

    def build_storage(self) -> EnergyStorage:
        initial = self.capacity if math.isfinite(self.capacity) else math.inf
        storage: EnergyStorage = IdealStorage(
            capacity=self.capacity, initial=initial
        )
        if self.faults.storage_spikes:
            storage = DegradedStorage(
                storage,
                seed=self.seed + _FAULT_SEED_OFFSET,
                spike_probability=0.05,
                spike_power=0.5,
            )
        return storage

    def build_predictor(self, source: EnergySource) -> HarvestPredictor:
        if self.predictor_kind == "oracle":
            predictor: HarvestPredictor = OraclePredictor(source)
        elif self.predictor_kind == "profile":
            predictor = ProfilePredictor(period=100.0, n_bins=16)
        elif self.predictor_kind == "last-value":
            predictor = LastValuePredictor()
        else:
            predictor = MeanPowerPredictor()
        if (
            self.faults.predictor_gain != 1.0
            or self.faults.predictor_offset_power != 0.0
        ):
            predictor = BiasedPredictor(
                predictor,
                gain=self.faults.predictor_gain,
                offset_power=self.faults.predictor_offset_power,
            )
        return predictor

    def build_config(self) -> SimulationConfig:
        return SimulationConfig(
            horizon=self.horizon,
            miss_policy=DeadlineMissPolicy(self.miss_policy),
            aet_seed=self.aet_seed,
        )

    def run(self, scheduler: Union[str, Scheduler]) -> SimulationResult:
        """One simulation of this world under ``scheduler``, either a
        registry name or a ready instance (the oracle harness passes
        wrapped instances), built by its :class:`ScenarioSetup`."""
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler, self.scale())
        return ScenarioSetup(spec=self).simulator(
            scheduler, self.total_utilization, self.capacity, self.seed
        ).run()

    def cell(self, scheduler_name: str) -> RunSpec:
        """This world under ``scheduler_name`` as a sweep cell."""
        return RunSpec(
            scheduler_name=scheduler_name,
            utilization=self.total_utilization,
            capacity=self.capacity,
            seed=self.seed,
            setup=ScenarioSetup(spec=self),
        )

    # -- derived scenarios ------------------------------------------------

    def without_faults(self) -> "ScenarioSpec":
        return dataclasses.replace(self, faults=FaultPlan())

    def with_infinite_storage(self) -> "ScenarioSpec":
        """The section 4.3 special case: unbounded stored energy.

        Storage faults are dropped (capacity fade and spikes are
        meaningless on an infinite store); all other faults survive, so
        the EDF-degeneracy check also covers faulted worlds.
        """
        return dataclasses.replace(
            self,
            capacity=math.inf,
            faults=dataclasses.replace(self.faults, storage_spikes=False),
        )

    @property
    def total_utilization(self) -> float:
        return ordered_sum(p.wcet / p.period for p in self.tasks)

    @property
    def lossless_storage(self) -> bool:
        """Whether the energy-conservation *equality* applies."""
        return not self.faults.storage_spikes and math.isfinite(self.capacity)

    def describe(self) -> str:
        """Compact single-line description for discrepancy reports."""
        tasks = ", ".join(
            f"({p.period:g}, {p.wcet:.3g}"
            + (f", bcet={p.bcet_ratio:g}" if p.bcet_ratio != 1.0 else "")
            + ")"
            for p in self.tasks
        )
        parts = [
            f"seed={self.seed}",
            f"tasks=[{tasks}]",
            f"source={self.source_kind}",
            f"capacity={self.capacity:g}",
            f"predictor={self.predictor_kind}",
            f"miss_policy={self.miss_policy}",
            f"horizon={self.horizon:g}",
        ]
        if self.aet_seed is not None:
            parts.append(f"aet_seed={self.aet_seed}")
        if self.faults.any_active:
            active = []
            if self.faults.source_fault:
                active.append(self.faults.source_fault)
            if self.faults.storage_spikes:
                active.append("storage-spikes")
            if self.faults.predictor_gain != 1.0:
                active.append(f"gain={self.faults.predictor_gain:g}")
            if self.faults.predictor_offset_power != 0.0:
                active.append(
                    f"offset={self.faults.predictor_offset_power:g}"
                )
            if self.faults.overrun:
                active.append("overrun")
            parts.append(f"faults[{'+'.join(active)}]")
        return " ".join(parts)


@dataclass(frozen=True)
class ScenarioSetup(PaperSetup):
    """A :class:`ScenarioSpec` world as a sweep cell's setup.

    The hooks build the spec's ladder, task set, source, storage,
    predictor and config, fault wrappers included, so
    :meth:`PaperSetup.run` simulates exactly what ``spec.run`` does.
    The batch core's lane builder reads the same hooks and sends a
    faulted world to the scalar simulator, naming the wrapper it
    rejected.  The spec fixes the whole world, so the cell's arguments
    are not read.
    """

    spec: ScenarioSpec = field(kw_only=True)

    def scale(self) -> FrequencyScale:
        return self.spec.scale()

    def source(self, seed: int) -> EnergySource:
        return self.spec.build_source()

    def predictor(self, source: EnergySource) -> HarvestPredictor:
        return self.spec.build_predictor(source)

    def taskset(self, seed: int, utilization: float) -> TaskSet:
        return self.spec.build_taskset()

    def storage(self, capacity: float) -> EnergyStorage:
        return self.spec.build_storage()

    def config(
        self, seed: int, energy_sample_interval: Optional[float] = None
    ) -> SimulationConfig:
        return self.spec.build_config()


def _random_tasks(rng: np.random.Generator) -> tuple[TaskParams, ...]:
    n_tasks = int(rng.integers(1, 5))
    tasks = []
    total_u = 0.0
    for _ in range(n_tasks):
        period = float(rng.choice(PERIOD_CHOICES))
        u = float(rng.uniform(0.02, 0.35))
        if total_u + u > 1.0:
            u = max(0.01, 1.0 - total_u)
        total_u += u
        bcet = float(rng.choice([1.0, 1.0, 0.6]))
        tasks.append(
            TaskParams(period=period, wcet=u * period, bcet_ratio=bcet)
        )
    return tuple(tasks)


def _random_faults(rng: np.random.Generator) -> FaultPlan:
    if rng.random() < 0.5:
        return FaultPlan()
    source_fault = None
    if rng.random() < 0.5:
        source_fault = str(rng.choice(SOURCE_FAULT_KINDS))
    gain, offset = 1.0, 0.0
    if rng.random() < 0.4:
        gain = float(rng.choice([0.5, 0.8, 1.3, 2.0]))
        offset = float(rng.choice([0.0, -0.5, 0.5]))
    return FaultPlan(
        source_fault=source_fault,
        storage_spikes=bool(rng.random() < 0.3),
        predictor_gain=gain,
        predictor_offset_power=offset,
        overrun=bool(rng.random() < 0.3),
    )


def random_scenario(seed: int, allow_faults: bool = True) -> ScenarioSpec:
    """Draw one scenario from a single integer seed (bit-reproducible).

    Equal seeds yield equal specs forever — the differential harness
    reports the scenario seed as the minimal reproduction handle.
    """
    rng = np.random.default_rng(seed)
    tasks = _random_tasks(rng)
    source_kind = str(rng.choice(SOURCE_KINDS))
    capacity = float(rng.uniform(5.0, 500.0))
    predictor_kind = str(rng.choice(PREDICTOR_KINDS))
    miss_policy = str(rng.choice([p.value for p in DeadlineMissPolicy]))
    horizon = float(rng.choice(HORIZON_CHOICES))
    aet_seed = int(rng.integers(0, 1_000_000))
    faults = _random_faults(rng) if allow_faults else FaultPlan()
    return ScenarioSpec(
        seed=seed,
        tasks=tasks,
        source_kind=source_kind,
        capacity=capacity,
        predictor_kind=predictor_kind,
        miss_policy=miss_policy,
        horizon=horizon,
        aet_seed=aet_seed,
        faults=faults,
    )
