"""Shared configuration of the paper's evaluation (section 5.1).

Every reproduced figure/table builds on the same setup:

* energy source: the stochastic solar model of eq. (13) (amplitude 10,
  ``|N|`` rectification — see DESIGN.md for the rectification discussion);
* processor: the five-speed XScale scale (``P_max = 3.2`` power units);
* predictor: cyclic-profile EWMA ("trace the PS(t) profile");
* workload: ``n_tasks`` periodic tasks from the paper's generator, scaled
  to the experiment's utilization;
* horizon 10,000 time units, storage initially full.

The paper repeats every configuration over 5,000 task sets.  That is
hours of CPU in pure Python, so the harness runs a reduced replication
count by default and multiplies it by the ``REPRO_SCALE`` environment
variable (e.g. ``REPRO_SCALE=10`` for a tighter estimate,
``REPRO_SCALE=125`` for paper scale on fig. 8/9).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.cpu.dvfs import FrequencyScale
from repro.cpu.presets import xscale_pxa
from repro.energy.predictor import (
    HarvestPredictor,
    LastValuePredictor,
    MeanPowerPredictor,
    OraclePredictor,
    ProfilePredictor,
)
from repro.energy.source import EnergySource, SolarStochasticSource
from repro.energy.storage import IdealStorage
from repro.sched.registry import make_scheduler
from repro.sim.simulator import (
    HarvestingRtSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.sim.tracing import TraceKind
from repro.tasks.task import TaskSet
from repro.tasks.workload import generate_paper_taskset

__all__ = ["PaperSetup", "replications", "scale_factor", "workers"]

#: Offset separating source seeds from task-set seeds so the two streams
#: never collide.
_SOURCE_SEED_OFFSET = 1_000_003


def scale_factor() -> float:
    """The ``REPRO_SCALE`` multiplier (default 1.0)."""
    raw = os.environ.get("REPRO_SCALE", "1")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"REPRO_SCALE must be numeric, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"REPRO_SCALE must be > 0, got {value!r}")
    return value


def replications(base: int) -> int:
    """Scaled replication count (at least 1)."""
    return max(1, round(base * scale_factor()))


def workers() -> int:
    """Worker-process count for the heavy sweeps (``REPRO_WORKERS``).

    Defaults to 1 (serial and in-process).  The figure/table sweeps pass
    it to :func:`repro.runtime.supervisor.run_supervised` as the size of
    the scalar worker pool (batch-engine sweeps use it for their
    fallback cells); useful together with large ``REPRO_SCALE``
    settings.
    """
    raw = os.environ.get("REPRO_WORKERS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_WORKERS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"REPRO_WORKERS must be >= 1, got {value!r}")
    return value


@dataclass(frozen=True)
class PaperSetup:
    """Factory bundle for the section 5.1 configuration."""

    n_tasks: int = 5
    horizon: float = 10_000.0
    amplitude: float = 10.0
    rectify: str = "abs"
    power_unit: float = 1e-3
    predictor_kind: str = "profile"  # "profile" | "oracle" | "mean" | "last-value"

    def scale(self) -> FrequencyScale:
        """The XScale-like DVFS ladder (section 5.1)."""
        return xscale_pxa(power_unit=self.power_unit)

    def source(self, seed: int) -> SolarStochasticSource:
        """A fresh eq. (13) source realization."""
        return SolarStochasticSource(
            seed=seed + _SOURCE_SEED_OFFSET,
            amplitude=self.amplitude,
            rectify=self.rectify,
        )

    def mean_harvest_power(self) -> float:
        """Closed-form ``P̄s`` of the configured source."""
        return self.source(0).mean_power()

    def predictor(self, source: EnergySource) -> HarvestPredictor:
        """The configured harvest predictor."""
        if self.predictor_kind == "profile":
            return ProfilePredictor()
        if self.predictor_kind == "oracle":
            return OraclePredictor(source)
        if self.predictor_kind == "mean":
            return MeanPowerPredictor()
        if self.predictor_kind == "last-value":
            return LastValuePredictor()
        raise ValueError(f"unknown predictor kind {self.predictor_kind!r}")

    def taskset(self, seed: int, utilization: float) -> TaskSet:
        """A paper-generator task set at the requested utilization."""
        return generate_paper_taskset(
            n_tasks=self.n_tasks,
            utilization=utilization,
            mean_harvest_power=self.mean_harvest_power(),
            max_power=self.scale().max_power,
            seed=seed,
        )

    def run(
        self,
        scheduler_name: str,
        utilization: float,
        capacity: float,
        seed: int,
        energy_sample_interval: Optional[float] = None,
    ) -> SimulationResult:
        """One complete simulation of this setup.

        The seed controls both the task set and the source realization, so
        different schedulers at the same seed face the *same* world
        (paired comparison).
        """
        scale = self.scale()
        source = self.source(seed)
        trace_kinds: tuple[str, ...] = ()
        if energy_sample_interval is not None:
            trace_kinds = (TraceKind.ENERGY,)
        simulator = HarvestingRtSimulator(
            taskset=self.taskset(seed, utilization),
            source=source,
            storage=IdealStorage(capacity=capacity),
            scheduler=make_scheduler(scheduler_name, scale),
            predictor=self.predictor(source),
            config=SimulationConfig(
                horizon=self.horizon,
                trace_kinds=trace_kinds,
                energy_sample_interval=energy_sample_interval,
            ),
        )
        return simulator.run()
