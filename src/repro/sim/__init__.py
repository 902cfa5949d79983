"""Discrete-event simulation layer.

:mod:`repro.sim.tracing`
    Typed trace recording for simulation runs.
:mod:`repro.sim.simulator`
    The energy-harvesting real-time system simulator that binds the energy
    subsystem, the CPU model and a scheduler together.
:mod:`repro.sim.watchdog`
    Opt-in invariant auditing (energy conservation, causality, stall
    progress) with structured diagnostics on abort.
"""

from repro.sim.schedule_view import (
    ExecutionInterval,
    render_gantt,
    schedule_intervals,
)
from repro.sim.simulator import (
    DeadlineMissPolicy,
    HarvestingRtSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.sim.tracing import Trace, TraceRecord
from repro.sim.watchdog import (
    SimulationDiagnostics,
    SimulationWatchdog,
    WatchdogError,
)

__all__ = [
    "DeadlineMissPolicy",
    "ExecutionInterval",
    "HarvestingRtSimulator",
    "SimulationConfig",
    "SimulationDiagnostics",
    "SimulationResult",
    "SimulationWatchdog",
    "Trace",
    "TraceRecord",
    "WatchdogError",
    "render_gantt",
    "schedule_intervals",
]
