"""repro — reproduction of "Energy Aware Dynamic Voltage and Frequency
Selection for Real-Time Systems with Energy Harvesting" (DATE 2008).

The package implements the paper's EA-DVFS scheduling algorithm, the LSA
and EDF baselines, and the full simulation substrate they are evaluated
on: stochastic energy sources, harvest predictors, energy storage, a
discrete-DVFS processor model, a deterministic discrete-event simulator,
workload generation, and the experiment harness regenerating every table
and figure of the paper's evaluation.

Quickstart::

    from repro import (
        EaDvfsScheduler, HarvestingRtSimulator, IdealStorage,
        SolarStochasticSource, generate_paper_taskset, xscale_pxa,
    )

    scale = xscale_pxa()
    source = SolarStochasticSource(seed=7)
    tasks = generate_paper_taskset(
        n_tasks=5, utilization=0.4, seed=7,
        mean_harvest_power=source.mean_power(), max_power=scale.max_power,
    )
    sim = HarvestingRtSimulator(
        taskset=tasks, source=source, storage=IdealStorage(capacity=1000.0),
        scheduler=EaDvfsScheduler(scale),
    )
    result = sim.run()
    print(result.summary())
"""

from repro.core import EaDvfsScheduler, SlowdownPlan, compute_plan
from repro.cpu import (
    FrequencyLevel,
    FrequencyScale,
    Processor,
    SwitchingOverhead,
    motivational_example_scale,
    stretch_example_scale,
    xscale_pxa,
)
from repro.energy import (
    CompositeSource,
    ConstantSource,
    DayNightSource,
    EnergySource,
    EnergyStorage,
    HarvestPredictor,
    IdealStorage,
    LastValuePredictor,
    MeanPowerPredictor,
    NonIdealStorage,
    OraclePredictor,
    ProfilePredictor,
    ScaledSource,
    SolarStochasticSource,
    TraceSource,
)
from repro.faults import (
    BiasedPredictor,
    BlackoutSource,
    BrownoutSource,
    DegradedStorage,
    OverrunWorkload,
    SensorDropoutSource,
)
from repro.sched import (
    Decision,
    EnergyOutlook,
    GreedyEdfScheduler,
    LazyScheduler,
    Scheduler,
    StretchEdfScheduler,
    available_schedulers,
    make_scheduler,
)
from repro.sched.extensions import OverflowAwareEaDvfsScheduler
from repro.sim import (
    DeadlineMissPolicy,
    HarvestingRtSimulator,
    SimulationConfig,
    SimulationDiagnostics,
    SimulationResult,
    SimulationWatchdog,
    Trace,
    WatchdogError,
)
from repro.tasks import (
    AperiodicTask,
    EdfReadyQueue,
    Job,
    JobState,
    PeriodicTask,
    Task,
    TaskSet,
    generate_paper_taskset,
    generate_uunifast_taskset,
    scale_to_utilization,
)

__version__ = "1.0.0"

__all__ = [
    "AperiodicTask",
    "BiasedPredictor",
    "BlackoutSource",
    "BrownoutSource",
    "CompositeSource",
    "ConstantSource",
    "DayNightSource",
    "DeadlineMissPolicy",
    "Decision",
    "DegradedStorage",
    "EaDvfsScheduler",
    "EdfReadyQueue",
    "EnergyOutlook",
    "EnergySource",
    "EnergyStorage",
    "FrequencyLevel",
    "FrequencyScale",
    "GreedyEdfScheduler",
    "HarvestPredictor",
    "HarvestingRtSimulator",
    "IdealStorage",
    "Job",
    "JobState",
    "LastValuePredictor",
    "LazyScheduler",
    "MeanPowerPredictor",
    "NonIdealStorage",
    "OraclePredictor",
    "OverflowAwareEaDvfsScheduler",
    "OverrunWorkload",
    "PeriodicTask",
    "Processor",
    "ProfilePredictor",
    "ScaledSource",
    "Scheduler",
    "SensorDropoutSource",
    "SimulationConfig",
    "SimulationDiagnostics",
    "SimulationResult",
    "SimulationWatchdog",
    "SlowdownPlan",
    "SolarStochasticSource",
    "StretchEdfScheduler",
    "SwitchingOverhead",
    "Task",
    "TaskSet",
    "Trace",
    "TraceSource",
    "WatchdogError",
    "available_schedulers",
    "compute_plan",
    "generate_paper_taskset",
    "generate_uunifast_taskset",
    "make_scheduler",
    "motivational_example_scale",
    "scale_to_utilization",
    "stretch_example_scale",
    "xscale_pxa",
]
