#!/usr/bin/env python
"""Offline design-time analysis and result export.

Before deploying a harvesting node, a designer wants to know — without
simulating — whether the workload is even feasible, how big the storage
must be at minimum, and then validate the paper's scheduler on it and
archive the results.  This example walks that pipeline:

1. generate a workload and check EDF timing feasibility;
2. check the long-run energy balance (full-speed vs. stretched demand);
3. bound the storage from below via the worst harvest deficit;
4. simulate EA-DVFS at 2x that bound with full tracing;
5. render the first stretch of the schedule as an ASCII Gantt chart and
   export the result (JSON) and trace (CSV) for external tooling.

Run:  python examples/offline_analysis.py
"""

import json
import tempfile
from pathlib import Path

from repro.analysis.schedulability import (
    edf_schedulable,
    energy_feasibility,
    max_energy_deficit,
)
from repro.energy.storage import IdealStorage
from repro.experiments.common import PaperSetup
from repro.sched.registry import make_scheduler
from repro.runtime.journal import result_to_payload
from repro.serialization import atomic_write_text, trace_to_csv
from repro.sim.schedule_view import render_gantt
from repro.sim.simulator import HarvestingRtSimulator, SimulationConfig
from repro.sim.tracing import TraceKind

UTILIZATION = 0.4
SEED = 11
HORIZON = 10_000.0


def main() -> None:
    setup = PaperSetup()
    scale = setup.scale()
    source = setup.source(SEED)
    taskset = setup.taskset(SEED, UTILIZATION)

    # 1. Timing feasibility.
    print(f"workload: {taskset}")
    print(f"EDF schedulable: {edf_schedulable(taskset)}")

    # 2. Energy balance.
    fx = energy_feasibility(taskset, source, scale)
    print(
        f"harvest mean {fx.mean_harvest_power:.2f} vs full-speed demand "
        f"{fx.full_speed_demand:.2f} (stretched bound {fx.min_demand:.2f})"
    )

    # 3. Storage lower bound from the worst harvest trough.
    deficit = max_energy_deficit(source, fx.full_speed_demand, HORIZON)
    capacity = 2.0 * max(deficit, 1.0)
    print(f"worst harvest deficit {deficit:.1f} -> provisioning "
          f"capacity {capacity:.1f}")

    # 4. Validate with a fully-traced EA-DVFS simulation.
    simulator = HarvestingRtSimulator(
        taskset=taskset,
        source=source,
        storage=IdealStorage(capacity=capacity),
        scheduler=make_scheduler("ea-dvfs", scale),
        predictor=setup.predictor(source),
        config=SimulationConfig(
            horizon=HORIZON,
            trace_kinds=(
                TraceKind.JOB_START,
                TraceKind.JOB_PREEMPT,
                TraceKind.JOB_COMPLETE,
                TraceKind.JOB_MISS,
                TraceKind.FREQ_CHANGE,
                TraceKind.STALL,
            ),
        ),
    )
    result = simulator.run()
    print()
    print(result.summary())

    # 5. Gantt of the first 200 time units + archival export.
    print()
    print(render_gantt(result.trace, t0=0.0, t1=200.0))
    out_dir = Path(tempfile.mkdtemp(prefix="repro_export_"))
    atomic_write_text(
        out_dir / "result.json",
        json.dumps(result_to_payload(result), indent=2) + "\n",
    )
    rows = trace_to_csv(result.trace, out_dir / "trace.csv")
    print(f"\nexported result.json and trace.csv ({rows} records) "
          f"to {out_dir}")


if __name__ == "__main__":
    main()
