#!/usr/bin/env python
"""Storage sizing: how small a super-capacitor can the node ship with?

Reproduces the methodology behind the paper's Table 1 on a single
workload: for each scheduler, bisect for the smallest storage capacity
that sustains a zero deadline miss rate over the replicated runs, then
report the LSA/EA-DVFS ratio — the headline "at least 25% smaller
storage" claim of the abstract.

Run:  python examples/capacity_sizing.py            (quick, 3 task sets)
      REPRO_SCALE=5 python examples/capacity_sizing.py  (tighter)
"""

from repro.analysis.capacity import find_min_capacity
from repro.analysis.metrics import pooled_miss_rate
from repro.analysis.parallel import RunSpec
from repro.experiments.common import PaperSetup, replications
from repro.runtime.sweep import run_journaled_sweep

UTILIZATION = 0.3
SCHEDULERS = ("edf", "lsa", "ea-dvfs")


def main() -> None:
    setup = PaperSetup()
    n_sets = replications(3)
    seeds = range(n_sets)

    print(
        f"minimum zero-miss capacity at U={UTILIZATION} "
        f"({n_sets} task sets, horizon {setup.horizon:g}):\n"
    )
    minima = {}
    for name in SCHEDULERS:

        def miss_fn(capacity: float, _name=name) -> float:
            specs = [
                RunSpec(_name, UTILIZATION, capacity, seed, setup=setup)
                for seed in seeds
            ]
            report = run_journaled_sweep(specs)
            return pooled_miss_rate(report.complete_results())

        search = find_min_capacity(miss_fn, initial=20.0, rel_tol=0.02)
        minima[name] = search.min_capacity
        print(
            f"  {name:12s} Cmin = {search.min_capacity:8.1f} "
            f"({search.evaluations} simulations of the sweep)"
        )

    print(
        f"\n  Cmin(LSA) / Cmin(EA-DVFS) = "
        f"{minima['lsa'] / minima['ea-dvfs']:.2f}"
        f"   (paper's Table 1 at low utilization: 1.3 - 2.5)"
    )
    print(
        f"  Cmin(EDF) / Cmin(EA-DVFS) = "
        f"{minima['edf'] / minima['ea-dvfs']:.2f}"
        f"   (energy-oblivious EDF as an extra baseline)"
    )


if __name__ == "__main__":
    main()
