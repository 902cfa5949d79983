"""Figures 6 & 7 — normalized remaining energy over time, LSA vs EA-DVFS.

Protocol (section 5.2): 5 periodic tasks; storage capacity swept over
{200, 300, 500, 1000, 2000, 3000, 5000}; the stored-energy trace of each
run is normalized by its capacity and the curves are averaged with equal
weight per capacity.  Figure 6 uses U=0.4 (EA-DVFS stores significantly
more), Figure 7 uses U=0.8 (the curves nearly coincide).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.metrics import energy_series
from repro.experiments.common import PaperSetup, replications, workers
from repro.plotting import ascii_plot

__all__ = [
    "PAPER_CAPACITIES",
    "RemainingEnergyResult",
    "run_fig6",
    "run_fig7",
    "run_remaining_energy",
]

#: Section 5.2: "the capacity is set to 200, 300, 500, 1000, 2000, 3000
#: and 5000".
PAPER_CAPACITIES: tuple[float, ...] = (
    200.0, 300.0, 500.0, 1000.0, 2000.0, 3000.0, 5000.0,
)

_SCHEDULERS = ("lsa", "ea-dvfs")


@dataclass(frozen=True)
class RemainingEnergyResult:
    """Averaged normalized remaining-energy curves."""

    figure: str
    utilization: float
    times: np.ndarray
    curves: dict[str, np.ndarray]  # scheduler -> mean normalized energy
    capacities: tuple[float, ...]
    n_sets: int

    def mean_level(self, scheduler_name: str) -> float:
        """Time-averaged normalized remaining energy of one scheduler."""
        return float(self.curves[scheduler_name].mean())

    @property
    def advantage(self) -> float:
        """Mean EA-DVFS level minus mean LSA level (paper: > 0 at U=0.4)."""
        return self.mean_level("ea-dvfs") - self.mean_level("lsa")

    def format_text(self) -> str:
        chart = ascii_plot(
            {name: (self.times, curve) for name, curve in self.curves.items()},
            title=(
                f"{self.figure}: normalized remaining energy "
                f"(U={self.utilization}, {self.n_sets} task sets)"
            ),
            xlabel="time",
            ylabel="EC/C",
            y_min=0.0,
            y_max=1.0,
        )
        rows = [
            f"{name}: time-mean EC/C = {self.mean_level(name):.4f}"
            for name in self.curves
        ]
        rows.append(f"EA-DVFS minus LSA mean level: {self.advantage:+.4f}")
        return chart + "\n" + "\n".join(rows)


def run_remaining_energy(
    utilization: float,
    figure: str,
    setup: PaperSetup | None = None,
    capacities: Sequence[float] = PAPER_CAPACITIES,
    n_sets: int | None = None,
    sample_interval: float = 25.0,
) -> RemainingEnergyResult:
    """Average normalized remaining-energy curves over capacities and seeds.

    One :func:`~repro.runtime.sweep.run_journaled_sweep` of energy-sampled
    cells; the samples are journaled with each result.
    """
    from repro.analysis.parallel import RunSpec
    from repro.runtime.sweep import run_journaled_sweep

    setup = setup or PaperSetup()
    if n_sets is None:
        n_sets = replications(3)
    specs = [
        RunSpec(
            scheduler_name,
            utilization,
            capacity,
            seed,
            setup=setup,
            energy_sample_interval=sample_interval,
        )
        for scheduler_name in _SCHEDULERS
        for capacity in capacities
        for seed in range(n_sets)
    ]
    results = run_journaled_sweep(specs, max_workers=workers()).complete_results()
    times, _ = energy_series(results[0])
    curves = {}
    for name in _SCHEDULERS:
        fractions = [
            energy_series(result)[1]
            for spec, result in zip(specs, results)
            if spec.scheduler_name == name
        ]
        n = min(times.size, *(f.size for f in fractions))
        curves[name] = sum(f[:n] for f in fractions) / len(fractions)
        times = times[:n]
    return RemainingEnergyResult(
        figure=figure,
        utilization=utilization,
        times=times,
        curves=curves,
        capacities=tuple(capacities),
        n_sets=n_sets,
    )


def run_fig6(**kwargs) -> RemainingEnergyResult:
    """Figure 6: U = 0.4 — EA-DVFS stores significantly more energy."""
    return run_remaining_energy(utilization=0.4, figure="Figure 6", **kwargs)


def run_fig7(**kwargs) -> RemainingEnergyResult:
    """Figure 7: U = 0.8 — the two policies nearly coincide."""
    return run_remaining_energy(utilization=0.8, figure="Figure 7", **kwargs)
