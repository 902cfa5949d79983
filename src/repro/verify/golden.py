"""Golden-trace regression store.

Small, fast configurations of the paper experiments are serialized to
canonical JSON (:func:`repro.serialization.canonical_json` — sorted keys,
floats normalized to 10 significant digits, newline-terminated) and
pinned under ``tests/golden/``.  A regression test recomputes each
payload and compares it byte-for-byte against the pinned file; any
numeric drift fails loudly with a structured diff summary.

Refreshing the fixtures after an *intentional* change:

    PYTHONPATH=src python -m pytest tests/golden -q --update-golden

(the ``--update-golden`` flag flips every :class:`GoldenStore` into
write-through mode; commit the rewritten JSON with the change that
caused it).
"""

from __future__ import annotations

import difflib
from pathlib import Path
from typing import Any, Union

from repro.serialization import atomic_write_text, canonical_json

__all__ = [
    "GoldenMismatch",
    "GoldenStore",
    "golden_ablations_payload",
    "golden_fig5_payload",
    "golden_fig6_payload",
    "golden_table1_payload",
    "golden_resilience_payload",
]

#: Diff lines shown before truncation — enough to locate the drift
#: without drowning the test log in a full payload dump.
_MAX_DIFF_LINES = 40


class GoldenMismatch(AssertionError):
    """A recomputed payload no longer matches its pinned fixture."""

    def __init__(self, name: str, path: Path, diff_summary: str) -> None:
        super().__init__(
            f"golden fixture {name!r} ({path}) does not match the "
            f"recomputed payload.\n{diff_summary}\n"
            f"If the change is intentional, refresh with:\n"
            f"    pytest tests/golden -q --update-golden"
        )
        self.name = name
        self.path = path
        self.diff_summary = diff_summary


def _diff_summary(expected: str, actual: str) -> str:
    """Unified diff of fixture vs recomputed text, truncated for the log."""
    diff = list(difflib.unified_diff(
        expected.splitlines(),
        actual.splitlines(),
        fromfile="pinned",
        tofile="recomputed",
        lineterm="",
        n=2,
    ))
    changed = sum(1 for line in diff if line[:1] in "+-"
                  and line[:3] not in ("+++", "---"))
    shown = diff[:_MAX_DIFF_LINES]
    if len(diff) > _MAX_DIFF_LINES:
        shown.append(
            f"... {len(diff) - _MAX_DIFF_LINES} more diff lines omitted"
        )
    return f"{changed} changed lines:\n" + "\n".join(shown)


class GoldenStore:
    """Directory of pinned canonical-JSON fixtures.

    ``update=True`` (the ``--update-golden`` flow) rewrites fixtures
    instead of comparing; :meth:`check` then always passes and reports
    whether the bytes changed.
    """

    def __init__(self, root: Union[str, Path], update: bool = False) -> None:
        self._root = Path(root)
        self._update = bool(update)

    @property
    def root(self) -> Path:
        return self._root

    @property
    def update(self) -> bool:
        return self._update

    def path_for(self, name: str) -> Path:
        return self._root / f"{name}.json"

    def check(self, name: str, payload: Any) -> bool:
        """Compare ``payload`` against the pinned fixture ``name``.

        Returns ``True`` when the fixture is (now) up to date.  Raises
        :class:`GoldenMismatch` on drift, :class:`FileNotFoundError` when
        the fixture is missing and ``update`` is off.
        """
        path = self.path_for(name)
        actual = canonical_json(payload)
        if self._update:
            self._root.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, actual)
            return True
        if not path.exists():
            raise FileNotFoundError(
                f"golden fixture {name!r} is missing ({path}); generate it "
                f"with: pytest tests/golden -q --update-golden"
            )
        expected = path.read_text()
        if expected != actual:
            raise GoldenMismatch(name, path, _diff_summary(expected, actual))
        return True


# -- payload builders ------------------------------------------------------
#
# Deliberately tiny configurations: the point is bit-stability of the
# analytic pipeline, not statistical power, so each payload must build in
# a couple of seconds inside the tier-1 suite.


def golden_fig5_payload() -> dict[str, Any]:
    """Source statistics of a short fig. 5 sample (seed 0)."""
    from repro.experiments.common import PaperSetup
    from repro.experiments.fig5 import run_fig5

    result = run_fig5(setup=PaperSetup(), seed=0, horizon=240.0, step=2.0)
    return {
        "experiment": "fig5",
        "config": {"seed": 0, "horizon": 240.0, "step": 2.0},
        "mean_power": result.mean_power,
        "analytic_mean": result.analytic_mean,
        "peak_power": result.peak_power,
        "times": list(result.times),
        "powers": list(result.powers),
    }


def golden_table1_payload() -> dict[str, Any]:
    """Minimum-capacity search on a reduced table 1 grid."""
    from repro.experiments.common import PaperSetup
    from repro.experiments.table1 import run_table1

    setup = PaperSetup(horizon=400.0)
    result = run_table1(
        setup=setup,
        utilizations=(0.2, 0.6),
        n_sets=2,
        initial_capacity=20.0,
        rel_tol=0.05,
    )
    return {
        "experiment": "table1",
        "config": {
            "horizon": 400.0,
            "utilizations": [0.2, 0.6],
            "n_sets": 2,
            "initial_capacity": 20.0,
            "rel_tol": 0.05,
        },
        "rows": [
            {
                "utilization": row.utilization,
                "cmin_lsa": row.cmin_lsa,
                "cmin_ea_dvfs": row.cmin_ea_dvfs,
                "ratio": row.ratio,
            }
            for row in result.rows
        ],
    }


def golden_resilience_payload() -> dict[str, Any]:
    """Pooled miss rates of a reduced fault-injection sweep."""
    from repro.experiments.common import PaperSetup
    from repro.experiments.resilience import run_resilience

    result = run_resilience(
        utilization=0.6,
        capacity=150.0,
        setup=PaperSetup(horizon=400.0),
        n_sets=2,
        scenarios=("baseline", "blackout"),
        scheduler_names=("lsa", "ea-dvfs"),
    )
    return {
        "experiment": "resilience",
        "config": {
            "utilization": 0.6,
            "capacity": 150.0,
            "horizon": 400.0,
            "n_sets": 2,
            "scenarios": ["baseline", "blackout"],
            "schedulers": ["lsa", "ea-dvfs"],
        },
        "miss_rates": {
            f"{scenario}/{scheduler}": rate
            for (scenario, scheduler), rate in sorted(
                result.miss_rates.items()
            )
        },
        "failures": len(result.failures),
    }


def golden_fig6_payload() -> dict[str, Any]:
    """Remaining-energy curves of a reduced figure 6."""
    from repro.experiments.common import PaperSetup
    from repro.experiments.fig6_fig7 import run_remaining_energy

    result = run_remaining_energy(
        utilization=0.4,
        figure="Figure 6",
        setup=PaperSetup(horizon=400.0),
        capacities=(50.0, 200.0),
        n_sets=1,
    )
    return {
        "experiment": "fig6",
        "config": {
            "utilization": 0.4,
            "horizon": 400.0,
            "capacities": [50.0, 200.0],
            "n_sets": 1,
        },
        "times": list(result.times),
        "curves": {name: list(curve) for name, curve in result.curves.items()},
        "advantage": result.advantage,
    }


def golden_ablations_payload() -> dict[str, Any]:
    """Metrics of every DESIGN.md ablation at one task set."""
    from repro.experiments import ablations

    weather = {"capacities": (100.0,), "horizon": 2000.0}
    runners = {
        "predictor": ablations.run_predictor_ablation,
        "rectification": ablations.run_rectification_ablation,
        "switch-overhead": ablations.run_switch_overhead_ablation,
        "nonideal-storage": ablations.run_nonideal_storage_ablation,
        "dvfs-granularity": ablations.run_dvfs_granularity_ablation,
        "overflow-aware": ablations.run_overflow_aware_ablation,
        "aet": ablations.run_aet_ablation,
    }
    metrics = {name: run(n_sets=1).metrics for name, run in runners.items()}
    metrics["weather"] = ablations.run_weather_ablation(
        n_sets=1, **weather
    ).metrics
    return {
        "experiment": "ablations",
        "config": {"n_sets": 1, "weather": weather},
        "metrics": metrics,
    }


#: name -> builder, the registry iterated by the golden regression test.
GOLDEN_PAYLOADS = {
    "ablations_small": golden_ablations_payload,
    "fig5_small": golden_fig5_payload,
    "fig6_small": golden_fig6_payload,
    "table1_small": golden_table1_payload,
    "resilience_small": golden_resilience_payload,
}

__all__.append("GOLDEN_PAYLOADS")
