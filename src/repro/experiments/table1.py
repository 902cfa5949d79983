"""Table 1 — ratio of minimum zero-miss storage capacities, LSA / EA-DVFS.

Protocol (section 5.4): for each utilization in {0.2, 0.4, 0.6, 0.8},
find the smallest storage capacity at which each scheduler sustains a
zero deadline miss rate (pooled over the replicated task sets), and
report ``Cmin,LSA / Cmin,EA-DVFS``.  The paper measures 2.5 / 1.33 /
1.05 / 1.01 — a large advantage at low utilization decaying to parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.capacity import CapacitySearchResult, find_min_capacity
from repro.experiments.common import PaperSetup, replications, workers

__all__ = ["Table1Row", "Table1Result", "run_table1", "PAPER_TABLE1_RATIOS"]

#: The paper's measured ratios, for side-by-side reporting.
PAPER_TABLE1_RATIOS: dict[float, float] = {0.2: 2.5, 0.4: 1.33, 0.6: 1.05, 0.8: 1.01}

_SCHEDULERS = ("lsa", "ea-dvfs")


@dataclass(frozen=True)
class Table1Row:
    """Minimum capacities and their ratio at one utilization."""

    utilization: float
    cmin_lsa: float
    cmin_ea_dvfs: float
    lsa_search: CapacitySearchResult
    ea_search: CapacitySearchResult

    @property
    def ratio(self) -> float:
        return self.cmin_lsa / self.cmin_ea_dvfs


@dataclass(frozen=True)
class Table1Result:
    """The full reproduced Table 1."""

    rows: tuple[Table1Row, ...]
    n_sets: int

    def ratio(self, utilization: float) -> float:
        for row in self.rows:
            if row.utilization == utilization:
                return row.ratio
        raise KeyError(f"no row for U={utilization!r}")

    def format_text(self) -> str:
        header = (
            "Table 1: minimum zero-miss storage capacity ratio "
            f"Cmin,LSA / Cmin,EA-DVFS ({self.n_sets} task sets)\n"
            "   U    Cmin,LSA  Cmin,EA   ratio   paper"
        )
        lines = [header]
        for row in self.rows:
            paper = PAPER_TABLE1_RATIOS.get(row.utilization)
            paper_text = f"{paper:5.2f}" if paper is not None else "    -"
            lines.append(
                f"{row.utilization:5.2f} {row.cmin_lsa:9.1f} "
                f"{row.cmin_ea_dvfs:8.1f} {row.ratio:7.2f}   {paper_text}"
            )
        return "\n".join(lines)


def run_table1(
    setup: PaperSetup | None = None,
    utilizations: Sequence[float] = (0.2, 0.4, 0.6, 0.8),
    n_sets: int | None = None,
    initial_capacity: float = 20.0,
    rel_tol: float = 0.02,
) -> Table1Result:
    """Search the minimum zero-miss capacity per scheduler and utilization.

    Every capacity probe is one supervised sweep
    (:func:`~repro.runtime.sweep.run_journaled_sweep`; ``$REPRO_ENGINE``
    and ``$REPRO_WORKERS`` apply).  When ``$REPRO_JOURNAL`` names a
    journal file, every probe checkpoints through it: the search sequence is deterministic, so a
    killed run replayed against the same journal answers the already
    probed capacities from disk and resumes the bisection where it died.
    """
    from repro.analysis.metrics import pooled_miss_rate
    from repro.analysis.parallel import RunSpec
    from repro.runtime.sweep import journal_from_env, run_journaled_sweep

    setup = setup or PaperSetup()
    if n_sets is None:
        n_sets = replications(4)
    seeds = range(n_sets)
    n_workers = workers()
    journal = journal_from_env()
    rows = []
    try:
        for utilization in utilizations:
            searches = {}
            for name in _SCHEDULERS:

                def miss_fn(capacity: float, _name: str = name) -> float:
                    specs = [
                        RunSpec(_name, utilization, capacity, seed, setup=setup)
                        for seed in seeds
                    ]
                    report = run_journaled_sweep(
                        specs, journal=journal, max_workers=n_workers
                    )
                    return pooled_miss_rate(report.complete_results())

                searches[name] = find_min_capacity(
                    miss_fn,
                    initial=initial_capacity,
                    rel_tol=rel_tol,
                )
            rows.append(
                Table1Row(
                    utilization=utilization,
                    cmin_lsa=searches["lsa"].min_capacity,
                    cmin_ea_dvfs=searches["ea-dvfs"].min_capacity,
                    lsa_search=searches["lsa"],
                    ea_search=searches["ea-dvfs"],
                )
            )
    finally:
        if journal is not None:
            journal.close()
    return Table1Result(rows=tuple(rows), n_sets=n_sets)
