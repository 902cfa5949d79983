"""Figures 1 & 3 — the deterministic worked examples of sections 2 / 4.3.

These reproduce the paper's hand-calculated schedules exactly and anchor
the benchmark harness: if these numbers drift, something is wrong at the
algorithm level, not in the statistics.
"""

import pytest

from repro.experiments.motivation import (
    run_motivational_example,
    run_stretch_example,
)


def _run_bundle():
    return {
        "fig1": {name: run_motivational_example(name)
                 for name in ("lsa", "ea-dvfs", "edf")},
        "fig3": {name: run_stretch_example(name)
                 for name in ("ea-dvfs", "stretch-edf")},
    }


def test_motivational_examples(report):
    bundle = _run_bundle()
    lines = ["Figure 1 (tau2 deadline 21):"]
    lines += ["  " + o.format_text() for o in bundle["fig1"].values()]
    lines.append("Figure 3 (tau2 deadline 17):")
    lines += ["  " + o.format_text() for o in bundle["fig3"].values()]
    report("fig1_fig3_motivational", "\n".join(lines))

    fig1, fig3 = bundle["fig1"], bundle["fig3"]
    # Figure 1 paper numbers: LSA starts tau1 at 12, finishes at 16,
    # tau2 misses; EA-DVFS meets both (tau1 done exactly at s2 = 12).
    lsa_tau1 = next(j for j in fig1["lsa"].result.jobs
                    if j.task.name == "tau1")
    assert lsa_tau1.first_start_time == pytest.approx(12.0)
    assert lsa_tau1.completion_time == pytest.approx(16.0)
    assert not fig1["lsa"].tau2_met
    assert fig1["ea-dvfs"].result.missed_count == 0
    assert fig1["ea-dvfs"].tau1_completion == pytest.approx(12.0)
    # Greedy EDF drains the storage up front and starves tau2 too.
    assert not fig1["edf"].tau2_met

    # Figure 3: the s2 switch-up saves tau2; greedy stretching kills it.
    assert fig3["ea-dvfs"].result.missed_count == 0
    assert fig3["ea-dvfs"].tau2_met
    assert not fig3["stretch-edf"].tau2_met
