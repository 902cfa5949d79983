"""Ablation — DVFS ladder granularity.

The paper uses five XScale operating points.  How much does EA-DVFS
leave on the table versus an (almost) continuous cubic-power ladder, and
how much worse is a processor with no DVFS at all (full speed only,
where EA-DVFS degenerates to LSA)?
"""

from repro.experiments.ablations import run_dvfs_granularity_ablation


def test_dvfs_granularity_ablation(report):
    result = run_dvfs_granularity_ablation()
    report("ablation_dvfs_granularity", result.format_text())

    rates = result.metrics["rates"]
    # Having DVFS at all buys a lot over single-speed. Extra granularity
    # is roughly neutral: the dense ladder's very slow levels stretch
    # deeper, which helps energy but erodes the timing margin, so it can
    # land slightly on either side of the 5-point XScale ladder.
    assert rates["xscale-5"] <= rates["single-speed"]
    assert abs(rates["continuous-32"] - rates["xscale-5"]) < 0.05
    assert rates["single-speed"] > rates["xscale-5"]
