"""Figure 9 — deadline miss rate vs. normalized capacity at U = 0.8.

Paper claim: "EA-DVFS algorithm performs as well as LSA algorithm does"
at high workload — the processor seldom has slack to trade, so the two
curves come close together (while EA-DVFS still never does worse).
"""

from repro.experiments.fig8_fig9 import run_fig8, run_fig9


def test_fig9_miss_rate_high_utilization(report):
    result = run_fig9()
    report("fig9_miss_rate_high_u", result.format_text())

    lsa = result.curve("lsa")
    ea = result.curve("ea-dvfs")
    assert (ea <= lsa + 1e-9).all()
    # Both decline with capacity and reach (near-)zero at the top end.
    assert lsa[-1] <= lsa[0]
    assert ea[-1] < 0.02
    assert lsa[-1] < 0.02


def test_fig9_gap_narrower_than_fig8(report):
    """The relative EA-DVFS advantage shrinks from U=0.4 to U=0.8."""
    low, high = run_fig8(), run_fig9()
    report(
        "fig9_gap_comparison",
        f"mean miss-rate reduction at U=0.4: {low.mean_reduction:.1%}\n"
        f"mean miss-rate reduction at U=0.8: {high.mean_reduction:.1%}",
    )
    assert high.mean_reduction < low.mean_reduction
