"""Figure 7 — normalized remaining energy at high utilization (U = 0.8).

Paper claim: "EA-DVFS-based system only has slightly more stored energy
than the LSA-based system" — at high utilization the processor rarely
gets to slow down, so the curves nearly coincide.

The shape check compares against the Figure 6 configuration: the EA-DVFS
advantage at U = 0.8 must be a small fraction of the U = 0.4 advantage
(measured on the scarce supplement, where both are resolvable above
noise).
"""

from repro.experiments.fig6_fig7 import run_fig7, run_remaining_energy

SCARCE_CAPACITIES = (30.0, 60.0, 100.0, 150.0)


def test_fig7_paper_capacities(report):
    result = run_fig7()
    report("fig7_remaining_energy_high_u", result.format_text())

    # Near-coincident curves: tiny (possibly zero) advantage.
    assert abs(result.advantage) < 0.05
    for curve in result.curves.values():
        assert curve.min() >= -1e-9
        assert curve.max() <= 1.0 + 1e-9


def test_fig7_gap_shrinks_vs_fig6(report):
    def run_both():
        low = run_remaining_energy(
            utilization=0.4,
            figure="Figure 6 (scarce)",
            capacities=SCARCE_CAPACITIES,
        )
        high = run_remaining_energy(
            utilization=0.8,
            figure="Figure 7 (scarce)",
            capacities=SCARCE_CAPACITIES,
        )
        return low, high

    low_u, high_u = run_both()
    report(
        "fig7_gap_comparison",
        f"EA-DVFS advantage at U=0.4: {low_u.advantage:+.4f}\n"
        f"EA-DVFS advantage at U=0.8: {high_u.advantage:+.4f}",
    )
    # The paper's contrast: 'significantly more' at 0.4 vs 'slightly
    # more' at 0.8.
    assert low_u.advantage > 0.0
    assert high_u.advantage < 0.6 * low_u.advantage
