"""Figure 6 — normalized remaining energy at low utilization (U = 0.4).

Paper claim: "the EA-DVFS-based system stores significantly more energy
than the LSA-based system on average."

Two series are regenerated:

* the paper's capacity sweep {200 ... 5000} — in our calibration most of
  these sit in the energy-abundant regime, so both curves stay high and
  the gap is small but consistently positive;
* a scarce-capacity supplement {30 ... 150} where the storage actually
  works for a living — there the EA-DVFS advantage is an order of
  magnitude larger, mirroring the paper's visual gap (see
  EXPERIMENTS.md for the calibration discussion).
"""

from repro.experiments.fig6_fig7 import run_fig6, run_remaining_energy

SCARCE_CAPACITIES = (30.0, 60.0, 100.0, 150.0)


def test_fig6_paper_capacities(report):
    result = run_fig6()
    report("fig6_remaining_energy_low_u", result.format_text())

    # EA-DVFS stores at least as much energy as LSA on average...
    assert result.advantage >= 0.0
    # ...and both stay within the normalized range.
    for curve in result.curves.values():
        assert curve.min() >= -1e-9
        assert curve.max() <= 1.0 + 1e-9


def test_fig6_scarce_supplement(report):
    result = run_remaining_energy(
        utilization=0.4,
        figure="Figure 6 (scarce-capacity supplement)",
        capacities=SCARCE_CAPACITIES,
    )
    report("fig6_remaining_energy_low_u_scarce", result.format_text())
    # Under real scarcity the advantage is clearly visible (paper:
    # "significantly more").
    assert result.advantage > 0.02
