"""Figure 5 — energy source behavior (eq. (13)).

Regenerates the paper's source-behavior plot: one realization of
``PS(t) = 10 |N(t)| cos^2(t/70pi)`` over the 10,000-unit horizon.  Shape
checks: non-negative signal, peaks around 20, long-run mean near the
analytic value, and the ~690.9-unit envelope periodicity.
"""

import numpy as np

from repro.energy.source import SOLAR_ENVELOPE_PERIOD
from repro.experiments.fig5 import run_fig5


def test_fig5_source_behavior(report):
    result = run_fig5()
    report("fig5_source", result.format_text())

    assert result.powers.min() >= 0.0
    # Peaks: the paper's plot tops out around 20 (2-sigma draws at crest).
    assert 12.0 <= result.peak_power <= 45.0
    # Long-run mean close to the closed form.
    assert abs(result.mean_power - result.analytic_mean) < 0.15 * result.analytic_mean
    # Envelope periodicity: power collected near crests dwarfs troughs.
    period = SOLAR_ENVELOPE_PERIOD
    phase = result.times % period
    crest = result.powers[(phase < period * 0.1) | (phase > period * 0.9)]
    trough = result.powers[np.abs(phase - period / 2) < period * 0.1]
    assert crest.mean() > 5.0 * max(trough.mean(), 1e-9)
