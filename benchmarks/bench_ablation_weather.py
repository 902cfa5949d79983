"""Ablation — robustness of the EA-DVFS advantage to the source model.

The paper's eq. (13) source redraws its randomness every time unit, so
droughts cannot outlast the deterministic envelope trough.  Real solar
exhibits temporally-correlated weather.  This bench swaps in the
regime-switching :class:`~repro.energy.source.MarkovWeatherSource`
(clear/cloudy Markov chain, expected regime length 50 time units) and
re-runs the Figure-8-style comparison.

Expected shape: EA-DVFS keeps a clear miss-rate advantage over LSA under
correlated droughts — the paper's conclusion is not an artifact of the
i.i.d. source.
"""

from repro.experiments.ablations import run_weather_ablation


def test_weather_robustness_ablation(report):
    result = run_weather_ablation()
    report("ablation_weather", result.format_text())

    rates = result.metrics["rates"]
    for cell in rates.values():
        assert cell["ea-dvfs"] <= cell["lsa"] + 1e-9
    # Somewhere in the starved region the advantage is substantial.
    best_gap = max(
        (cell["lsa"] - cell["ea-dvfs"]) / cell["lsa"]
        for cell in rates.values()
        if cell["lsa"] > 0.01
    )
    assert best_gap > 0.25
