"""Tests for the regime-switching (Markov weather) source."""

import numpy as np
import pytest

from repro.energy.source import MarkovWeatherSource


class TestMarkovWeatherSource:
    def test_deterministic_given_seed(self):
        a = MarkovWeatherSource(seed=4)
        b = MarkovWeatherSource(seed=4)
        ts = np.linspace(0, 800, 200)
        assert [a.power(float(t)) for t in ts] == [
            b.power(float(t)) for t in ts
        ]

    def test_out_of_order_queries_consistent(self):
        a = MarkovWeatherSource(seed=9)
        late = a.power(500.0)
        b = MarkovWeatherSource(seed=9)
        b.power(3.0)
        assert b.power(500.0) == late

    def test_non_negative_and_bounded(self):
        src = MarkovWeatherSource(seed=1, clear_power=8.0)
        values = [src.power(float(t)) for t in range(1000)]
        assert all(0.0 <= v <= 8.0 for v in values)

    def test_constant_within_quantum(self):
        src = MarkovWeatherSource(seed=2)
        assert src.power(5.1) == src.power(5.9)

    def test_regimes_are_persistent(self):
        """With persistence 0.98 the state flips far less often than a
        Bernoulli coin would."""
        src = MarkovWeatherSource(seed=3, persistence=0.98)
        states = [src._state(i) for i in range(2000)]
        flips = sum(1 for a, b in zip(states, states[1:]) if a != b)
        assert flips < 2000 * 0.1  # ~2% expected, 50% for i.i.d.

    def test_expected_regime_length(self):
        src = MarkovWeatherSource(persistence=0.95)
        assert src.expected_regime_length() == pytest.approx(20.0)

    def test_cloudy_attenuates(self):
        src = MarkovWeatherSource(seed=5, cloudy_factor=0.1,
                                  envelope_period=1e9)  # flat envelope
        values = np.array([src.power(float(t)) for t in range(3000)])
        clear = values[values > values.max() * 0.5]
        cloudy = values[(values > 0) & (values <= values.max() * 0.5)]
        assert cloudy.size > 0 and clear.size > 0
        assert cloudy.mean() == pytest.approx(clear.mean() * 0.1, rel=0.05)

    def test_mean_power_matches_empirical(self):
        src = MarkovWeatherSource(seed=6)
        horizon = 40_000.0
        empirical = src.energy(0.0, horizon) / horizon
        assert empirical == pytest.approx(src.mean_power(), rel=0.15)

    def test_energy_additivity(self):
        src = MarkovWeatherSource(seed=7)
        whole = src.energy(10.0, 300.0)
        parts = src.energy(10.0, 130.0) + src.energy(130.0, 300.0)
        assert whole == pytest.approx(parts)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MarkovWeatherSource(clear_power=-1.0)
        with pytest.raises(ValueError):
            MarkovWeatherSource(cloudy_factor=1.5)
        with pytest.raises(ValueError):
            MarkovWeatherSource(persistence=1.0)
        with pytest.raises(ValueError):
            MarkovWeatherSource(envelope_period=0.0)

    def test_end_to_end_simulation(self):
        """EA-DVFS still beats LSA under correlated weather droughts."""
        from repro.cpu.presets import xscale_pxa
        from repro.energy.predictor import ProfilePredictor
        from repro.energy.storage import IdealStorage
        from repro.sched.registry import make_scheduler
        from repro.sim.simulator import (
            HarvestingRtSimulator,
            SimulationConfig,
        )
        from repro.tasks.workload import generate_paper_taskset

        scale = xscale_pxa()
        misses = {}
        for name in ("lsa", "ea-dvfs"):
            total_missed = total_judged = 0
            for seed in range(3):
                source = MarkovWeatherSource(seed=seed)
                taskset = generate_paper_taskset(
                    n_tasks=5, utilization=0.4, seed=seed,
                    mean_harvest_power=source.mean_power(),
                    max_power=scale.max_power,
                )
                sim = HarvestingRtSimulator(
                    taskset=taskset,
                    source=MarkovWeatherSource(seed=seed),
                    storage=IdealStorage(capacity=150.0),
                    scheduler=make_scheduler(name, scale),
                    predictor=ProfilePredictor(period=400.0, n_bins=32),
                    config=SimulationConfig(horizon=4000.0),
                )
                result = sim.run()
                total_missed += result.missed_count
                total_judged += result.judged_count
            misses[name] = total_missed / total_judged
        assert misses["ea-dvfs"] <= misses["lsa"]
