"""Tests for the experiment harness (scaled-down configurations).

These run real simulations with tiny replication counts and short
horizons, validating the *plumbing* of each experiment; the full-shape
reproduction lives in the benchmark harness (see EXPERIMENTS.md).
"""

import os

import numpy as np
import pytest

from repro.experiments.common import PaperSetup, replications, scale_factor
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6_fig7 import (
    RemainingEnergyResult,
    run_fig6,
    run_fig7,
    run_remaining_energy,
)
from repro.experiments.fig8_fig9 import (
    MissRateResult,
    run_fig8,
    run_fig9,
    run_miss_rate_sweep,
)
from repro.experiments.resilience import ResilienceResult, run_resilience
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments import EXPERIMENTS, run_experiment


@pytest.fixture
def fast_setup():
    """Short-horizon setup so experiment tests stay quick."""
    return PaperSetup(horizon=1500.0)


class TestPaperSetup:
    def test_mean_harvest_power(self):
        setup = PaperSetup()
        assert setup.mean_harvest_power() == pytest.approx(3.989, abs=0.01)

    def test_paired_seeding(self, fast_setup):
        """Same seed -> identical world across schedulers."""
        a = fast_setup.run("lsa", 0.4, 100.0, seed=3)
        b = fast_setup.run("ea-dvfs", 0.4, 100.0, seed=3)
        assert a.released_count == b.released_count
        assert a.harvested_energy == pytest.approx(b.harvested_energy)

    def test_predictor_kinds(self, fast_setup):
        for kind in ("profile", "oracle", "mean"):
            setup = PaperSetup(horizon=500.0, predictor_kind=kind)
            result = setup.run("ea-dvfs", 0.4, 100.0, seed=0)
            assert result.released_count > 0
        with pytest.raises(ValueError, match="unknown predictor"):
            PaperSetup(predictor_kind="magic").predictor(None)

    def test_scale_factor_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert scale_factor() == 2.5
        assert replications(4) == 10
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError, match="numeric"):
            scale_factor()
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            scale_factor()

    def test_replications_at_least_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        assert replications(3) == 1


class TestFig5:
    def test_statistics(self):
        result = run_fig5(horizon=2000.0)
        assert result.times.size == 2000
        assert result.powers.min() >= 0.0
        assert result.mean_power == pytest.approx(result.analytic_mean, rel=0.25)
        assert result.peak_power > result.mean_power

    def test_format_text(self):
        text = run_fig5(horizon=500.0).format_text()
        assert "Figure 5" in text
        assert "mean=" in text


class TestFig6Fig7:
    def test_curves_structure(self, fast_setup):
        result = run_remaining_energy(
            utilization=0.4, figure="Figure 6", setup=fast_setup,
            capacities=(100.0, 500.0), n_sets=2, sample_interval=50.0,
        )
        assert set(result.curves) == {"lsa", "ea-dvfs"}
        for curve in result.curves.values():
            assert curve.shape == result.times.shape
            assert np.all((curve >= 0.0) & (curve <= 1.0 + 1e-9))

    def test_low_utilization_advantage_nonnegative(self, fast_setup):
        result = run_remaining_energy(
            utilization=0.4, figure="Figure 6", setup=fast_setup,
            capacities=(50.0, 150.0), n_sets=3, sample_interval=50.0,
        )
        assert result.advantage >= -0.02  # EA-DVFS stores at least as much

    def test_format_text(self, fast_setup):
        result = run_remaining_energy(
            utilization=0.8, figure="Figure 7", setup=fast_setup,
            capacities=(100.0,), n_sets=1, sample_interval=100.0,
        )
        text = result.format_text()
        assert "Figure 7" in text
        assert "EA-DVFS minus LSA" in text


class TestFig8Fig9:
    def test_sweep_structure(self, fast_setup):
        result = run_miss_rate_sweep(
            utilization=0.4, figure="Figure 8", setup=fast_setup,
            reference_capacity=200.0, fractions=(0.1, 0.5, 1.0), n_sets=3,
        )
        assert result.fractions.shape == (3,)
        assert result.curve("lsa").shape == (3,)
        assert 0.0 <= result.mean_reduction <= 1.0

    def test_miss_rates_decline_with_capacity(self, fast_setup):
        result = run_miss_rate_sweep(
            utilization=0.4, figure="Figure 8", setup=fast_setup,
            reference_capacity=300.0, fractions=(0.05, 1.0), n_sets=4,
        )
        for name in ("lsa", "ea-dvfs"):
            curve = result.curve(name)
            assert curve[-1] <= curve[0] + 1e-9

    @pytest.mark.parametrize("blackout", [False, True])
    def test_engines_agree(self, blackout):
        # Both engines run the one supervised sweep path; a faulted
        # setup falls back to the scalar runner on the batch engine.
        from repro.experiments.resilience import ResilienceSetup

        setup = (
            ResilienceSetup(horizon=1500.0, blackout=True)
            if blackout else PaperSetup(horizon=1500.0)
        )
        kwargs = dict(
            utilization=0.4, figure="Figure 8", setup=setup,
            reference_capacity=200.0, fractions=(0.1, 0.5), n_sets=2,
        )
        scalar = run_miss_rate_sweep(engine="scalar", **kwargs)
        batch = run_miss_rate_sweep(engine="batch", **kwargs)
        for name in ("lsa", "ea-dvfs"):
            assert list(batch.curve(name)) == list(scalar.curve(name))

    def test_unknown_utilization_needs_reference(self, fast_setup):
        with pytest.raises(ValueError, match="reference capacity"):
            run_miss_rate_sweep(
                utilization=0.5, figure="x", setup=fast_setup, n_sets=1,
            )

    def test_format_text(self, fast_setup):
        result = run_miss_rate_sweep(
            utilization=0.4, figure="Figure 8", setup=fast_setup,
            reference_capacity=200.0, fractions=(0.1, 1.0), n_sets=2,
        )
        text = result.format_text()
        assert "Figure 8" in text
        assert "reduction" in text


class TestTable1:
    def test_rows_and_ratios(self, fast_setup):
        result = run_table1(
            setup=fast_setup, utilizations=(0.2, 0.6), n_sets=2,
        )
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.cmin_lsa > 0
            assert row.cmin_ea_dvfs > 0
            assert row.ratio == pytest.approx(
                row.cmin_lsa / row.cmin_ea_dvfs
            )
        assert result.ratio(0.2) >= 0.9  # EA-DVFS never needs (much) more

    def test_unknown_utilization_rejected(self, fast_setup):
        result = run_table1(setup=fast_setup, utilizations=(0.2,), n_sets=1)
        with pytest.raises(KeyError):
            result.ratio(0.9)

    def test_format_text(self, fast_setup):
        result = run_table1(setup=fast_setup, utilizations=(0.4,), n_sets=1)
        text = result.format_text()
        assert "Table 1" in text
        assert "paper" in text


class TestRegistry:
    def test_all_experiments_registered(self):
        paper_artifacts = {
            "fig5", "fig6", "fig7", "fig8", "fig9", "table1", "motivation",
        }
        extensions = {"resilience"}
        assert paper_artifacts <= set(EXPERIMENTS)
        assert extensions <= set(EXPERIMENTS)
        # Everything else in the registry is an ablation.
        assert all(
            name in paper_artifacts or name in extensions
            or name.startswith("ablation-")
            for name in EXPERIMENTS
        )

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99")

    def test_motivation_bundle(self):
        bundle = run_experiment("motivation")
        text = bundle.format_text()
        assert "Figure 1" in text
        assert "Figure 3" in text


TINY = PaperSetup(horizon=400.0)

#: Every experiment grid of the registry at tiny scale.  Ablations run
#: at their default horizon; n_sets=1 is their smallest scale.
TINY_GRIDS = {
    "fig6": lambda: run_fig6(setup=TINY, capacities=(50.0,), n_sets=1),
    "fig7": lambda: run_fig7(setup=TINY, capacities=(50.0,), n_sets=1),
    "fig8": lambda: run_fig8(setup=TINY, fractions=(0.2,), n_sets=1),
    "fig9": lambda: run_fig9(setup=TINY, fractions=(0.2,), n_sets=1),
    "table1": lambda: run_table1(setup=TINY, utilizations=(0.4,), n_sets=1),
    "resilience": lambda: run_resilience(
        setup=TINY, n_sets=1, scheduler_names=("lsa",)
    ),
    "ablation-weather": lambda: EXPERIMENTS["ablation-weather"](
        n_sets=1, capacities=(100.0,), horizon=2000.0
    ),
    **{
        name: (lambda runner=runner: runner(n_sets=1))
        for name, runner in EXPERIMENTS.items()
        if name.startswith("ablation-") and name != "ablation-weather"
    },
}


def reported_numbers(result):
    """Every number a grid experiment reports, at full precision."""
    if isinstance(result, RemainingEnergyResult):
        return result.times.tolist(), {
            name: curve.tolist() for name, curve in result.curves.items()
        }
    if isinstance(result, MissRateResult):
        return [result.curve(name).tolist() for name in ("lsa", "ea-dvfs")]
    if isinstance(result, Table1Result):
        return [(row.cmin_lsa, row.cmin_ea_dvfs) for row in result.rows]
    if isinstance(result, ResilienceResult):
        return dict(result.miss_rates)
    return result.metrics


class TestEngineParity:
    """Each fig6/fig7 and ablation cell runs on either engine with
    bit-identical numbers: a variant the batch core replays must really
    be the world its scalar run simulates."""

    @pytest.mark.parametrize(
        "name",
        ["fig6"] + sorted(n for n in TINY_GRIDS if n.startswith("ablation-")),
    )
    def test_engines_agree(self, monkeypatch, name):
        monkeypatch.delenv("REPRO_JOURNAL", raising=False)
        results = {}
        for engine in ("scalar", "batch"):
            monkeypatch.setenv("REPRO_ENGINE", engine)
            results[engine] = TINY_GRIDS[name]()
        assert reported_numbers(results["batch"]) == reported_numbers(
            results["scalar"]
        )
        assert results["batch"].format_text() == (
            results["scalar"].format_text()
        )


class TestJournalResume:
    @pytest.mark.parametrize("name", sorted(TINY_GRIDS))
    def test_rerun_is_answered_from_the_journal(
        self, tmp_path, monkeypatch, name
    ):
        path = tmp_path / "grid.journal"
        monkeypatch.setenv("REPRO_JOURNAL", str(path))
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        first = TINY_GRIDS[name]()
        size = os.path.getsize(path)
        second = TINY_GRIDS[name]()
        assert os.path.getsize(path) == size  # no record appended
        assert reported_numbers(second) == reported_numbers(first)
        assert second.format_text() == first.format_text()

    def test_every_grid_is_covered(self):
        grids = set(EXPERIMENTS) - {"fig5", "motivation"}
        assert set(TINY_GRIDS) == grids
