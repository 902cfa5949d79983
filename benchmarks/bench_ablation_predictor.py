"""Ablation — harvest-predictor fidelity (design choice in DESIGN.md).

EA-DVFS budgets energy with the predicted ES(t, D).  This bench swaps
the paper's profile predictor for an oracle and a running mean at a
scarce capacity and compares miss rates.

Expected shape: the oracle is (statistically) the best, and every online
predictor lands close to it — the eq. (13) source's per-quantum noise
averages out across a deadline window, so EA-DVFS is robust to
prediction fidelity.
"""

from repro.experiments.ablations import run_predictor_ablation


def test_predictor_ablation(report):
    result = run_predictor_ablation()
    report("ablation_predictor", result.format_text())

    rates = result.metrics["rates"]
    # Online predictors stay within a small absolute band of the oracle.
    for kind in ("profile", "mean"):
        assert rates[kind] <= rates["oracle"] + 0.05
    # Sanity: this capacity actually stresses the system a little.
    assert max(rates.values()) < 0.5
