"""Ablations — the overflow-aware extension and AET variability.

* ``ea-dvfs-oa`` (see ``repro/sched/extensions.py``) at a tiny storage,
  where the storage clips frequently and slow execution can waste
  harvest: the extension must tie or improve on both miss rate and
  overflow waste.
* Actual execution times drawn from 50–100% of WCET: every policy
  improves, and the EA-DVFS advantage over LSA persists (re-deciding at
  each early completion implicitly reclaims the unspent energy budget).
"""

from repro.experiments.ablations import (
    run_aet_ablation,
    run_overflow_aware_ablation,
)


def test_overflow_aware_extension(report):
    result = run_overflow_aware_ablation()
    report("ablation_overflow_aware", result.format_text())

    base_miss, base_ovf = result.metrics["rates"]["ea-dvfs"]
    ext_miss, ext_ovf = result.metrics["rates"]["ea-dvfs-oa"]
    # The extension must not hurt the miss rate (small noise allowance)...
    assert ext_miss <= base_miss + 0.01
    # ...and must not increase wasted harvest.
    assert ext_ovf <= base_ovf * 1.02 + 1.0


def test_aet_variability_ablation(report):
    result = run_aet_ablation()
    report("ablation_aet_variability", result.format_text())

    rates = result.metrics["rates"]
    # Lighter true demand helps both policies...
    assert rates["lsa"][1] <= rates["lsa"][0] + 0.01
    assert rates["ea-dvfs"][1] <= rates["ea-dvfs"][0] + 0.01
    # ...and EA-DVFS keeps its advantage under execution-time variability.
    assert rates["ea-dvfs"][1] <= rates["lsa"][1]
