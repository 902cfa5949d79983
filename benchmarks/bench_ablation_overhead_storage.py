"""Ablations — DVFS switching overhead and storage non-ideality.

The paper assumes free voltage switching and an ideal storage
(sections 3.2 / 5.1).  These benches quantify how much either assumption
is worth:

* switching overhead: EA-DVFS switches levels a few hundred times per
  10k-unit run; charging time+energy per switch should degrade it only
  marginally;
* non-ideal storage (90%/90% conversion, small leak): both schedulers
  lose energy, miss rates rise, but the EA-DVFS advantage over LSA
  persists.
"""

from repro.experiments.ablations import (
    run_nonideal_storage_ablation,
    run_switch_overhead_ablation,
)


def test_switch_overhead_ablation(report):
    result = run_switch_overhead_ablation()
    report("ablation_switch_overhead", result.format_text())

    free = result.metrics["free"]
    costly = result.metrics["costly"]
    # Overhead can only hurt, and the paper's negligibility assumption
    # holds: the degradation stays small in absolute terms.
    assert costly >= free - 0.01
    assert costly - free < 0.10
    assert result.metrics["switches_per_run"] > 10


def test_nonideal_storage_ablation(report):
    result = run_nonideal_storage_ablation()
    report("ablation_nonideal_storage", result.format_text())

    rates = result.metrics["rates"]
    # Losses hurt both policies...
    assert rates["lsa"][1] >= rates["lsa"][0] - 0.01
    assert rates["ea-dvfs"][1] >= rates["ea-dvfs"][0] - 0.01
    # ...but the EA-DVFS advantage over LSA survives non-ideality.
    assert rates["ea-dvfs"][1] <= rates["lsa"][1]
