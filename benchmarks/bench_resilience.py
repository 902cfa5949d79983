"""Resilience — miss rates under injected blackouts and WCET overruns.

Not a paper figure: a robustness check of the paper's headline claim.
If EA-DVFS's advantage over LSA/EDF only existed in the fault-free
world of section 5, it would be fragile; this bench asserts the
ordering survives harvest blackouts and overrunning jobs, and that the
fault injection actually bites (faulted scenarios miss more than the
baseline).

Standalone quick mode (finishes well under a minute)::

    PYTHONPATH=src python benchmarks/bench_resilience.py --quick
"""

import pytest

from repro.experiments.resilience import SCENARIOS, run_resilience

pytestmark = pytest.mark.slow


def test_resilience_fault_ordering(report):
    result = run_resilience()
    report("resilience", result.format_text())

    rates = result.miss_rates
    schedulers = result.scheduler_names
    assert result.scenarios == SCENARIOS
    # Every cell completed: no salvaged failures in a healthy run.
    assert result.failures == ()

    for name in schedulers:
        base = rates[("baseline", name)]
        blackout = rates[("blackout", name)]
        overrun = rates[("overrun", name)]
        both = rates[("blackout+overrun", name)]
        # Faults bite: each injected fault strictly raises the miss rate,
        # and the combined scenario is at least as bad as either alone.
        assert blackout > base + 1e-3
        assert overrun > base + 1e-3
        assert both >= blackout - 1e-9
        assert both >= overrun - 1e-9

    # The paper's ordering survives the faults: EA-DVFS misses least in
    # every scenario, including the fully faulted one.
    for scenario in SCENARIOS:
        ea = rates[(scenario, "ea-dvfs")]
        assert ea <= rates[(scenario, "lsa")] + 1e-9
        assert ea <= rates[(scenario, "edf")] + 1e-9


def main(argv=None) -> None:
    """Standalone entry point (``--quick`` for a sub-minute smoke run)."""
    import argparse

    from repro.experiments.common import PaperSetup

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short horizon and few seeds; finishes in a few seconds",
    )
    args = parser.parse_args(argv)
    if args.quick:
        result = run_resilience(
            setup=PaperSetup(horizon=2_000.0), n_sets=2
        )
    else:
        result = run_resilience()
    print(result.format_text())


if __name__ == "__main__":
    main()
