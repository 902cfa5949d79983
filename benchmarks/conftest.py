"""Shared fixtures for the figure-reproduction suite.

Every figure or ablation bench regenerates one paper table or figure,
asserts its *shape* (who wins, roughly by how much, where the curves
close up) and reports the rendered result:

* to the terminal (bypassing pytest capture so ``pytest benchmarks/``
  still shows the tables), and
* to ``benchmarks/results/<name>.txt`` for EXPERIMENTS.md bookkeeping.

None of them records time: sweepbench (``BENCHMARK.json``) is the one
timing harness, and ``bench_batch_throughput.py`` is a pass/fail gate.

Replication counts scale with the ``REPRO_SCALE`` environment variable
(see ``repro.experiments.common``).
"""

from __future__ import annotations

import pathlib
import sys

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report():
    """Callable writing a rendered experiment result to screen + file."""

    def _report(name: str, text: str) -> None:
        from repro.serialization import atomic_write_text

        RESULTS_DIR.mkdir(exist_ok=True)
        atomic_write_text(RESULTS_DIR / f"{name}.txt", text + "\n")
        banner = "=" * 72
        print(f"\n{banner}\n{name}\n{banner}\n{text}\n", file=sys.__stdout__)

    return _report
