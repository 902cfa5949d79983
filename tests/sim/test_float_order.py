"""Results do not depend on the Python version's ``sum()``.

From Python 3.12 on, builtin ``sum()`` adds Python floats with Neumaier
compensation, so its last bit can differ from 3.10's and 3.11's plain
left-to-right adds.  Every float sum that reaches a result goes through
:func:`repro.timeutils.ordered_sum` instead.  These tests replace
``builtins.sum`` with a Python port of the 3.12 algorithm and check that
the pinned digests and one engine-parity grid do not move, so the proof
holds on whichever interpreter runs them.
"""

import builtins
import hashlib
import math
import random
import sys

import pytest

from repro.sched.vectorized import SCHEDULER_KINDS
from repro.timeutils import ordered_sum
from repro.verify.scenarios import random_scenario
from tests.experiments.test_experiments import TINY_GRIDS, reported_numbers
from tests.sim.test_scalar_digests import (
    PINNED,
    RANDOM_SCENARIOS_DIGEST,
    result_digest,
    run_cell,
)


def compensated_sum(iterable, /, start=0):
    """Python 3.12's ``sum()``: exact ints, then Neumaier-compensated
    exact floats (with ints added plainly), then plain ``+`` for
    anything else."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(item) not in (int, bool):
                break
    if type(total) is not float:
        for item in items:
            total = total + item
        return total
    f, c = total, 0.0
    for item in items:
        if type(item) not in (float, int, bool):
            if c and math.isfinite(c):
                f += c
            total = f + item
            for item in items:
                total = total + item
            return total
        if type(item) is not float:
            f += item  # ints join the float sum uncompensated
            continue
        t = f + item
        c += (f - t) + item if abs(f) >= abs(item) else (item - t) + f
        f = t
    if c and math.isfinite(c):
        f += c
    return f


@pytest.fixture
def python312_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)


class TestEmulation:
    def test_compensation_is_visible(self):
        values = [1e16, 1.0, 1.0]
        assert compensated_sum(values) == 1.0000000000000002e16
        assert ordered_sum(values) == 1e16

    def test_non_floats_take_the_generic_path(self):
        assert compensated_sum([1, 2, 3]) == 6
        assert compensated_sum([[1], [2]], []) == [1, 2]
        assert compensated_sum([0.5, 1, True]) == 2.5

    @pytest.mark.skipif(
        sys.version_info < (3, 12), reason="builtin sum() is not compensated"
    )
    def test_matches_the_builtin(self):
        rng = random.Random(0)
        for _ in range(200):
            values = [
                rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-8, 8)
                if rng.random() < 0.9 else rng.randint(-5, 5)
                for _ in range(rng.randint(0, 30))
            ]
            assert compensated_sum(values) == sum(values)


class TestResultsIgnoreCompensatedSum:
    @pytest.mark.parametrize("spec, expected", PINNED)
    def test_cell_digest_is_pinned(self, python312_sum, spec, expected):
        assert result_digest(run_cell(spec)) == expected

    def test_random_scenarios_digest_is_pinned(self, python312_sum):
        combined = hashlib.sha256()
        for seed in range(20):
            spec = random_scenario(seed, allow_faults=True)
            for name in SCHEDULER_KINDS:
                combined.update(result_digest(spec.run(name)).encode("ascii"))
        assert combined.hexdigest() == RANDOM_SCENARIOS_DIGEST

    def test_engine_parity_grid(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOURNAL", raising=False)
        grid = TINY_GRIDS["ablation-overflow-aware"]
        monkeypatch.setenv("REPRO_ENGINE", "scalar")
        reference = reported_numbers(grid())
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        for engine in ("scalar", "batch"):
            monkeypatch.setenv("REPRO_ENGINE", engine)
            assert reported_numbers(grid()) == reference
