"""Tests for the scalar↔batch parity registry and RPR410.

The load-bearing case is the *mutation* test: take the real vectorized
scheduler module, flip one numpy call in a copy, and assert RPR410
fires — that is the doctrine drift the pin exists to catch.  The pin
freshness test keeps ``_PINNED`` honest against the working tree, so a
kernel edit cannot land without refreshing the pin it invalidates.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import PAIRS, lint_source
from repro.lint import parity
from repro.lint.parity import (
    FunctionRef,
    _first_divergence,
    _load_side,
    extract_fingerprint,
    find_function,
    main,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

SCHED_VECTORIZED = REPO_ROOT / "src" / "repro" / "sched" / "vectorized.py"
ENERGY_VECTORIZED = REPO_ROOT / "src" / "repro" / "energy" / "vectorized.py"


def _parse(snippet: str) -> ast.Module:
    return ast.parse(textwrap.dedent(snippet))


def _rpr410(report) -> list:
    return [d for d in report.diagnostics if d.code == "RPR410"]


class TestFingerprint:
    def test_postorder_tokens(self):
        tree = _parse(
            """
            def f(a, b):
                return (a - b) * max(a, b)
            """
        )
        assert extract_fingerprint(tree, "f") == ("sub", "max", "mul")

    def test_scalar_and_batch_spellings_normalize(self):
        scalar = _parse(
            """
            def f(a, b):
                return math.pow(max(a, 0.0), b)
            """
        )
        batch = _parse(
            """
            def f(a, b):
                return _libm_pow(np.maximum(a, 0.0), b)
            """
        )
        assert extract_fingerprint(scalar, "f") == extract_fingerprint(
            batch, "f"
        )

    def test_np_power_fingerprints_differently_from_libm(self):
        simd = _parse(
            """
            def f(a, b):
                return np.power(a, b)
            """
        )
        libm = _parse(
            """
            def f(a, b):
                return _libm_pow(a, b)
            """
        )
        assert extract_fingerprint(simd, "f") != extract_fingerprint(
            libm, "f"
        )

    def test_missing_function_returns_none(self):
        assert extract_fingerprint(_parse("X = 1"), "f") is None

    def test_find_method_inside_class(self):
        tree = _parse(
            """
            class Box:
                def get(self):
                    return 1
            """
        )
        func = find_function(tree, "Box.get")
        assert func is not None and func.name == "get"
        assert find_function(tree, "Box.missing") is None
        assert find_function(tree, "Other.get") is None


class TestRegistry:
    def test_every_referenced_module_exists(self):
        for pair in PAIRS:
            for ref in (pair.scalar, pair.batch):
                assert (REPO_ROOT / "src" / ref.path).exists(), ref

    def test_pins_match_working_tree(self):
        # `--print` output pasted into _PINNED must never go stale: a
        # kernel edit has to refresh the pin in the same commit.
        for pair in PAIRS:
            for side in ("scalar", "batch"):
                ref: FunctionRef = getattr(pair, side)
                actual = _load_side(str(REPO_ROOT), ref)
                assert actual is not None, (pair.name, side)
                assert actual == parity._PINNED[pair.name][side], (
                    pair.name,
                    side,
                )

    def test_suffix_matching_ignores_lint_root(self):
        ref = FunctionRef("repro/timeutils.py", "time_le")
        assert ref.matches_module("repro/timeutils.py")
        assert ref.matches_module("src/repro/timeutils.py")
        assert ref.matches_module("deep/checkout/src/repro/timeutils.py")
        assert not ref.matches_module("repro/other.py")
        assert not ref.matches_module("otherrepro/timeutils.py")


class TestParityRule:
    def test_real_module_is_clean(self):
        report = lint_source(
            SCHED_VECTORIZED.read_text(encoding="utf-8"),
            filename="src/repro/sched/vectorized.py",
        )
        assert _rpr410(report) == []

    def test_mutated_kernel_fires_rpr410(self):
        # The acceptance-criteria demonstration: flip one numpy call in
        # a copy of the real scheduler kernels and the pin must catch it.
        source = SCHED_VECTORIZED.read_text(encoding="utf-8")
        assert "np.maximum(" in source
        mutated = source.replace("np.maximum(", "np.minimum(", 1)
        report = lint_source(
            mutated, filename="src/repro/sched/vectorized.py"
        )
        findings = _rpr410(report)
        assert findings, "pin did not catch the max->min mutation"
        assert any("diverged" in d.message for d in findings)

    def test_missing_registered_function_fires_rpr410(self):
        report = lint_source(
            "X = 1\n", filename="src/repro/energy/vectorized.py"
        )
        findings = _rpr410(report)
        assert findings
        assert all("not found" in d.message for d in findings)

    def test_missing_pin_fires_rpr410(self, monkeypatch):
        monkeypatch.delitem(parity._PINNED["snap-tail"], "batch")
        report = lint_source(
            ENERGY_VECTORIZED.read_text(encoding="utf-8"),
            filename="src/repro/energy/vectorized.py",
        )
        findings = _rpr410(report)
        assert len(findings) == 1
        assert "no pinned fingerprint" in findings[0].message

    def test_unrelated_module_not_checked(self):
        report = lint_source("X = 1\n", filename="src/repro/fake.py")
        assert _rpr410(report) == []


class TestFirstDivergence:
    def test_mismatch(self):
        msg = _first_divergence(("add", "mul"), ("add", "sub"))
        assert "op 1" in msg and "'mul'" in msg and "'sub'" in msg

    def test_extra_op(self):
        assert "extra op at 1" in _first_divergence(("add",), ("add", "mul"))

    def test_missing_op(self):
        assert "missing op at 1" in _first_divergence(("add", "mul"), ("add",))


class TestCli:
    def test_coverage_reaches_every_scheduler(self):
        from repro.sched.vectorized import SCHEDULER_KINDS

        covered = {name for pair in PAIRS for name in pair.covers}
        assert covered == set(SCHEDULER_KINDS)

    def test_print_emits_pastable_literal(self, capsys):
        assert main(["--print", "--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("_PINNED")
        assert "'compute-plan': {" in out

    def test_requires_a_mode(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entry_point_runs_without_runtime_warning(self, capsys):
        # ``-m`` must find the module not yet imported by its package,
        # or runpy warns that it executes a second copy.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.lint.parity", "--print", "--root", str(REPO_ROOT)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""
        assert main(["--print", "--root", str(REPO_ROOT)]) == 0
        assert out.stdout == capsys.readouterr().out
