"""Taint analysis, manifest parsing, and certification (RPR5xx core)."""

import textwrap
from pathlib import Path

import pytest

from repro.lint import all_rules, lint_paths
from repro.lint.engine import SYNTAX_ERROR_CODE, LintError, _parse_module, load_modules
from repro.lint.purity import (
    PurityClass,
    PurityManifest,
    Taint,
    analyze,
    certify,
    certify_cli,
    explain_chain,
    explain_cli,
    format_chain,
    parse_manifest,
    ref_matches,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def mod(display, source):
    ctx, _extras = _parse_module(
        Path(display), Path("."), textwrap.dedent(source)
    )
    assert ctx is not None, f"fixture {display} failed to parse"
    return ctx


def analysis_of(*pairs):
    return analyze([mod(display, src) for display, src in pairs])


def closure_taints(analysis, key):
    return analysis.closure.get(key, frozenset())


TAINTED_MODULE = (
    "src/pkg/t.py",
    """
    import os
    import random
    import time

    _CACHE = {}
    _ITEMS = []

    def wall():
        return time.time()

    def rand():
        return random.random()

    def env():
        return os.environ["HOME"]

    def fs(path):
        with open(path) as handle:
            return handle.read()

    def unordered():
        return [value for value in {1, 2, 3}]

    def ident(x):
        return id(x)

    def remember(key, value):
        _CACHE[key] = value

    def push(x):
        _ITEMS.append(x)

    def rebind():
        global _COUNT
        _COUNT = 1
    """,
)


class TestDirectTaints:
    @pytest.mark.parametrize(
        ("qualname", "taint"),
        [
            ("wall", Taint.WALL_CLOCK),
            ("rand", Taint.RANDOMNESS),
            ("env", Taint.ENV_FILESYSTEM),
            ("fs", Taint.ENV_FILESYSTEM),
            ("unordered", Taint.UNORDERED),
            ("ident", Taint.IDENTITY),
            ("remember", Taint.GLOBAL_MUTATION),
            ("push", Taint.GLOBAL_MUTATION),
            ("rebind", Taint.GLOBAL_MUTATION),
        ],
    )
    def test_taint_detected(self, qualname, taint):
        analysis = analysis_of(TAINTED_MODULE)
        key = f"src/pkg/t.py::{qualname}"
        assert taint in {site.taint for site in analysis.direct[key]}, (
            qualname,
            analysis.direct[key],
        )

    def test_unseeded_default_rng_flagged(self):
        analysis = analysis_of(
            (
                "src/pkg/r.py",
                """
                import numpy as np

                def fresh():
                    return np.random.default_rng()

                def seeded():
                    return np.random.default_rng(1234)
                """,
            )
        )
        assert Taint.RANDOMNESS in closure_taints(
            analysis, "src/pkg/r.py::fresh"
        )
        assert not closure_taints(analysis, "src/pkg/r.py::seeded")

    def test_local_shadow_is_not_global_mutation(self):
        analysis = analysis_of(
            (
                "src/pkg/s.py",
                """
                _ITEMS = []

                def local_copy():
                    _ITEMS = []
                    _ITEMS.append(1)
                    return _ITEMS
                """,
            )
        )
        assert not closure_taints(analysis, "src/pkg/s.py::local_copy")


class TestFixedPoint:
    def test_taint_propagates_up_call_chain(self):
        analysis = analysis_of(
            (
                "src/pkg/chain.py",
                """
                import time

                def leaf():
                    return time.time()

                def mid():
                    return leaf()

                def root():
                    return mid()
                """,
            )
        )
        for qualname in ("leaf", "mid", "root"):
            key = f"src/pkg/chain.py::{qualname}"
            assert closure_taints(analysis, key) == frozenset(
                {Taint.WALL_CLOCK}
            ), qualname

    def test_mutual_recursion_converges(self):
        analysis = analysis_of(
            (
                "src/pkg/m.py",
                """
                import time

                def even(n):
                    return True if n == 0 else odd(n - 1)

                def odd(n):
                    if n == 17:
                        return time.time() > 0
                    return even(n - 1)
                """,
            )
        )
        assert closure_taints(analysis, "src/pkg/m.py::even") == frozenset(
            {Taint.WALL_CLOCK}
        )

    def test_cross_module_propagation(self):
        analysis = analysis_of(
            (
                "src/pkg/a.py",
                """
                import os

                def read_env():
                    return os.environ.get("HOME")
                """,
            ),
            (
                "src/pkg/b.py",
                """
                from pkg.a import read_env

                def run():
                    return read_env()
                """,
            ),
        )
        assert Taint.ENV_FILESYSTEM in closure_taints(
            analysis, "src/pkg/b.py::run"
        )

    def test_analysis_sees_no_test_module(self):
        analysis = analysis_of(
            TAINTED_MODULE,
            (
                "tests/pkg/test_t.py",
                """
                from pkg.t import wall

                def test_wall():
                    assert wall() > 0
                """,
            ),
        )
        assert set(analysis.graph.modules) == {"src/pkg/t.py"}


class TestClassification:
    def test_pure_deterministic_effectful(self):
        analysis = analysis_of(
            (
                "src/pkg/c.py",
                """
                import time

                _TABLE = {"a": 1}

                def pure(x):
                    return x + 1

                def reads_state(key):
                    return _TABLE[key]

                def effectful():
                    return time.time()
                """,
            )
        )
        cls = analysis.classification
        assert cls["src/pkg/c.py::pure"] is PurityClass.PURE
        assert cls["src/pkg/c.py::reads_state"] is PurityClass.DETERMINISTIC
        assert cls["src/pkg/c.py::effectful"] is PurityClass.EFFECTFUL

    def test_state_read_propagates_to_callers(self):
        analysis = analysis_of(
            (
                "src/pkg/c.py",
                """
                _TABLE = {"a": 1}

                def reads_state(key):
                    return _TABLE[key]

                def caller(key):
                    return reads_state(key)
                """,
            )
        )
        assert (
            analysis.classification["src/pkg/c.py::caller"]
            is PurityClass.DETERMINISTIC
        )


class TestManifestParsing:
    def test_sections_and_arrays(self):
        manifest = parse_manifest(
            textwrap.dedent(
                """
                # top comment
                [hash-closure]
                roots = ["a.py::f", "b.py::g"]  # trailing comment

                [atomic-writers]
                allow = [
                    "c.py::h",  # multi-line entry
                    "d.py::i",
                ]

                [workers]
                functions = []
                """
            )
        )
        assert manifest.hash_closure_roots == ("a.py::f", "b.py::g")
        assert manifest.atomic_allow == ("c.py::h", "d.py::i")
        assert manifest.worker_functions == ()

    def test_hash_inside_string_survives(self):
        manifest = parse_manifest(
            '[hash-closure]\nroots = ["a.py::f#weird"]\n'
        )
        assert manifest.hash_closure_roots == ("a.py::f#weird",)

    def test_bare_line_rejected(self):
        with pytest.raises(LintError, match="unsupported manifest line"):
            parse_manifest("[hash-closure]\nnot a key value pair\n")

    def test_non_array_value_rejected(self):
        with pytest.raises(LintError, match="must be a string array"):
            parse_manifest('[hash-closure]\nroots = "a.py::f"\n')

    def test_unquoted_item_rejected(self):
        with pytest.raises(LintError, match="double-quoted"):
            parse_manifest("[hash-closure]\nroots = [a.py::f]\n")

    def test_checked_in_manifest_parses(self):
        manifest = parse_manifest(
            (REPO_ROOT / "purity-roots.toml").read_text(encoding="utf-8")
        )
        assert "repro/serialization.py::canonical_value" in (
            manifest.hash_closure_roots
        )
        assert manifest.worker_functions


class TestRefMatches:
    def test_suffix_and_exact(self):
        assert ref_matches("repro/a.py::f", "src/repro/a.py", "f")
        assert ref_matches("src/repro/a.py::f", "src/repro/a.py", "f")
        assert not ref_matches("repro/a.py::f", "src/repro/a.py", "g")
        assert not ref_matches("pro/a.py::f", "src/repro/a.py", "f")
        assert not ref_matches("no-separator", "src/repro/a.py", "f")


class TestCertify:
    def test_clean_root_certified(self):
        analysis = analysis_of(
            (
                "src/pkg/clean.py",
                """
                def helper(x):
                    return x * 2

                def root(x):
                    return helper(x) + 1
                """,
            )
        )
        manifest = PurityManifest(
            path=None, hash_closure_roots=("pkg/clean.py::root",)
        )
        report = certify(analysis, manifest)
        assert report.ok
        assert report.certified_refs == ("pkg/clean.py::root",)
        assert "certified" in report.format_text()

    def test_tainted_root_fails(self):
        analysis = analysis_of(
            (
                "src/pkg/dirty.py",
                """
                import time

                def helper():
                    return time.time()

                def root():
                    return helper()
                """,
            )
        )
        manifest = PurityManifest(
            path=None, hash_closure_roots=("pkg/dirty.py::root",)
        )
        report = certify(analysis, manifest)
        assert not report.ok
        assert report.certified_refs == ()
        text = report.format_text()
        assert "TAINTED" in text
        assert "NOT certified" in text

    def test_unresolved_root_fails(self):
        analysis = analysis_of(("src/pkg/x.py", "def f():\n    return 1\n"))
        manifest = PurityManifest(
            path=None, hash_closure_roots=("pkg/missing.py::f",)
        )
        report = certify(analysis, manifest)
        assert not report.ok
        assert "UNRESOLVED" in report.format_text()


class TestExplainChain:
    def test_chain_reaches_taint_site(self):
        analysis = analysis_of(
            (
                "src/pkg/chain.py",
                """
                import time

                def leaf():
                    return time.time()

                def mid():
                    return leaf()

                def root():
                    return mid()
                """,
            )
        )
        chain, site = explain_chain(
            analysis,
            "src/pkg/chain.py::root",
            frozenset({Taint.WALL_CLOCK}),
        )
        assert chain == [
            "src/pkg/chain.py::root",
            "src/pkg/chain.py::mid",
            "src/pkg/chain.py::leaf",
        ]
        assert site is not None and site.taint is Taint.WALL_CLOCK
        rendered = format_chain(analysis, chain, site)
        assert "(root)" in rendered
        assert "taint: wall-clock read `time.time()`" in rendered

    def test_clean_closure_returns_no_site(self):
        analysis = analysis_of(
            ("src/pkg/clean.py", "def root():\n    return 1\n")
        )
        chain, site = explain_chain(
            analysis,
            "src/pkg/clean.py::root",
            frozenset({Taint.WALL_CLOCK}),
        )
        assert chain == ["src/pkg/clean.py::root"]
        assert site is None


# ---------------------------------------------------------------------------
# Mutation test: injecting a wall-clock read into the real serialization
# module must trip RPR501 on the checked-in hash-closure boundary.
# ---------------------------------------------------------------------------

_INJECTION_ANCHOR = (
    '"""Coerce numpy scalars and non-finite floats into JSON-safe '
    'values."""\n'
)


def _build_tree(tmp_path, inject):
    """Copy the real serialization module into a throwaway lint tree."""
    source = (REPO_ROOT / "src" / "repro" / "serialization.py").read_text(
        encoding="utf-8"
    )
    if inject:
        assert _INJECTION_ANCHOR in source, (
            "injection anchor drifted; update the mutation test"
        )
        source = source.replace(
            _INJECTION_ANCHOR,
            _INJECTION_ANCHOR + "    import time\n    _ = time.time()\n",
            1,
        )
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "serialization.py").write_text(source, encoding="utf-8")
    (tmp_path / "purity-roots.toml").write_text(
        '[hash-closure]\nroots = ["repro/serialization.py::canonical_value"]\n',
        encoding="utf-8",
    )
    return tmp_path / "src"


def _closure_rules():
    return [rule for rule in all_rules() if rule.code.startswith("RPR50")]


class TestMutation:
    def test_pristine_serialization_is_certified(self, tmp_path):
        report = lint_paths([_build_tree(tmp_path, inject=False)],
                            rules=_closure_rules())
        assert report.ok, "\n" + report.format_text()

    def test_injected_wall_clock_trips_rpr501(self, tmp_path):
        report = lint_paths([_build_tree(tmp_path, inject=True)],
                            rules=_closure_rules())
        codes = {diag.code for diag in report.diagnostics}
        assert "RPR501" in codes, "\n" + report.format_text()
        message = next(
            diag.message
            for diag in report.diagnostics
            if diag.code == "RPR501"
        )
        assert "canonical_value" in message
        assert "wall-clock" in message
        assert "--explain-path" in message


class TestExplainCli:
    def test_chain_printed_for_injected_taint(self, tmp_path, capsys):
        tree = _build_tree(tmp_path, inject=True)
        code = explain_cli(
            "RPR501:repro/serialization.py::canonical_value", [tree]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "(root)" in out
        assert "taint: wall-clock read" in out

    def test_clean_closure_exits_zero(self, tmp_path, capsys):
        tree = _build_tree(tmp_path, inject=False)
        code = explain_cli(
            "RPR501:repro/serialization.py::canonical_value", [tree]
        )
        assert code == 0
        assert "closure is clean for RPR501" in capsys.readouterr().out

    def test_bare_qualname_resolves(self, tmp_path, capsys):
        tree = _build_tree(tmp_path, inject=True)
        assert explain_cli("RPR501:canonical_value", [tree]) == 1
        capsys.readouterr()

    def test_bad_spec_rejected(self, tmp_path):
        tree = _build_tree(tmp_path, inject=False)
        with pytest.raises(LintError, match="expects CODE:FUNC"):
            explain_cli("RPR999:whatever", [tree])

    def test_unknown_function_rejected(self, tmp_path):
        tree = _build_tree(tmp_path, inject=False)
        with pytest.raises(LintError, match="no function named"):
            explain_cli("RPR501:does_not_exist", [tree])


class TestCertifyLoading:
    @staticmethod
    def _tree_with_broken_test(tmp_path):
        tree = _build_tree(tmp_path, inject=False)
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_broken.py").write_text("def broken(:\n", encoding="utf-8")
        return tree, tests

    def test_skip_tests_reads_no_test_module(self, tmp_path):
        tree, tests = self._tree_with_broken_test(tmp_path)
        modules, extras = load_modules([tree, tests], root=tmp_path)
        assert [d.code for d in extras] == [SYNTAX_ERROR_CODE]
        modules, extras = load_modules(
            [tree, tests], root=tmp_path, skip_tests=True
        )
        assert extras == []
        assert [ctx.display_path for ctx in modules] == [
            "src/repro/serialization.py"
        ]

    def test_certify_does_not_parse_test_modules(
        self, tmp_path, monkeypatch, capsys
    ):
        self._tree_with_broken_test(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert certify_cli(["src", "tests"]) == 0
        assert "fully certified" in capsys.readouterr().out
