"""The linter is self-hosted: the shipped tree must stay clean.

``src/``, ``benchmarks/``, and ``examples/`` carry zero findings
outright.  ``tests/`` is linted under the relaxed profile and its
accepted findings (exact pytest assertions, mostly RPR101/RPR102) are
pinned in the committed ``lint-baseline.json`` — the full default tree
must be baseline-clean, so a change may not introduce new findings
anywhere nor grow the suppression count, and no suppression may go
stale (CI runs with ``--fail-on-stale``).  If a change trips this,
either fix the violation or add an inline suppression
(``disable=<code> -- why``) with a justification and regenerate the
baseline (see ``docs/static-analysis.md``).
"""

from pathlib import Path

import pytest

from repro.lint import Baseline, lint_paths
from repro.lint import rules_purity
from repro.lint.engine import load_modules
from repro.lint.purity import analyze, certify, parse_manifest

REPO_ROOT = Path(__file__).resolve().parents[2]

DEFAULT_TREE = [
    REPO_ROOT / "src",
    REPO_ROOT / "benchmarks",
    REPO_ROOT / "examples",
    REPO_ROOT / "tests",
]


@pytest.fixture(scope="module")
def default_tree_report():
    """One full default-tree lint run, shared by the tests that read it."""
    return lint_paths(DEFAULT_TREE, root=REPO_ROOT)


@pytest.fixture(scope="module")
def shipped_tree_run():
    """One lint run over src, benchmarks and examples, with the number
    of whole-program purity analyses it built."""
    before = rules_purity.ANALYSIS_BUILDS
    report = lint_paths(
        [
            REPO_ROOT / "src",
            REPO_ROOT / "benchmarks",
            REPO_ROOT / "examples",
        ],
        root=REPO_ROOT,
    )
    return report, rules_purity.ANALYSIS_BUILDS - before


class TestSelfHost:
    def test_src_benchmarks_examples_are_clean(self, shipped_tree_run):
        report, _ = shipped_tree_run
        assert report.files_checked > 80
        assert report.ok, "\n" + report.format_text()

    def test_one_purity_analysis_per_run(self, shipped_tree_run):
        """All seven interprocedural RPR5xx rules share one whole-program
        analysis build per engine run."""
        _, analysis_builds = shipped_tree_run
        assert analysis_builds == 1

    def test_lint_package_lints_itself(self):
        report = lint_paths(
            [REPO_ROOT / "src" / "repro" / "lint"], root=REPO_ROOT
        )
        assert report.ok, "\n" + report.format_text()

    def test_default_tree_is_baseline_clean(self, default_tree_report):
        """The CI gate: no new findings vs the committed baseline."""
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        comparison = baseline.compare(default_tree_report)
        assert comparison.ok, "\n" + comparison.format_text()

    def test_no_stale_suppressions(self, default_tree_report):
        """CI runs with --fail-on-stale; the tree must satisfy it."""
        report = default_tree_report
        stale = "\n".join(d.format_text() for d in report.stale_suppressions)
        assert not report.stale_suppressions, "\n" + stale

    def test_timing_recorded_and_under_budget(self, default_tree_report):
        """The engine shares one parse/tokenize/walk per file across all
        rule families; before PR 10 a full-tree run took ~8.5s on the CI
        baseline box, after it ~4.3s.  The generous ceiling only catches
        a pathological regression (an accidental per-rule re-analysis),
        not scheduler jitter."""
        report = default_tree_report
        assert report.elapsed_seconds is not None
        assert report.elapsed_seconds < 30.0, report.elapsed_seconds
        assert (
            f"in {report.elapsed_seconds:.2f}s" in report.format_text()
        )

    def test_hash_closure_fully_certified(self):
        """The CI purity gate: every checked-in hash-closure root must
        certify deterministic with zero exceptions."""
        manifest_path = REPO_ROOT / "purity-roots.toml"
        manifest = parse_manifest(
            manifest_path.read_text(encoding="utf-8"), path=manifest_path
        )
        assert manifest.hash_closure_roots, "manifest lost its roots"
        modules, extras = load_modules(
            [REPO_ROOT / "src"], root=REPO_ROOT
        )
        assert not extras, extras
        report = certify(analyze(modules), manifest)
        assert report.ok, "\n" + report.format_text()
        assert set(report.certified_refs) == set(
            manifest.hash_closure_roots
        )

    def test_baselined_findings_are_only_comparison_codes(self):
        """The baseline may pin relaxed-profile comparison findings in
        tests/, never a determinism/unit/contract violation."""
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        for path, code, _message in baseline.counts:
            assert path.startswith("tests/"), (path, code)
            assert code in ("RPR101", "RPR102"), (path, code)
