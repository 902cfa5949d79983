"""The linter is self-hosted: the default tree must stay clean.

``src/``, ``benchmarks/``, ``examples/`` and ``tests/`` (the last under
the relaxed profile) carry zero findings, no suppression may go stale
(a stale one fails ``repro lint`` like a finding), and the suppression
count may not grow past its pin.  If a change trips this, fix the
violation, or add an inline suppression (``disable=<code> -- why``) with
its justification and raise :data:`SUPPRESSION_CAP` in the same change,
so that every new suppression is a visible, reviewed edit (see
``docs/static-analysis.md``).
"""

from pathlib import Path

import pytest

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The shipped tree: linted under the strict profile.
SHIPPED_TREE = ("src", "benchmarks", "examples")

DEFAULT_TREE = [REPO_ROOT / name for name in (*SHIPPED_TREE, "tests")]

#: Suppression slots (``disable=`` codes per line plus ``disable-file=``
#: codes) allowed across the default tree.  Every one carries a
#: ``-- why`` note.
SUPPRESSION_CAP = 4


@pytest.fixture(scope="module")
def default_tree_report():
    """One full default-tree lint run, shared by the tests that read it."""
    return lint_paths(DEFAULT_TREE, root=REPO_ROOT)


class TestSelfHost:
    def test_default_tree_is_baseline_clean(self, default_tree_report):
        """The CI gate: the accepted baseline is zero findings anywhere
        in the default tree, ``tests/`` included."""
        report = default_tree_report
        assert report.files_checked > 80
        assert report.ok, "\n" + report.format_text()

    def test_src_benchmarks_examples_are_clean(self, default_tree_report):
        """The shipped tree carries zero findings, read off the shared
        default-tree run (no second lint of the same files)."""
        shipped = [REPO_ROOT / name for name in SHIPPED_TREE]
        n_files = sum(len(list(d.rglob("*.py"))) for d in shipped)
        assert n_files > 80
        findings = [
            d
            for d in default_tree_report.diagnostics
            if d.path.split("/", 1)[0] in SHIPPED_TREE
        ]
        assert not findings, "\n" + "\n".join(
            d.format_text() for d in findings
        )

    def test_suppression_count_is_capped(self, default_tree_report):
        """Silencing a finding instead of fixing it must raise the cap."""
        assert default_tree_report.suppression_count <= SUPPRESSION_CAP

    def test_lint_package_lints_itself(self):
        report = lint_paths(
            [REPO_ROOT / "src" / "repro" / "lint"], root=REPO_ROOT
        )
        assert report.ok, "\n" + report.format_text()

    def test_no_stale_suppressions(self, default_tree_report):
        """A stale suppression fails ``repro lint``; the tree has none."""
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
