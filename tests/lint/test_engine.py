"""Engine mechanics: suppressions, output formats, error paths."""

import json

import pytest

from repro.lint import Diagnostic, LintError, all_rules, lint_paths, lint_source
from repro.lint.engine import (
    SYNTAX_ERROR_CODE,
    UNKNOWN_SUPPRESSION_CODE,
    Rule,
    parse_suppressions,
)

VIOLATION = "import random\n"


class TestRegistry:
    def test_rules_are_registered_with_unique_codes(self):
        rules = all_rules()
        codes = [rule.code for rule in rules]
        assert len(codes) == len(set(codes))
        # One representative per family.
        assert "RPR001" in codes  # determinism
        assert "RPR301" in codes  # API contracts
        assert "RPR402" in codes  # float doctrine
        assert "RPR506" in codes  # commit path

    def test_rules_carry_names_and_descriptions(self):
        for rule in all_rules():
            assert rule.name, rule.code
            assert rule.description, rule.code


class TestSuppressions:
    def test_inline_disable_silences_the_code(self):
        clean = lint_source("import random  # repro-lint: disable=RPR001\n")
        assert clean.ok

    def test_inline_disable_with_note(self):
        clean = lint_source(
            "import random  # repro-lint: disable=RPR001 -- demo only\n"
        )
        assert clean.ok

    def test_disable_only_covers_named_codes(self):
        report = lint_source("import random  # repro-lint: disable=RPR002\n")
        assert [d.code for d in report.diagnostics] == ["RPR001"]

    def test_disable_all(self):
        assert lint_source("import random  # repro-lint: disable=all\n").ok

    def test_file_level_disable(self):
        source = (
            "# repro-lint: disable-file=RPR001\n"
            "import random\n"
            "import random\n"
        )
        assert lint_source(source).ok

    def test_unknown_code_in_suppression_is_reported(self):
        report = lint_source("x = 1  # repro-lint: disable=RPR999x\n")
        assert [d.code for d in report.diagnostics] == [
            UNKNOWN_SUPPRESSION_CODE
        ]

    def test_marker_after_other_comment_text(self):
        table, unknown = parse_suppressions(
            "x = 1  # guard; repro-lint: disable=RPR004 -- sorted later\n"
        )
        assert table.is_suppressed(1, "RPR004")
        assert not unknown


class TestOutput:
    def test_syntax_error_becomes_diagnostic(self):
        report = lint_source("def broken(:\n")
        assert [d.code for d in report.diagnostics] == [SYNTAX_ERROR_CODE]
        assert not report.ok

    def test_text_output_mentions_path_line_and_code(self):
        report = lint_source(VIOLATION, filename="pkg/mod.py")
        text = report.format_text()
        assert "pkg/mod.py:1:1: RPR001" in text
        assert "1 finding(s)" in text

    def test_json_output_round_trips(self):
        report = lint_source(VIOLATION, filename="pkg/mod.py")
        payload = json.loads(report.to_json())
        assert payload["ok"] is False
        assert payload["counts"] == {"RPR001": 1}
        assert payload["findings"][0]["line"] == 1

    def test_clean_report_says_so(self):
        report = lint_source("x = 1\n")
        assert report.ok
        assert "no findings" in report.format_text()

    def test_duplicate_diagnostics_are_collapsed(self):
        # A rule that reaches one node twice reports it twice; the
        # report keeps a single finding.
        class TwiceRule(Rule):
            code = "RPR001"
            name = "twice"
            description = "flags the first statement twice"

            def check_module(self, ctx):
                for _ in range(2):
                    yield ctx.diagnostic(ctx.tree.body[0], self.code, "x")

        report = lint_source("x = 1\n", rules=[TwiceRule()])
        assert [d.code for d in report.diagnostics] == ["RPR001"]


class TestPaths:
    def test_missing_path_raises_lint_error(self, tmp_path):
        with pytest.raises(LintError):
            lint_paths([tmp_path / "nope"], root=tmp_path)

    def test_directory_walk_and_relative_display(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text(VIOLATION)
        (pkg / "b.py").write_text("x = 1\n")
        report = lint_paths([pkg], root=tmp_path)
        assert report.files_checked == 2
        assert [d.path for d in report.diagnostics] == ["pkg/a.py"]

    def test_diagnostics_sorted_by_position(self, tmp_path):
        (tmp_path / "z.py").write_text(VIOLATION)
        (tmp_path / "a.py").write_text("import random\nimport random\n")
        report = lint_paths([tmp_path], root=tmp_path)
        keys = [d.sort_key() for d in report.diagnostics]
        assert keys == sorted(keys)

    def test_non_python_files_are_skipped(self, tmp_path):
        (tmp_path / "notes.txt").write_text("import random\n")
        report = lint_paths([tmp_path / "notes.txt"], root=tmp_path)
        assert report.files_checked == 0
        assert report.ok


class TestDiagnostic:
    def test_format_text(self):
        diag = Diagnostic(
            path="a.py", line=3, col=7, code="RPR001", message="boom"
        )
        assert diag.format_text() == "a.py:3:7: RPR001 boom"
