"""Commit-path rules (RPR506/507, ``repro.lint.rules_commit``)."""

import textwrap

from repro.lint import all_rules, lint_paths


def rules_for(*codes):
    return [rule for rule in all_rules() if rule.code in codes]


class TestAtomicWrite:
    def test_bare_write_open_flagged(self, codes_in):
        assert "RPR506" in codes_in(
            """
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """
        )

    def test_write_text_flagged(self, codes_in):
        assert "RPR506" in codes_in(
            """
            def save(path, text):
                path.write_text(text)
            """
        )

    def test_append_and_exclusive_modes_flagged(self, codes_in):
        for mode in ("a", "x", "wb"):
            codes = codes_in(
                f"""
                def save(path, text):
                    with open(path, {mode!r}) as handle:
                        handle.write(text)
                """
            )
            assert "RPR506" in codes, mode

    def test_read_mode_not_flagged(self, codes_in):
        assert "RPR506" not in codes_in(
            """
            def load(path):
                with open(path) as handle:
                    return handle.read()

            def load_explicit(path):
                with open(path, "r") as handle:
                    return handle.read()
            """
        )

    def test_fsyncing_function_exempt(self, codes_in):
        codes = codes_in(
            """
            import os

            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
                    handle.flush()
                    os.fsync(handle.fileno())
            """
        )
        assert "RPR506" not in codes

    def test_aliased_open_flagged(self, codes_in):
        assert "RPR506" in codes_in(
            """
            def _cmd_sweep(args, text):
                _open = open
                with _open(args.export, "w") as handle:
                    handle.write(text)
            """
        )

    def test_module_scope_write_flagged(self, codes_in):
        assert "RPR506" in codes_in(
            """
            with open("state.txt", "w") as handle:
                handle.write("boot")
            """
        )

    def test_tests_profile_exempt(self, codes_in):
        codes = codes_in(
            """
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """,
            filename="tests/fake_test.py",
        )
        assert "RPR506" not in codes

    def test_suppression_exempts_function(self, tmp_path):
        """A deliberately crash-unsafe writer is exempted inline, with
        its reason, like any other finding."""
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        writer = pkg / "writer.py"
        source = textwrap.dedent(
            """
            def legacy_save(path, text):
                with open(path, "w") as handle:{suppression}
                    handle.write(text)
            """
        )
        writer.write_text(source.format(suppression=""), encoding="utf-8")
        rules = rules_for("RPR506")
        report = lint_paths([pkg], rules=rules)
        assert {diag.code for diag in report.diagnostics} == {"RPR506"}

        writer.write_text(
            source.format(
                suppression="  # repro-lint: disable=RPR506 -- torn is fine"
            ),
            encoding="utf-8",
        )
        report = lint_paths([pkg], rules=rules)
        assert report.ok, "\n" + report.format_text()


class TestRenameWithoutFsync:
    def test_bare_replace_flagged(self, codes_in):
        assert "RPR507" in codes_in(
            """
            import os

            def commit(tmp, dst):
                os.replace(tmp, dst)
            """
        )

    def test_bare_rename_flagged(self, codes_in):
        assert "RPR507" in codes_in(
            """
            import os

            def commit(tmp, dst):
                os.rename(tmp, dst)
            """
        )

    def test_aliased_writer_without_fsync_flagged(self, codes_in):
        codes = codes_in(
            """
            import os

            _open = open
            _commit = os.replace

            def atomic_write_text(path, text):
                tmp = str(path) + ".tmp"
                with _open(tmp, "w") as handle:
                    handle.write(text)
                _commit(tmp, path)
            """
        )
        assert "RPR506" in codes
        assert "RPR507" in codes

    def test_fsync_before_rename_exempt(self, codes_in):
        codes = codes_in(
            """
            import os

            def commit(path, text):
                tmp = str(path) + ".tmp"
                with open(tmp, "w") as handle:
                    handle.write(text)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            """
        )
        assert "RPR507" not in codes

    def test_string_replace_not_flagged(self, codes_in):
        """``str.replace`` shares the method name but is not a rename."""
        codes = codes_in(
            """
            def normalize(text):
                return text.replace("a", "b")
            """
        )
        assert "RPR507" not in codes
