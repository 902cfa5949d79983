"""Commit-path (RPR506/507) and worker-boundary (RPR508/509) rules."""

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

    def test_allow_list_exempts_function(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "writer.py").write_text(
            textwrap.dedent(
                """
                def legacy_save(path, text):
                    with open(path, "w") as handle:
                        handle.write(text)
                """
            ),
            encoding="utf-8",
        )
        rules = rules_for("RPR506")
        report = lint_paths([pkg], rules=rules)
        assert {diag.code for diag in report.diagnostics} == {"RPR506"}

        (tmp_path / "purity-roots.toml").write_text(
            '[atomic-writers]\nallow = ["pkg/writer.py::legacy_save"]\n',
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


class TestWorkerGlobalMutation:
    def test_submitted_mutator_flagged(self, codes_in):
        codes = codes_in(
            """
            _RESULTS = []

            def work(item):
                _RESULTS.append(item)
                return item

            def run(pool):
                return pool.submit(work, 1)
            """
        )
        assert "RPR508" in codes

    def test_mutation_via_helper_flagged(self, codes_in):
        codes = codes_in(
            """
            _RESULTS = []

            def record(item):
                _RESULTS.append(item)

            def work(item):
                record(item)
                return item

            def run(pool):
                return pool.submit(work, 1)
            """
        )
        assert "RPR508" in codes

    def test_reading_module_constant_allowed(self, codes_in):
        codes = codes_in(
            """
            _SCALE = 2.0

            def work(x):
                return x * _SCALE

            def run(pool):
                return pool.submit(work, 1)
            """
        )
        assert "RPR508" not in codes

    def test_unsubmitted_mutator_not_flagged(self, codes_in):
        codes = codes_in(
            """
            _RESULTS = []

            def work(item):
                _RESULTS.append(item)
                return item
            """
        )
        assert "RPR508" not in codes

    def test_manifest_declared_worker_flagged(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "worker.py").write_text(
            textwrap.dedent(
                """
                _STATE = {}

                def work(item):
                    _STATE[item] = item
                    return item
                """
            ),
            encoding="utf-8",
        )
        (tmp_path / "purity-roots.toml").write_text(
            '[workers]\nfunctions = ["pkg/worker.py::work"]\n',
            encoding="utf-8",
        )
        report = lint_paths([pkg], rules=rules_for("RPR508"))
        assert {diag.code for diag in report.diagnostics} == {"RPR508"}


class TestWorkerCapturedRng:
    def test_module_rng_in_worker_flagged(self, codes_in):
        codes = codes_in(
            """
            import numpy as np

            _RNG = np.random.default_rng(1234)

            def work(x):
                return float(_RNG.normal()) + x

            def run(pool):
                return pool.submit(work, 1)
            """
        )
        assert "RPR509" in codes

    def test_per_task_rng_allowed(self, codes_in):
        codes = codes_in(
            """
            import numpy as np

            def work(seed):
                rng = np.random.default_rng(seed)
                return float(rng.normal())

            def run(pool):
                return pool.submit(work, 7)
            """
        )
        assert "RPR509" not in codes

    def test_module_rng_outside_worker_allowed(self, codes_in):
        codes = codes_in(
            """
            import numpy as np

            _RNG = np.random.default_rng(1234)

            def sample():
                return float(_RNG.normal())
            """
        )
        assert "RPR509" not in codes

