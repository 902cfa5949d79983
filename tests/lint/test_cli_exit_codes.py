"""Exit-code contract of ``repro lint`` end to end.

The CLI promises 0 = clean, 1 = findings (or a tripped gate), 2 =
usage/internal error.  These tests drive :func:`repro.cli.main` over a
throwaway tree so stale suppressions are exercised exactly the way CI
invokes them.
"""

from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: One RPR001 finding: an import of the stdlib global-state RNG.
FINDING = "import random\n"

#: A suppression matching no finding: stale (RPR903).
STALE = "count = 1  # repro-lint: disable=RPR001 -- nothing to suppress\n"


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """Chdir into a throwaway tree with a src/repro package dir."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    monkeypatch.chdir(tmp_path)

    def write(name: str, source: str) -> None:
        (pkg / name).write_text(source, encoding="utf-8")

    return write


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree):
        tree("clean.py", "X = 1\n")
        assert main(["lint", "src"]) == 0

    def test_findings_exit_one(self, tree, capsys):
        tree("dirty.py", FINDING)
        assert main(["lint", "src"]) == 1
        assert "RPR001" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tree, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "error" in capsys.readouterr().err


class TestStaleSuppressions:
    def test_stale_suppression_exits_one(self, tree, capsys):
        tree("hushed.py", STALE)
        assert main(["lint", "src"]) == 1
        assert "stale suppression" in capsys.readouterr().out

    WRAPPER = (
        "class WrapScheduler(Scheduler):"
        "  # repro-lint: disable=RPR302 -- internal\n"
        "    name = 'wrap'\n"
        "    def decide(self, now, ready, outlook):\n"
        "        return None\n"
    )

    @pytest.mark.parametrize("with_registry", [False, True])
    def test_project_rule_is_judged_only_when_it_decides(
        self, tree, capsys, with_registry
    ):
        # RPR302 needs sched/registry.py in the run to decide.  Without
        # it the suppression is left alone; with it (and the class
        # registered there) the suppression matches nothing.
        tree("wrapper.py", self.WRAPPER)
        if with_registry:
            Path("src/repro/sched").mkdir()
            tree("sched/registry.py", "BUILTINS = [WrapScheduler]\n")
        assert main(["lint", "src"]) == int(with_registry)
        assert ("disable=RPR302" in capsys.readouterr().out) == with_registry

    def test_partial_run_of_oracles_is_clean(self, capsys):
        oracles = REPO_ROOT / "src" / "repro" / "verify" / "oracles.py"
        assert main(["lint", str(oracles)]) == 0, capsys.readouterr().out
