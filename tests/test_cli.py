"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_quick_defaults(self):
        args = build_parser().parse_args(["quick"])
        assert args.scheduler == "ea-dvfs"
        assert args.utilization == 0.4


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out
        assert "ea-dvfs" in out
        assert "lsa" in out

    def test_quick(self, capsys):
        code = main(
            [
                "quick", "--scheduler", "lsa", "--capacity", "100",
                "--horizon", "500", "--predictor", "oracle",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheduler=lsa" in out
        assert "miss_rate" in out

    def test_run_motivation(self, capsys):
        assert main(["run", "motivation"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "completed in" in out

    def test_run_fig5(self, capsys):
        assert main(["run", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_quick_with_exports_and_gantt(self, capsys, tmp_path):
        json_path = tmp_path / "result.json"
        csv_path = tmp_path / "trace.csv"
        code = main(
            [
                "quick", "--scheduler", "ea-dvfs", "--capacity", "100",
                "--horizon", "300", "--json", str(json_path),
                "--trace-csv", str(csv_path), "--gantt",
                "--gantt-until", "100",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "full speed" in out  # gantt legend
        assert json_path.exists()
        assert csv_path.exists()
        import json

        payload = json.loads(json_path.read_text())
        assert payload["scheduler_name"] == "ea-dvfs"  # result_to_payload

    def test_traced_quick_prints_the_plain_summary(self, capsys):
        # Tracing the schedule for the Gantt chart changes no result.
        args = [
            "quick", "--scheduler", "ea-dvfs", "--capacity", "40",
            "--horizon", "600", "--seed", "3",
        ]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--gantt"]) == 0
        traced = capsys.readouterr().out
        assert "full speed" in traced  # the chart was drawn
        assert traced.startswith(plain.rstrip("\n") + "\n\n")

    def test_feasibility(self, capsys):
        assert main(
            ["feasibility", "--utilization", "0.4", "--deficit-horizon",
             "2000"]
        ) == 0
        out = capsys.readouterr().out
        assert "EDF schedulable (timing): True" in out
        assert "sustainable at full speed: True" in out
        assert "storage lower bound" in out


class TestVerifyCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.n == 100
        assert args.seed == 0
        assert not args.no_faults

    @pytest.mark.differential
    def test_clean_sweep_exits_zero(self, capsys):
        assert main(["verify", "--n", "5", "--seed", "0", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "no discrepancies found" in out
        assert "5 scenarios" in out

    @pytest.mark.differential
    def test_no_faults_sweep(self, capsys):
        assert main(
            ["verify", "--n", "3", "--seed", "7", "--no-faults", "--quiet"]
        ) == 0
        assert "no discrepancies" in capsys.readouterr().out

    def test_rejects_nonpositive_n(self, capsys):
        assert main(["verify", "--n", "0", "--quiet"]) == 2
        assert "--n must be >= 1" in capsys.readouterr().err

class TestLintCommand:
    """Exit-code contract mirrors `repro verify`: 0 clean, 1 findings,
    2 internal errors."""

    def test_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == ["src", "benchmarks", "examples", "tests"]
        assert args.output_format == "text"

    def test_clean_tree_exits_zero(self, capsys, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert main(["lint", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "1 finding(s)" in out

    def test_missing_path_exits_two(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path / "missing.py")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_format(self, capsys, tmp_path):
        import json

        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert main(["lint", "--format", "json", str(dirty)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts"] == {"RPR001": 1}

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "RPR301" in out

    def test_suppression_respected_end_to_end(self, capsys, tmp_path):
        quiet = tmp_path / "quiet.py"
        quiet.write_text("import random  # repro-lint: disable=RPR001\n")
        assert main(["lint", str(quiet)]) == 0

    def test_self_hosted_run_is_clean(self, capsys):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        code = main(
            ["lint", str(root / "src"), str(root / "benchmarks")]
        )
        assert code == 0, capsys.readouterr().out


class TestVerifyDiscrepancies:
    def test_discrepancies_exit_nonzero(self, capsys, monkeypatch):
        from repro.verify import DifferentialReport, Discrepancy
        import repro.verify

        def fake_sweep(n, seed, allow_faults, progress):
            report = DifferentialReport(n_scenarios=n, base_seed=seed)
            report.discrepancies.append(
                Discrepancy(seed=seed, check="oracle", detail="boom",
                            scenario="synthetic")
            )
            return report

        monkeypatch.setattr(repro.verify, "run_differential", fake_sweep)
        assert main(["verify", "--n", "1", "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "DISCREPANCIES" in out
        assert "boom" in out


class TestSweepAndJournalCommands:
    SWEEP = [
        "sweep", "--scheduler", "edf", "--capacities", "50",
        "--seeds", "2", "--horizon", "200", "--workers", "1",
    ]

    def test_sweep_without_journal(self, capsys):
        assert main(self.SWEEP) == 0
        out = capsys.readouterr().out
        assert "2 cell(s)" in out
        assert "2 ok" in out

    def test_sweep_journal_resume_and_export(self, capsys, tmp_path):
        journal = tmp_path / "sweep.journal"
        export = tmp_path / "results.json"
        args = self.SWEEP + ["--journal", str(journal)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0 hit(s), 2 executed" in first
        assert main(args + ["--export", str(export)]) == 0
        second = capsys.readouterr().out
        assert "2 hit(s), 0 executed" in second
        assert export.exists()
        import json

        data = json.loads(export.read_text())
        assert len(data) == 2
        assert all(record["kind"] == "result" for record in data.values())

    def test_sweep_env_journal(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL", str(tmp_path / "env.journal"))
        assert main(self.SWEEP) == 0
        capsys.readouterr()
        assert main(self.SWEEP) == 0
        assert "2 hit(s), 0 executed" in capsys.readouterr().out

    def test_bad_capacities_exit_2(self, capsys):
        assert main(["sweep", "--capacities", "fifty"]) == 2

    def test_chaos_requires_journal(self, capsys):
        assert main(self.SWEEP + ["--chaos-kill-record", "1"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_journal_inspect_and_keys(self, capsys, tmp_path):
        journal = tmp_path / "sweep.journal"
        assert main(self.SWEEP + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(["journal", "inspect", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "records: 2" in out
        assert main(["journal", "inspect", str(journal), "--keys"]) == 0
        out = capsys.readouterr().out
        assert "[result ]" in out
        assert "edf e1" in out

    def test_journal_export_stdout(self, capsys, tmp_path):
        journal = tmp_path / "sweep.journal"
        assert main(self.SWEEP + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(["journal", "export", str(journal)]) == 0
        out = capsys.readouterr().out
        import json

        assert len(json.loads(out)) == 2

    def test_sweep_export_matches_journal_export(self, capsys, tmp_path):
        from repro.runtime.journal import ResultJournal

        journal = tmp_path / "sweep.journal"
        swept = tmp_path / "sweep.json"
        exported = tmp_path / "journal.json"
        assert main(
            self.SWEEP + ["--journal", str(journal), "--export", str(swept)]
        ) == 0
        assert main(
            ["journal", "export", str(journal), "--out", str(exported)]
        ) == 0
        # Fresh results and their journal records: one document, one
        # encoder, the same bytes.
        assert swept.read_bytes() == exported.read_bytes()
        import json

        with ResultJournal(journal, create=False) as opened:
            assert json.loads(exported.read_text()) == opened.to_canonical()

    def test_journal_export_keeps_every_float_digit(self, capsys, tmp_path):
        import json

        from repro.runtime.journal import JournalKey, ResultJournal

        path = tmp_path / "floats.journal"
        value = 0.1 + 0.2  # 0.30000000000000004: 17 significant digits
        with ResultJournal(path) as journal:
            journal.append(JournalKey("0" * 64, "edf"), "result", {"x": value})
        out = tmp_path / "export.json"
        assert main(["journal", "export", str(path), "--out", str(out)]) == 0
        (record,) = json.loads(out.read_text()).values()
        assert record["payload"]["x"] == value

    def test_journal_inspect_missing_exit_2(self, capsys, tmp_path):
        assert main(["journal", "inspect", str(tmp_path / "nope.journal")]) == 2
