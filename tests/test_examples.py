"""Smoke tests: the example scripts run end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.serialization import load_trace_csv

REPO = Path(__file__).resolve().parents[1]


def test_offline_analysis_exports_result_and_trace(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(REPO / "examples" / "offline_analysis.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (out_dir,) = tmp_path.glob("repro_export_*")
    payload = json.loads((out_dir / "result.json").read_text())
    assert payload["released_count"] > 0
    assert len(load_trace_csv(out_dir / "trace.csv")) > 0
