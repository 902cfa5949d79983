"""Start-up cost gate: the sweep path imports no heavy optional stack.

scipy (only the Student-t interval of ``analysis.stats`` needs it) costs
about a second per interpreter, which every CLI call, chaos-test
subprocess and pool worker would pay.  Checked in a fresh interpreter so
modules the test session already imported do not mask a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_sweep_path_imports_neither_scipy_nor_matplotlib():
    code = (
        "import sys\n"
        "import repro.cli, repro.experiments, repro.runtime.supervisor\n"
        "import repro.sim.batch\n"
        "print(sorted({m.split('.')[0] for m in sys.modules}"
        " & {'scipy', 'matplotlib'}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"
