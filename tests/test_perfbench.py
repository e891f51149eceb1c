"""Smoke test of the benchmark harness in `perfbench/` against this checkout."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["loo-copilot-150", "loo-elicit-flaky-48", "cli-pool-150"])
def test_traced_run_passes_its_oracle(workload):
    # A traced run wraps the program's functions by name and checks every fold
    # or CLI call against an independent oracle, so a renamed function or a
    # changed result shows up here before a timed benchmark run.
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "0", "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
