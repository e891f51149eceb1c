"""Smoke test of the benchmark harness in `perfbench/` against this checkout."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Traced call counters of each workload at seed 0. A change that keeps the
# program's outputs and work the same keeps these.
COUNTERS = {
    "loo-copilot-150": {
        "gateway.embed_calls": 150, "gateway.complete_calls": 150, "suggestion.suggest_calls": 150,
        "suggestion.suggest_errors": 0, "suggestion.repairs": 0, "suggestion.fallback_slots": 0,
    },
    "loo-elicit-flaky-48": {
        "gateway.embed_calls": 48, "gateway.complete_calls": 2162, "suggestion.suggest_calls": 1488,
        "suggestion.suggest_errors": 373, "suggestion.repairs": 386, "suggestion.fallback_slots": 13,
        "elicitation.rounds": 288,
    },
    "cli-pool-150": {
        "gateway.embed_calls": 198, "gateway.complete_calls": 48, "suggestion.suggest_calls": 48,
    },
}


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
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"] is True
    counters = {name: line["metrics"][name]["value"] for name in COUNTERS[workload]}
    assert counters == COUNTERS[workload]
