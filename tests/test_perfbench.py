"""Smoke test of the benchmark under perfbench/: every workload runs
traced against this checkout's library and passes its own output checks.

The traced run wraps library entry points by name and must reproduce
the untraced outputs byte for byte, so a renamed entry point or a
change that makes tracing alter results shows up here.  No timings are
asserted.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["simulate", "strat_ess", "fit", "mple_sweep"])
def test_workload_runs_traced(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    assert result["failed"] == 0, record["problems"]
    assert result["correct"] is True
    assert result["attempted"] >= 2     # one untraced and one traced job
