"""Every demo runs standalone and exits 0; the seeded ones print the same
bytes as when they were pinned.

Demos 01-06 print only seeded results, so a SHA-256 prefix of their
stdout pins them the way the CLI corpus pins the command line.  Demo 07
prints wall-clock times, so it is only run.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import ergmkit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
               if f.endswith(".py"))

STDOUT_SHA256 = {
    "01_simulate.py": "0f8bd7a2c363f020",
    "02_constrained_sampling.py": "20782daa978e1d2c",
    "03_target_statistics.py": "b0ef204e2a4a8b64",
    "04_pseudolikelihood.py": "92cf2ad06eb8a1fc",
    "05_likelihood_fit.py": "abc5e1890d89fee1",
    "06_bridge_loglik.py": "7a61a4976d9a74e8",
}


def test_every_demo_is_listed():
    assert DEMOS == sorted([*STDOUT_SHA256, "07_proposal_benchmarks.py"])


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ergmkit.__file__)))
    proc = subprocess.run([sys.executable, os.path.join("demos", demo)],
                          cwd=ROOT, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    if demo in STDOUT_SHA256:
        digest = hashlib.sha256(proc.stdout).hexdigest()
        assert digest[:16] == STDOUT_SHA256[demo]
