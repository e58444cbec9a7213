"""Smoke test: every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pineq

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# the two training demos fit models and take tens of seconds each
SLOW = ("05_training_small.py", "06_experiment_matrix.py")


@pytest.mark.parametrize("name", [
    pytest.param(p.name, marks=pytest.mark.slow) if p.name in SLOW else p.name
    for p in sorted(DEMOS.glob("*.py"))
])
def test_demo_runs(name, tmp_path):
    # the demos write their corpora under the temporary directory
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=str(Path(pineq.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
