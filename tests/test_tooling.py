"""The benchmark's tracer still interposes on every public plap function:
``perfbench/check.py selftest`` passes against this source tree, and a
short traced alpha-c, cycles and figures run each end ``correct``: every
span they require still fires, every certified cycle period stays within
the oracle's bound, and every shooting the figures run drives through
the CLI writes its files."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_selftest():
    proc = subprocess.run([sys.executable, "perfbench/check.py", "selftest"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["alpha-c", "cycles", "figures", "sweep"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           workload, "--seed", "1", "--seconds", "1",
                           "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True, proc.stdout
