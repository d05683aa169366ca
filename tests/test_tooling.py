"""The benchmark's tracer still interposes on every public plap function:
``perfbench/check.py selftest`` passes against this source tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_selftest():
    proc = subprocess.run([sys.executable, "perfbench/check.py", "selftest"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
