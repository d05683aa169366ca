"""The benchmark's tracer still interposes on every public plap function:
``perfbench/check.py selftest`` passes against this source tree, and a
short traced alpha-c, cycles and figures run each end ``correct``: every
span they require still fires, every certified cycle period stays within
the oracle's bound, and every shooting the figures run drives through
the CLI writes its files.  The README's list of ``PLAP_CONFIG`` keys is
the fields of ``IntegrationConfig``."""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from plap.integrate import IntegrationConfig

ROOT = Path(__file__).resolve().parents[1]


def test_readme_lists_the_config_keys():
    text = " ".join((ROOT / "README.md").read_text().split())
    listed = re.search(r"`PLAP_CONFIG` environment variable\. The file's keys "
                       r"are (.*?);", text)
    assert listed, "README no longer lists the PLAP_CONFIG keys"
    keys = re.findall(r"`(\w+)`", listed.group(1))
    assert keys == [f.name for f in dataclasses.fields(IntegrationConfig)]


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
