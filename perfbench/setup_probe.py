"""Set-up as a user pays it: import plap, build one workload's inputs and
make the first call, in a fresh interpreter.  ``run.py`` times it.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), 0)
workloads.first_call()
