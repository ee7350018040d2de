"""Time one fresh-process set-up: import walkvis, then generate the inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED THREADS
Prints the elapsed seconds.  run.py starts several of these and reports
their median as setup_s.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import walkvis  # noqa: E402
import walkvis.cli  # noqa: E402,F401

from workloads import make_pass  # noqa: E402

make_pass(sys.argv[1], int(sys.argv[2]), 0, int(sys.argv[3]), walkvis)
print(time.perf_counter() - T0)
