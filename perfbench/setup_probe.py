"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Times ``import constbandit`` plus building the workload's configs and
instances, and prints the seconds taken.
"""

import os
import sys
import time

_start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import plans  # noqa: E402  (imports constbandit; part of the timed set-up)

plans.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - _start))
