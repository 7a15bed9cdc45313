"""Print the set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED SIZE

Set-up is everything before data work: importing spdtok (and numpy with
it), building the workload's config, then its model and Adam. The last line
of output is the time in seconds.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports spdtok)

workloads.setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - t0)
