"""Set-up probe: import the program and build one workload's config.

``python3 bench/setup_probe.py <workload> <seed>`` prints the monotonic
clock reading at which the config was ready, so that the parent process
can time set-up from process start, and then the mean time of two
reference passes (``reference.py``) taken in this process right after,
with which the parent scales that time to the nominal host speed.
"""

import statistics
import sys
import time

import source

source.prepare()

import workloads  # noqa: E402  (needs the source path set up above)

workloads.WORKLOADS[sys.argv[1]].config(int(sys.argv[2]), 0)
ready = time.monotonic()

from reference import reference_pass  # noqa: E402  (kept out of the timed set-up)

for _ in range(5):  # warm-up, as HostSpeed() does
    reference_pass()
passes = []
for _ in range(2):
    t0 = time.perf_counter()
    reference_pass()
    passes.append(time.perf_counter() - t0)
print(ready, statistics.fmean(passes))
