"""Set-up probe: one fresh process that imports gark, builds a workload's
inputs and validates the tableau, then prints CLOCK_MONOTONIC.

    python3 perfbench/probe.py <workload> <seed> [smoke]

The parent takes the same clock just before starting this process; the
difference is the set-up time a user waits for before the first job.
"""

import sys
import time

import workloads

workload = workloads.make(sys.argv[1], int(sys.argv[2]),
                          smoke=sys.argv[3:] == ["smoke"])
workload.setup()
print(repr(time.monotonic()), flush=True)
