"""One set-up measurement: a fresh process imports ppxfer, builds the
workload's round-0 inputs and warms up each layer the workload uses.

    python3 bench/setup_probe.py <workload> <seed>

Prints the elapsed seconds, measured from before the first import, and
then the calibration kernel's time in this process, to rescale them.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import boot  # noqa: E402

boot.prepare()

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
workload.inputs(int(sys.argv[2]), 0)
workload.warmup()
elapsed = time.perf_counter() - START

import calibrate  # noqa: E402

print(elapsed, calibrate.steady())
