"""Host-speed sampler: ``python3 perfbench/host_sampler.py``.

Every ``EVERY_S`` seconds it pins itself to the next CPU it may use,
times the reference kernel (``common.reference_s``) there and prints one
line on stdout -- ``time.perf_counter()`` at the end of the run and the
kernel's CPU seconds -- until it is terminated or its parent ends.
``common.HostSpeed`` runs it beside a workload.  On a host with more
than ``MAX_PINNED_CPUS`` CPUs it samples wherever it runs instead.
"""

from __future__ import annotations

import os
import time

from common import reference_s

EVERY_S = 0.15
MAX_PINNED_CPUS = 4


def main():
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed if len(allowed) <= MAX_PINNED_CPUS else [None]
    reference_s()  # imports and first-call costs are not a sample
    parent = os.getppid()
    k = 0
    while os.getppid() == parent:  # ends with the benchmark, however it ends
        cpu = cpus[k % len(cpus)]
        k += 1
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        seconds = reference_s()
        print(f"{time.perf_counter():.6f} {seconds:.9f}", flush=True)
        time.sleep(EVERY_S)


if __name__ == "__main__":
    main()
