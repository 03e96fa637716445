"""Host-speed sampler: how fast the CPU runs fixed pieces of work, over time.

    python3 bench/speed.py LOG CPU MAX_S PART...

On a shared host the same process on the same input runs up to twice as fast
in one stretch of seconds as in the next, and its CPU time moves with its
wall time: the core itself is slower while other tenants load it. Timing
the program alone therefore measures the neighbours as much as the program.

This sampler runs beside each measured process, pinned to the same CPU.
Every ``PERIOD_S`` it wakes, runs the named PARTs once (fixed work of the
same kind as the hwdims hot loops: ``recurrence`` is a scalar smoothing
recursion over Python lists, ``fits`` are small weighted local fits in
numpy) and appends ``<monotonic end time> <CPU seconds of the parts>`` to
LOG. Parts that need more CPU time than usual ran on a slower core. The
benchmark divides the program's times by the mean over each invocation and
multiplies by the parts' ``REFERENCE_S``, which reports them at one fixed
host speed (see ``run.py``). The sampler takes 3-7 % of the CPU.

A workload names the parts whose slowdown best follows its own: the
decomposition spends its time in small numpy fits, the smoothing engine in
both kinds of work.

It exits after MAX_S seconds, or as soon as its parent has gone, so it
cannot outlive the benchmark.
"""

import os
import sys
import time

import numpy as np

PERIOD_S = 0.05

_Y = np.random.default_rng(12345).normal(100.0, 10.0, size=4096)
_Y_LIST = _Y.tolist()
_IDX = np.arange(7, dtype=float)


def recurrence() -> float:
    ring = [1.0] * 24
    level, last = 100.0, 0.0
    for t in range(8000):
        v = ring[t % 24]
        yt = _Y_LIST[t % 4096]
        last = yt - level * v
        level = 0.1 * (yt / v) + 0.9 * level
        ring[t % 24] = 0.05 * (yt / level) + 0.95 * v
    return last


def fits() -> float:
    total = 0.0
    for i in range(120):
        dist = np.abs(_IDX - 3.2)
        wts = np.clip(1.0 - (dist / dist.max()) ** 3, 0.0, None) ** 3
        total += float((wts * _Y[i:i + 7]).sum() / wts.sum())
    return total


PARTS = {"recurrence": recurrence, "fits": fits}
# CPU time of each part on an unloaded 2.0 GHz Xeon vCPU (Python 3.11,
# numpy 2); times are reported as if the parts had always taken this long.
REFERENCE_S = {"recurrence": 0.0017, "fits": 0.0015}


def main() -> int:
    log, cpu, max_s, *names = sys.argv[1:]
    parts = [PARTS[name] for name in names]
    os.sched_setaffinity(0, {int(cpu)})
    parent = os.getppid()
    deadline = time.monotonic() + float(max_s)
    with open(log, "w", buffering=1) as fh:
        while time.monotonic() < deadline and os.getppid() == parent:
            c0 = time.process_time()
            for part in parts:
                part()
            fh.write(f"{time.monotonic():.6f} {time.process_time() - c0:.9f}\n")
            time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
