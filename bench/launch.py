"""Run one command; print its wall time, CPU time and peak RSS as JSON.

    python3 -I -S bench/launch.py LOG LIMIT_S CPU -- ARGV...

The benchmark starts every measured process through this small interpreter
instead of forking it itself: on Linux a child's ``ru_maxrss`` includes the
resident memory of the process it was forked from, and the benchmark holds
numpy and the generated data. The command's stdout and stderr go to LOG; it
is killed after LIMIT_S seconds. It runs pinned to CPU, beside the host-speed
sampler (``speed.py``), and its start and end are reported on the monotonic
clock the sampler stamps its units with.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    log, limit, cpu, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {int(cpu)})  # inherited by the command
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fh,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(float(limit), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "start": t0,
        "end": t1,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "exit_code": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
