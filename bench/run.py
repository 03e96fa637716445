"""End-to-end and per-layer benchmark of the hwdims command line.

Run from the repository root, with only numpy installed:

    python3 bench/run.py --workload evaluate-rolling --seed 1 --seconds 60 --trace 0

The workloads (see ``workloads.py``) are ``fit-search``, ``decompose-events``
and ``evaluate-rolling``; ``--workload all`` runs the three in turn.
``BENCHMARK.json`` gates only the last two: on a 2-vCPU machine the run
budget leaves room for two workloads at 60 s, and shorter runs do not give
steady medians (see ``BASELINE.md``). Inputs are generated from ``--seed``;
the program sees only ``demand.csv``, ``events.csv`` and ``run.cfg``.

``--trace 0`` is a closed loop with one client: it runs
``python -m hwdims <command>`` as a child process, one at a time, for
``--seconds`` seconds (at least twice), after timing fresh interpreters up
to the end of ``import hwdims``. Each child runs pinned to one CPU beside the
host-speed sampler of ``speed.py``, and its times are scaled to the sampler's
reference speed: on a shared host the core itself runs up to twice as fast in
one stretch of seconds as in the next, which otherwise swamps any change to
the program. It reports the end-to-end metrics:

* ``wall_s``: median wall time of one CLI process, start to exit, without
  the sampler's own share, at reference speed;
* ``cpu_s``: median user + system CPU of that process, at reference speed;
* ``peak_rss_mb``: median peak RSS of that process (its own ``wait4`` rusage);
* ``setup_s``: median time from interpreter start until ``import hwdims``
  returns, at reference speed;
* ``result_err``: accuracy against the generator's truth (``checks.py``).

The times as measured and the host's slowdown are printed beside them.

``error_rate`` (failed / attempted invocations) is printed with them. It is
0 when the program works, so the JSON line carries it as ``failed`` and
``attempted`` rather than as a metric.

``--trace 1`` runs ``hwdims.cli.main`` in this process, alternating traced
and untraced calls, and reports the per-layer metrics of ``tracing.py``
(medians over the traced calls) plus ``trace.overhead_s``, the traced minus
the untraced median wall time of ``main``. Exact counts must repeat between
traced calls. Spans are written to ``.bench_work/spans/``.

Every invocation's outputs are checked once and must be byte-identical across
repeats. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import CHECKS, digest
from speed import REFERENCE_S
from workloads import WORKLOADS, generate, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9
MIN_RUNS = 2  # repeats needed for the byte-identity and exact-count checks
TIME_LIMIT_S = 170.0  # a child still running then is killed and counted failed


class Invocations:
    """Outcomes of repeated CLI invocations on one set of inputs.

    The first successful output is checked against the truth; every later
    one must have the same digest.
    """

    def __init__(self, workload, truth):
        self.workload = workload
        self.truth = truth
        self.walls: list[float] = []
        self.failed = 0
        self.result_err: float | None = None
        self._reference: str | None = None

    def record(self, wall: float, exit_code: int, out: Path, log_text: str = "") -> None:
        self.walls.append(wall)
        ok = exit_code == 0
        if not ok:
            print(f"invocation {len(self.walls)}: exit code {exit_code}\n{log_text[-2000:]}",
                  file=sys.stderr)
        elif self._reference is None:
            try:
                self.result_err = CHECKS[self.workload.command](out, self.workload, self.truth)
                self._reference = digest(out)
            except Exception:  # any failed check counts against error_rate
                traceback.print_exc()
                ok = False
        elif digest(out) != self._reference:
            print(f"invocation {len(self.walls)}: outputs differ from the first run",
                  file=sys.stderr)
            ok = False
        self.failed += not ok
        shutil.rmtree(out, ignore_errors=True)

    def enough(self, started: float, seconds: float) -> bool:
        """Stop once the minimum is met and another run would overshoot."""
        if len(self.walls) < MIN_RUNS:
            return False
        return time.perf_counter() - started + statistics.median(self.walls) > seconds


def _child(argv, cwd: Path, env, log: Path, deadline: float, cpu: int) -> dict:
    """Run one child through ``launch.py`` pinned to ``cpu``; return its stats:
    ``start``/``end`` (monotonic), ``cpu_s``, ``peak_rss_mb`` and ``exit_code``."""
    limit = max(deadline - time.perf_counter(), 1.0)
    launcher = [sys.executable, "-I", "-S", str(BENCH / "launch.py"), str(log), str(limit),
                str(cpu), "--"]
    done = subprocess.run(launcher + argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class HostSpeed:
    """The host-speed sampler (``speed.py``) running beside the measured children.

    ``scale(stats)`` turns a child's times into times at the sampler's
    reference speed: wall time minus the CPU the sampler itself took during
    the child, and CPU time, each times the parts' reference CPU time over
    their mean CPU time while the child ran. A child shorter than
    ``MIN_UNITS`` samples is scaled by the ``MIN_UNITS`` samples nearest to it.
    """

    MIN_UNITS = 8

    def __init__(self, work: Path, cpu: int, parts: tuple[str, ...]):
        self.log = work / "speed.log"
        self.reference = sum(REFERENCE_S[part] for part in parts)
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(BENCH / "speed.py"), str(self.log), str(cpu),
             str(TIME_LIMIT_S + 10), *parts],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        self.units: list[tuple[float, float]] = []  # (end time, CPU seconds of the parts)

    def stop(self) -> None:
        """Stop the sampler, wait for it, and read the units it logged."""
        exited = self.proc.poll()
        self.proc.terminate()
        self.proc.wait()
        if exited is not None:
            raise RuntimeError(f"host-speed sampler exited early with code {exited}")
        with open(self.log) as fh:
            lines = fh.read().split("\n")[:-1]  # the text after the last newline may be cut
        self.units = [(float(end), float(unit)) for end, unit in map(str.split, lines)]

    def scale(self, stats: dict) -> tuple[float, float, float]:
        """Return (wall_s, cpu_s, host slowdown) of one child at reference speed."""
        t0, t1 = stats["start"], stats["end"]
        inside = [u for u in self.units if t0 <= u[0] <= t1]
        near = inside if len(inside) >= self.MIN_UNITS else sorted(
            self.units, key=lambda u: abs(u[0] - (t0 + t1) / 2))[:self.MIN_UNITS]
        if len(near) < self.MIN_UNITS:
            raise RuntimeError(f"host-speed sampler logged only {len(near)} units")
        slowdown = statistics.fmean(u[1] for u in near) / self.reference
        wall = t1 - t0 - sum(u[1] for u in inside)
        return wall / slowdown, stats["cpu_s"] / slowdown, slowdown


def run_untraced(workload, truth, config: Path, work: Path, seconds: float, started: float):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    deadline = started + TIME_LIMIT_S
    cpu = min(os.sched_getaffinity(0))
    speed = HostSpeed(work, cpu, workload.speed_parts)
    try:
        def import_time(module="hwdims"):
            log = work / "import.log"
            stats = _child([sys.executable, "-c", f"import {module}"], work, env, log,
                           deadline, cpu)
            if stats["exit_code"] != 0:
                raise RuntimeError(f"import {module} failed:\n{log.read_text()}")
            return stats

        import_time("hwdims.cli")  # compiles bytecode, which users pay once
        setup_stats = [import_time() for _ in range(SETUP_SAMPLES)]

        runs = Invocations(workload, truth)
        child_stats, rss = [], []
        t_start = time.perf_counter()
        while not runs.enough(t_start, seconds):
            out = work / f"out{len(runs.walls)}"
            log = work / "cli.log"
            argv = [sys.executable, "-m", "hwdims", workload.command,
                    "--config", str(config), "--out", str(out)]
            stats = _child(argv, work, env, log, deadline, cpu)
            child_stats.append(stats)
            rss.append(stats["peak_rss_mb"])
            runs.record(stats["end"] - stats["start"], stats["exit_code"], out,
                        log.read_text(errors="replace"))
    finally:
        speed.stop()
    setup = [speed.scale(s)[0] for s in setup_stats]
    walls, cpus, slowdowns = zip(*(speed.scale(s) for s in child_stats))

    n = len(runs.walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
        "result_err": runs.result_err,
    }
    notes = {
        "wall_s": f"median of {n} invocations at reference speed; as measured "
                  f"{statistics.median(runs.walls):.4g} s, host "
                  f"{statistics.median(slowdowns):.3g}x slower than reference",
        "cpu_s": f"median of {n} at reference speed; as measured "
                 f"{statistics.median(s['cpu_s'] for s in child_stats):.4g} s",
        "peak_rss_mb": f"median of {n}",
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters at reference speed",
        "result_err": "from the first checked output",
    }
    return runs, metrics, notes


def run_traced(workload, truth, config: Path, work: Path, seconds: float, spans_path: Path,
               units: dict[str, str]):
    import hwdims.cli as cli
    from tracing import Tracer

    tracer = Tracer()
    runs = Invocations(workload, truth)
    traced, untraced, per_run = [], [], []
    t_start = time.perf_counter()
    # Alternate traced and untraced calls; at least two traced, one untraced.
    while not (len(traced) >= MIN_RUNS and untraced and runs.enough(t_start, seconds)):
        i = len(runs.walls)
        out = work / f"out{i}"
        argv = [workload.command, "--config", str(config), "--out", str(out)]
        t0 = time.perf_counter()
        try:
            if i % 2 == 0:
                with tracer.installed(run=i):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
        except Exception:  # an escaped exception fails this invocation only
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
        (traced if i % 2 == 0 else untraced).append(wall)
        if i % 2 == 0:
            per_run.append(tracer.metrics(i))
        runs.record(wall, code, out)
    tracer.write(spans_path)

    metrics = {name: statistics.median(r[name] for r in per_run) for name in per_run[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    notes = {"trace.overhead_s": f"{len(traced)} traced vs {len(untraced)} untraced calls"}
    counts_repeat = True
    for name, unit in units.items():
        if unit == "count" and len({r[name] for r in per_run}) > 1:
            counts_repeat = False
            print(f"count {name} differs between traced runs: {[r[name] for r in per_run]}",
                  file=sys.stderr)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return runs, metrics, notes, counts_repeat


def bench_workload(name: str, seed: int, seconds: float, trace: bool,
                   units: dict[str, str]) -> dict:
    """Run one workload, print its metrics table and return its result object."""
    started = time.perf_counter()
    workload = WORKLOADS[name]
    truth = generate(workload, seed)
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    try:
        config = write_inputs(workload, truth, work / "inputs")
        print(f"workload {name}, seed {seed}: hwdims {workload.command} "
              f"on {len(truth.values)} hourly steps")
        counts_repeat = True
        if trace:
            # In-process calls cannot be killed one by one; SIGALRM ends the
            # whole run (nonzero exit, no result) if the program hangs.
            signal.alarm(int(TIME_LIMIT_S) + 5)
            spans = WORK / "spans" / f"{name}-seed{seed}.json"
            runs, metrics, notes, counts_repeat = run_traced(
                workload, truth, config, work, seconds, spans, units)
            signal.alarm(0)
        else:
            runs, metrics, notes = run_untraced(workload, truth, config, work, seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n = len(runs.walls)
    print(f"{'error_rate':36s} {runs.failed / n:>24.6g} ratio  {runs.failed} failed of {n}")
    for metric, unit in units.items():
        print(f"{metric:36s} {metrics[metric]!r:>24} {unit:6s} {notes.get(metric, '')}")
    return {
        "correct": runs.failed == 0 and runs.result_err is not None and counts_repeat,
        "attempted": n,
        "failed": runs.failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hwdims" / "__init__.py").is_file():
        print(f"bench: hwdims sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hwdims
    if Path(hwdims.__file__).resolve().parent != (SRC / "hwdims").resolve():
        print(f"bench: imported hwdims from {hwdims.__file__}, not {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: bench_workload(name, args.seed, args.seconds, bool(args.trace), units)
               for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:  # one object for all workloads, metric names prefixed by the workload
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
