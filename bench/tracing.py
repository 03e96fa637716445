"""In-process spans around the public functions of each hwdims module.

The wrappers are installed at the names the functions are called through
(``hwdims.optimize.smooth_pass``, ``hwdims.evaluate.forecast``,
``TimeSeries.prefix``, ...), so the library itself is not modified. Spans
(name, start, end, parent, run id) are kept in memory and written out once
the benchmark ends. Search and decomposition outcomes are read from the
``MinimizeResult`` and ``DecompositionResult`` values the wrapped functions
return.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import hwdims.cli as cli
import hwdims.decompose as decompose
import hwdims.evaluate as evaluate
import hwdims.optimize as optimize
import hwdims.timeseries as timeseries
from hwdims.hw import FitInfeasibleError


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _rows(result, args):
    return {"rows": len(result)}


def _blocks(result, args):
    return {"blocks": sum(len(spec.occurrences) for spec in result)}


def _steps(result, args):
    return {"steps": len(args[0])}


def _search(result, args):
    return {"evals": result.evals, "iterations": result.iterations,
            "converged": int(result.converged)}


def _decomposition(result, args):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _origins(result, args):
    return {"origins": len(result.origins)}


def _files_bytes(result, args):
    return {"bytes": sum(Path(p).stat().st_size for p in result)}


def _file_bytes(result, args):
    return {"bytes": Path(result).stat().st_size}


# (owner, attribute, span name, attributes read from the return value).
# A function imported into several modules is wrapped at each import site.
SITES = (
    (cli, "main", "cli.main", None),
    (cli, "ingest", "cli.ingest", _rows),
    (cli, "load_series", "cli.load_series", None),
    (cli, "save_artifact", "cli.save_artifact", None),
    (cli, "build_dims", "calendars.build_dims", _blocks),
    (timeseries.TimeSeries, "prefix", "timeseries.prefix", None),
    (timeseries, "compute_recurrence", "timeseries.compute_recurrence", None),
    (optimize, "smooth_pass", "hw.smooth_pass", _steps),
    (evaluate, "smooth_pass", "hw.smooth_pass", _steps),
    (evaluate, "forecast", "hw.forecast", None),
    (evaluate, "project_dims", "hw.project_dims", None),
    (cli, "find_params", "optimize.find_params", None),
    (optimize, "init_values", "optimize.init_values", None),
    (evaluate, "init_values", "optimize.init_values", None),
    (cli, "mstl", "decompose.mstl", _decomposition),
    (decompose, "loess_smooth", "decompose.loess_smooth", None),
    (cli, "stlplot_export", "decompose.stlplot_export", _files_bytes),
    (cli, "mforecast", "evaluate.mforecast", _origins),
    (cli, "grid_to_csv", "evaluate.grid_to_csv", _file_bytes),
)

# Counted without a span, so that the objective evaluations they drive stay
# direct children of find_params and its self time excludes only the engine.
COUNTERS = (
    (optimize, "nelder_mead", "optimize.nelder_mead", _search),
)


class Tracer:
    """Spans and counters of traced runs, kept in memory until ``write``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: list[tuple[str, int, dict]] = []  # (name, run, attrs)
        self.run = 0
        self._stack: list[int] = []

    def _wrap_span(self, fn, name, observe):
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.run)
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except (FitInfeasibleError, ZeroDivisionError, OverflowError) as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.attrs.update(observe(result, args))
            return result
        return wrapper

    def _wrap_counter(self, fn, name, observe):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counters.append((name, self.run, observe(result, args)))
            return result
        return wrapper

    @contextmanager
    def installed(self, run: int):
        """Trace one run: wrappers are in place only inside the block."""
        self.run = run
        originals = []
        try:
            for owner, attr, name, observe in SITES:
                originals.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._wrap_span(getattr(owner, attr), name, observe))
            for owner, attr, name, observe in COUNTERS:
                originals.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._wrap_counter(getattr(owner, attr), name, observe))
            yield
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"spans": [asdict(s) for s in self.spans],
               "counters": [{"name": n, "run": r, **a} for n, r, a in self.counters]}
        path.write_text(json.dumps(doc) + "\n")

    def metrics(self, run: int) -> dict[str, float]:
        """Per-layer metrics of one traced run (0 where a layer did not run)."""
        spans = [s for s in self.spans if s.run == run]
        by_id = {s.id: s for s in spans}
        by_name: dict[str, list[Span]] = defaultdict(list)
        children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            by_name[s.name].append(s)
            if s.parent is not None:
                children[s.parent].append(s)

        def total(name):
            return sum(s.seconds for s in by_name[name])

        def self_time(name):
            return sum(s.seconds - sum(c.seconds for c in children[s.id])
                       for s in by_name[name])

        def attr_sum(name, key):
            return sum(s.attrs.get(key, 0) for s in by_name[name])

        search = [a for n, r, a in self.counters if r == run]
        evals = sum(a["evals"] for a in search)
        engine_in_search = sum(
            1 for s in by_name["hw.smooth_pass"]
            if s.parent is not None and by_id[s.parent].name == "optimize.find_params")
        steps = attr_sum("hw.smooth_pass", "steps")
        ingest_s = total("cli.ingest")
        rows = attr_sum("cli.ingest", "rows")

        # One origin runs from its prefix() call to the span before the next one.
        origin_ms = []
        for mf in by_name["evaluate.mforecast"]:
            kids = children[mf.id]  # in start order
            cuts = [i for i, c in enumerate(kids) if c.name == "timeseries.prefix"] + [len(kids)]
            origin_ms += [1e3 * (kids[j - 1].end - kids[i].start) for i, j in zip(cuts, cuts[1:])]
        deciles = statistics.quantiles(origin_ms, n=10) if len(origin_ms) >= 2 else [0.0] * 9

        return {
            "cli.main.s": total("cli.main"),
            "cli.ingest.s": ingest_s,
            "cli.ingest.rows_per_s": rows / ingest_s if ingest_s else 0.0,
            "cli.load_series.s": total("cli.load_series"),
            "calendars.build_dims.s": total("calendars.build_dims"),
            "calendars.build_dims.blocks": attr_sum("calendars.build_dims", "blocks"),
            "timeseries.prefix.calls": len(by_name["timeseries.prefix"]),
            "timeseries.prefix.s": total("timeseries.prefix"),
            "timeseries.compute_recurrence.calls": len(by_name["timeseries.compute_recurrence"]),
            "timeseries.compute_recurrence.s": total("timeseries.compute_recurrence"),
            "hw.smooth_pass.calls": len(by_name["hw.smooth_pass"]),
            "hw.smooth_pass.s": total("hw.smooth_pass"),
            "hw.smooth_pass.us_per_step": 1e6 * total("hw.smooth_pass") / steps if steps else 0.0,
            "hw.smooth_pass.infeasible": sum(1 for s in by_name["hw.smooth_pass"]
                                             if "error" in s.attrs),
            "hw.forecast.calls": len(by_name["hw.forecast"]),
            "hw.forecast.s": total("hw.forecast"),
            "hw.project_dims.s": total("hw.project_dims"),
            "optimize.find_params.s": total("optimize.find_params"),
            "optimize.find_params.self_s": self_time("optimize.find_params"),
            "optimize.nelder_mead.evals": evals,
            "optimize.nelder_mead.iterations": sum(a["iterations"] for a in search),
            "optimize.nelder_mead.converged": sum(a["converged"] for a in search),
            "optimize.find_params.pass_ratio": engine_in_search / evals if evals else 0.0,
            "optimize.init_values.calls": len(by_name["optimize.init_values"]),
            "optimize.init_values.s": total("optimize.init_values"),
            "decompose.mstl.calls": len(by_name["decompose.mstl"]),
            "decompose.mstl.s": total("decompose.mstl"),
            "decompose.mstl.iterations": attr_sum("decompose.mstl", "iterations"),
            "decompose.mstl.converged": attr_sum("decompose.mstl", "converged"),
            "decompose.loess_smooth.calls": len(by_name["decompose.loess_smooth"]),
            "decompose.loess_smooth.self_s": self_time("decompose.loess_smooth"),
            "decompose.stlplot_export.s": total("decompose.stlplot_export"),
            "decompose.stlplot_export.bytes": attr_sum("decompose.stlplot_export", "bytes"),
            "evaluate.mforecast.s": total("evaluate.mforecast"),
            "evaluate.mforecast.origins": attr_sum("evaluate.mforecast", "origins"),
            "evaluate.origin_ms.p50": statistics.median(origin_ms) if origin_ms else 0.0,
            "evaluate.origin_ms.p90": deciles[8],
            "evaluate.grid_to_csv.s": total("evaluate.grid_to_csv"),
            "evaluate.grid_to_csv.bytes": attr_sum("evaluate.grid_to_csv", "bytes"),
        }
