"""Command-line front end: ingestion, configuration and the four commands.

Commands
--------
fit        optimize smoothing parameters, write model artifact + accuracy
forecast   k-ahead forecasts from a saved artifact or an inline fit
decompose  seasonal-trend decomposition, exported as plot-ready CSV panels
evaluate   rolling-origin forecast grid with per-origin / per-horizon MAPE

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 fit infeasible.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .calendars import CalendarEvent, build_dims
from .decompose import mstl, panel_names, stlplot_export
from .evaluate import POLICIES, accuracy, check_scored, grid_to_csv, mforecast, rolling_origins
from .hw import TREND_KINDS, FitInfeasibleError, ModelSpec, ModelState, SmoothingParams
from .hw import _check_consistency, _is_multiplicative, forecast, project_dims, reduce_check
from .hw import warmup_length
from .optimize import ALGORITHMS, OBJECTIVES, OptimConfig, find_params
from .timeseries import DIMS_INIT_METHODS, DataError, DimsSpec, SeasonSpec, TimeSeries
from .timeseries import check_clock, check_init_method, iso_stamps, read_csv, write_csv

log = logging.getLogger(__name__)

ARTIFACT_SCHEMA_VERSION = 1


class UsageError(ValueError):
    """Bad command line or configuration file."""


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _parse_timestamp(text: str, row: int) -> datetime:
    text = text.strip()
    try:
        stamp = datetime.fromisoformat(text)
        if stamp.tzinfo is not None:  # in UTC it may leave the range of datetime
            stamp = stamp.astimezone(timezone.utc).replace(tzinfo=None)
    except (ValueError, OverflowError) as exc:
        raise DataError(f"row {row}: unparseable timestamp {text!r}") from exc
    return stamp


_TICK = timedelta(microseconds=1)  # the resolution of datetime


def _check_sum(what: str, readings: list[tuple[float, str]]) -> None:
    """Raise :class:`DataError` naming ``readings``, ``(value, label)`` pairs
    whose sum overflowed in ``what``, if all are finite; a non-finite reading
    among them fails later, as a non-finite value."""
    if all(np.isfinite(value) for value, _ in readings):
        named = " and ".join(f"{value!r}{label}" for value, label in readings)
        raise DataError(f"{what}: readings {named} sum past the float limit")


def ingest(path) -> TimeSeries:
    """Read a ``timestamp,value`` CSV into a gap-free series.

    Duplicate timestamps (clock-change repeats) are averaged. The step is
    the most common gap between distinct timestamps, the shortest on a tie;
    a gap that is not a whole number of steps is rejected. A single missing
    step is filled by linear interpolation; longer gaps are rejected.
    Timestamps must be ISO-8601.
    """
    stamps: list[datetime] = []
    values: list[float] = []
    for lineno, row in read_csv(path, "timestamp,value"):
        stamps.append(_parse_timestamp(row[0], lineno))
        try:
            values.append(float(row[1]))
        except ValueError as exc:
            raise DataError(f"row {lineno}: unparseable value {row[1]!r}") from exc
    if len(stamps) < 2:
        raise DataError(f"{path}: need at least 2 data rows")

    # Integer microseconds from the first stamp: numpy's own conversion of
    # datetime objects is several times slower than this subtraction.
    ticks = np.fromiter(((s - stamps[0]) // _TICK for s in stamps), np.int64, len(stamps))
    diffs = np.diff(ticks)
    back = np.flatnonzero(diffs < 0)
    if back.size:
        i = int(back[0])
        raise DataError(f"non-monotone timestamps: {stamps[i + 1].isoformat()} "
                        f"after {stamps[i].isoformat()}")

    # Average duplicate timestamps (daylight-saving fall-back produces them).
    # bincount adds each group from 0.0 in row order, as a running sum would.
    starts = np.r_[True, diffs != 0]
    first = np.flatnonzero(starts)
    if first.size < 2:
        raise DataError(f"{path}: need at least 2 distinct timestamps")
    group = np.cumsum(starts) - 1
    counts = np.bincount(group)
    means = np.bincount(group, weights=values) / counts
    for g in np.flatnonzero(np.isinf(means)).tolist():
        rows = range(first[g], first[g] + counts[g])
        _check_sum(f"duplicated timestamp {stamps[first[g]].isoformat()}",
                   [(values[r], "") for r in rows])

    gaps = diffs[diffs != 0]
    lengths, freq = np.unique(gaps, return_counts=True)
    step_ticks = lengths[np.argmax(freq)]
    step = int(step_ticks) * _TICK
    steps, rem = np.divmod(gaps, step_ticks)
    bad = np.flatnonzero((rem != 0) | (steps > 2))
    end = int(bad[0]) if bad.size else gaps.size

    holes = np.flatnonzero(steps[:end] == 2)
    with np.errstate(over="ignore"):  # an overflowing fill is named below
        fills = (means[holes] + means[holes + 1]) / 2.0
    for i in holes[np.isinf(fills)].tolist():
        _check_sum(f"missing step at {(stamps[first[i]] + step).isoformat()}",
                   [(means[j].item(), f" at {stamps[first[j]].isoformat()}") for j in (i, i + 1)])
    for i, fill in zip(holes.tolist(), fills.tolist()):
        log.warning("missing step at %s interpolated as %s",
                    (stamps[first[i]] + step).isoformat(), fill)
    if end < gaps.size:
        prev_t, cur_t = stamps[first[end]], stamps[first[end + 1]]
        if rem[end]:
            raise DataError(
                f"timestamp {cur_t.isoformat()} is not a whole number of steps "
                f"after {prev_t.isoformat()} (step {step})"
            )
        raise DataError(
            f"gap of {steps[end] - 1} missing steps between {prev_t.isoformat()} "
            f"and {cur_t.isoformat()}; at most one consecutive missing step is filled"
        )
    averaged = np.count_nonzero(counts > 1)
    if averaged:
        log.warning("averaged %d duplicated timestamp(s)", averaged)
    if holes.size:
        log.warning("interpolated %d missing step(s)", holes.size)
    return TimeSeries(values=np.insert(means, holes + 1, fills), step=step, start=stamps[0])


def read_calendar_csv(path) -> list[CalendarEvent]:
    """Read events from ``event_id,group,date_start,span_days`` CSV."""
    events = []
    for lineno, row in read_csv(path, "event_id,group,date_start,span_days"):
        try:
            start = date.fromisoformat(row[2].strip())
            span = int(row[3])
        except ValueError as exc:
            raise DataError(f"row {lineno}: {exc}") from exc
        events.append(CalendarEvent(
            event_id=row[0].strip(), recurrence_group=row[1].strip(),
            date_start=start, span_days=span,
        ))
    return events


# ---------------------------------------------------------------------------
# Configuration file
# ---------------------------------------------------------------------------

@dataclass
class DimsDecl:
    group: str
    mode: str
    init_method: str


@dataclass
class RunConfig:
    data: Path
    calendar: Path | None = None
    seasons: list[SeasonSpec] = field(default_factory=list)
    dims: list[DimsDecl] = field(default_factory=list)
    trend: str = "additive"
    damping: bool = False
    ar: bool = False
    optim: OptimConfig = field(default_factory=OptimConfig)
    horizon: int = 24
    first_origin: int | None = None
    origin_step: int | None = None
    policy: str = "fixed"

    def model_spec(self, ts: TimeSeries) -> ModelSpec:
        return ModelSpec.for_series(
            ts, trend=self.trend, damping_enabled=self.damping,
            ar_adjustment_enabled=self.ar,
        )


def _search_config(base: OptimConfig = OptimConfig(), **changes) -> OptimConfig:
    """``base`` with ``changes``; a search setting out of range is a usage error."""
    try:
        return replace(base, **changes)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


_FLAGS = {"on": True, "off": False, "true": True, "false": False}


def parse_config(path) -> RunConfig:
    """Parse the flat ``key = value`` run configuration.

    ``season`` and ``dims`` keys may repeat; no two seasons share an id or a
    cycle, and no two ``dims`` lines share a group:
        season = 24 multiplicative ratio_to_ma [id]
        dims   = Holidays multiplicative neutral
    Relative paths resolve against the config file's directory.
    """
    path = Path(path)
    base = path.parent
    values: dict[str, str] = {}
    seasons: list[SeasonSpec] = []
    dims: list[DimsDecl] = []
    try:
        lines = path.read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "\0" in line:  # no path can hold one
            raise UsageError(f"{path}:{lineno}: NUL byte")
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "season":
            parts = value.split()
            if len(parts) not in (3, 4):
                raise UsageError(
                    f"{path}:{lineno}: season needs 'cycle mode init_method [id]'"
                )
            try:
                cycle = int(parts[0])
            except ValueError:
                raise UsageError(f"{path}:{lineno}: bad cycle length {parts[0]!r}") from None
            sid = parts[3] if len(parts) == 4 else f"s{cycle}"
            if any(sid == s.id or cycle == s.cycle_length for s in seasons):
                raise UsageError(f"{path}:{lineno}: duplicate season {sid!r} / cycle {cycle}")
            try:
                seasons.append(SeasonSpec(sid, cycle, parts[1], parts[2]))
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: bad value for 'season': {exc}") from None
        elif key == "dims":
            parts = value.split()
            if len(parts) != 3:
                raise UsageError(f"{path}:{lineno}: dims needs 'group mode init_method'")
            try:
                check_init_method("dims", *parts, DIMS_INIT_METHODS)
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: bad value for 'dims': {exc}") from None
            if any(parts[0] == d.group for d in dims):
                raise UsageError(f"{path}:{lineno}: duplicate dims group {parts[0]!r}")
            dims.append(DimsDecl(*parts))
        elif key in values:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            values[key] = value

    if "data" not in values:
        raise UsageError(f"{path}: missing required key 'data'")

    settings = {"data": (base / values.pop("data")).resolve()}
    if "calendar" in values:
        settings["calendar"] = (base / values.pop("calendar")).resolve()
    elif dims:
        raise UsageError(f"{path}: dims declared but no calendar file configured")

    def take(key, conv, allowed=None):
        if key in values:
            raw = values.pop(key)
            if allowed is not None and raw not in allowed:
                raise UsageError(f"{path}: bad value {raw!r} for {key!r}, "
                                 f"expected one of {', '.join(allowed)}")
            try:
                settings[key] = conv(raw)
            except (ValueError, KeyError):
                raise UsageError(f"{path}: bad value {raw!r} for {key!r}") from None

    take("trend", str, TREND_KINDS)
    take("damping", lambda v: _FLAGS[v.lower()])
    take("ar", lambda v: _FLAGS[v.lower()])
    take("algorithm", str, ALGORITHMS)
    take("objective", str, OBJECTIVES)
    take("max_evals", int)
    take("tolerance", float)
    take("restarts", int)
    take("rng_seed", int)
    take("horizon", int)
    take("first_origin", int)
    take("origin_step", int)
    take("policy", str, POLICIES)
    if values:
        raise UsageError(f"{path}: unknown key(s): {', '.join(sorted(values))}")
    for key in ("horizon", "first_origin", "origin_step"):
        if settings.get(key, 1) < 1:
            raise UsageError(f"{path}: {key} must be >= 1")
    search = {f.name: settings.pop(f.name) for f in fields(OptimConfig) if f.name in settings}
    return RunConfig(seasons=seasons, dims=dims, optim=_search_config(**search), **settings)


def load_series(cfg: RunConfig) -> TimeSeries:
    """Ingest the data file and attach the declared seasonal structure."""
    ts = ingest(cfg.data)
    specs = []
    if cfg.dims:
        events = read_calendar_csv(cfg.calendar)
        wanted = {d.group: d for d in cfg.dims}
        events = [ev for ev in events if ev.recurrence_group in wanted]
        specs = build_dims(
            ts, events,
            mode={g: d.mode for g, d in wanted.items()},
            init_method={g: d.init_method for g, d in wanted.items()},
        )
        built = {s.id for s in specs}
        missing = set(wanted) - built
        if missing:
            raise DataError(f"calendar has no usable events for group(s): {sorted(missing)}")
    return replace(ts, seasons=tuple(cfg.seasons), dims=tuple(specs))


# ---------------------------------------------------------------------------
# Model artifact
# ---------------------------------------------------------------------------

def _write_json(path, doc) -> None:
    """Write ``doc`` as sorted, indented JSON; arrays are written as lists."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=np.ndarray.tolist)
        fh.write("\n")


def save_artifact(path, ts: TimeSeries, spec: ModelSpec, params: SmoothingParams,
                  state: ModelState, objective: float) -> None:
    doc = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "spec": asdict(spec),
        "seasons": [asdict(s) for s in ts.seasons],
        "dims": [asdict(d) for d in ts.dims],
        "params": asdict(params),
        "state": asdict(state),
        "objective": objective,
        "series": {
            "start": ts.start.isoformat(),
            "step_seconds": ts.step.total_seconds(),
            "length": len(ts),
        },
    }
    _write_json(path, doc)


def _from_json(cls, doc):
    """Rebuild a dataclass written with ``asdict``. A missing or unknown
    field, or a value the dataclass rejects, makes the artifact malformed."""
    try:
        missing = {f.name for f in fields(cls)} - set(doc)
        if not missing:
            return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed artifact {cls.__name__}: {exc}") from exc
    raise DataError(f"artifact {cls.__name__} lacks field(s) {sorted(missing)}")


_JSON_KINDS = {dict: "a JSON object", list: "a JSON list", str: "a JSON string",
               float: "a number", int: "an integer"}


def _json_field(doc: dict, key: str, kind: type, where: str = "artifact"):
    """``doc[key]`` if it is of the JSON kind ``kind`` (``float`` takes any
    number, and a JSON bool is no number), else a :class:`DataError`."""
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise DataError(f"{where} {key} must be {_JSON_KINDS[kind]}, not {type(value).__name__}")
    return value


def load_artifact(path) -> tuple[ModelSpec, SmoothingParams, ModelState, list[DimsSpec],
                                 tuple[datetime, timedelta]]:
    """Read a ``model.json`` into its model and its series' clock ``(start,
    step)``; a file the model cannot be rebuilt from is a :class:`DataError`.
    The state's rings are put in declaration order (the engine pairs them
    with the spec's modes by position, and the JSON has sorted keys), then
    the engine's own model check and the series' clock rule run."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise DataError(f"malformed artifact {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"artifact must be a JSON object, not {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != ARTIFACT_SCHEMA_VERSION:
        raise DataError(f"unsupported artifact schema version {version!r}")
    spec = _from_json(ModelSpec, _json_field(doc, "spec", dict))
    params = _from_json(SmoothingParams, _json_field(doc, "params", dict))
    seasons = [_from_json(SeasonSpec, s) for s in _json_field(doc, "seasons", list)]
    dims = [_from_json(DimsSpec, d) for d in _json_field(doc, "dims", list)]
    raw = _json_field(doc, "state", dict)
    kinds = {"level": float, "trend": float, "seasonal": dict, "dims": dict,
             "last_residual": float, "position": int}
    values = {key: _json_field(raw, key, kind, "artifact state") for key, kind in kinds.items()}
    series = _json_field(doc, "series", dict)
    start = _json_field(series, "start", str, "artifact series")
    seconds = _json_field(series, "step_seconds", float, "artifact series")
    try:
        for key, components in (("seasonal", seasons), ("dims", dims)):
            values[key] = {c.id: np.array(values[key][c.id], dtype=float)
                           for c in components if c.id in values[key]}
        state = ModelState(**values)
        _check_consistency(seasons, dims, spec, params, state)
        start, step = datetime.fromisoformat(start), timedelta(seconds=seconds)
        check_clock(start, step)
        start + state.position * step  # the first forecast stamp, OverflowError past 9999
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed artifact: {exc}") from exc
    return spec, params, state, dims, (start, step)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(cfg: RunConfig, out: Path) -> int:
    ts = load_series(cfg)
    spec = cfg.model_spec(ts)
    warm = warmup_length(ts)
    # accuracy.json scores every step after the warm-up; in a multiplicative
    # model the search rejects a nonpositive reading before its first pass
    if not _is_multiplicative(ts, spec):
        check_scored(ts, spec, [warm], len(ts) - warm)
    params, fit = find_params(ts, spec, cfg.optim)
    save_artifact(out / "model.json", ts, spec, params, fit.final_state, fit.objective)
    report = accuracy(fit)
    _write_json(out / "accuracy.json", {
        **asdict(report),
        "aic": report.aic if report.aic != float("-inf") else None,
        "model": reduce_check(spec),
    })
    log.info("fit: objective %.6g, %s", fit.objective, reduce_check(spec))
    return 0


def cmd_forecast(cfg: RunConfig, out: Path, model_path: Path | None) -> int:
    # The stamps come first: a horizon past the year 9999 fails before any search.
    if model_path is not None:
        spec, params, state, dims, (start, step) = load_artifact(model_path)
        stamps = iso_stamps(start, step, range(state.position, state.position + cfg.horizon))
    else:
        ts = load_series(cfg)
        stamps = iso_stamps(ts.start, ts.step, range(len(ts), len(ts) + cfg.horizon))
        spec = cfg.model_spec(ts)
        params, fit = find_params(ts, spec, cfg.optim)
        state, dims = fit.final_state, ts.dims
    values = forecast(state, spec, params, cfg.horizon,
                      project_dims(dims, state.position, cfg.horizon))
    write_csv(out / "forecast.csv", "timestamp,forecast", stamps, map(repr, values.tolist()))
    return 0


def cmd_decompose(cfg: RunConfig, out: Path) -> int:
    try:
        panel_names("seasonal_", [s.id for s in cfg.seasons])
        panel_names("dims_", [d.group for d in cfg.dims])
    except ValueError as exc:
        raise UsageError(f"decompose: {exc}") from None
    ts = load_series(cfg)
    result = mstl(ts)
    written = stlplot_export(result, out)
    log.info("decompose: wrote %d files to %s", len(written), out)
    return 0


def cmd_evaluate(cfg: RunConfig, out: Path) -> int:
    if cfg.first_origin is None:
        raise UsageError("evaluate requires first_origin in the config")
    longest = max((s.cycle_length for s in cfg.seasons), default=0)
    if cfg.first_origin < 2 * longest:
        raise UsageError(f"first_origin {cfg.first_origin} is below two cycles of the "
                         f"longest season ({2 * longest})")
    ts = load_series(cfg)
    step = cfg.origin_step if cfg.origin_step is not None else cfg.horizon
    spec = cfg.model_spec(ts)
    # a reading that cannot be scored must not wait for the fixed policy's search
    check_scored(ts, spec, rolling_origins(len(ts), cfg.first_origin, step, cfg.horizon),
                 cfg.horizon)
    params = None
    if cfg.policy == "fixed":
        params, _fit_res = find_params(ts.prefix(cfg.first_origin), spec, cfg.optim)
    grid = mforecast(
        ts, spec, first_origin=cfg.first_origin, step=step, horizon=cfg.horizon,
        policy=cfg.policy, params=params, optim_config=cfg.optim,
    )
    grid_to_csv(grid, ts, out / "grid.csv")
    _write_json(out / "summary.json", {
        "grand_mape": grid.grand_mape,
        "per_origin": [
            {"origin_timestamp": stamp, "mape": m} for stamp, m in zip(
                iso_stamps(ts.start, ts.step, [o - 1 for o in grid.origins]),
                grid.per_origin_mape.tolist())
        ],
        "per_horizon": [
            {"horizon_step": k + 1, "mape": m}
            for k, m in enumerate(grid.per_horizon_mape.tolist())
        ],
    })
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hwdims", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fit", "forecast", "decompose", "evaluate"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="run configuration file")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override rng seed")
        cmd.add_argument("--verbose", action="store_true")
        if name == "forecast":
            cmd.add_argument("--model", default=None,
                             help="model artifact from a previous fit (else fits inline)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.optim = _search_config(cfg.optim, rng_seed=args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "fit":
            return cmd_fit(cfg, out)
        if args.command == "forecast":
            model = Path(args.model) if getattr(args, "model", None) else None
            return cmd_forecast(cfg, out, model)
        if args.command == "decompose":
            return cmd_decompose(cfg, out)
        return cmd_evaluate(cfg, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except FitInfeasibleError as exc:
        print(f"fit infeasible: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
