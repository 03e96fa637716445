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
from .evaluate import POLICIES, accuracy, grid_to_csv, mforecast, rolling_origins
from .hw import (
    TREND_KINDS,
    FitInfeasibleError,
    ModelSpec,
    ModelState,
    SmoothingParams,
    check_observations,
    forecast,
    project_dims,
    reduce_check,
)
from .optimize import ALGORITHMS, OBJECTIVES, OptimConfig, find_params
from .timeseries import DIMS_INIT_METHODS, MODES, DataError, DimsSpec, SeasonSpec, TimeSeries
from .timeseries import read_csv, write_csv

log = logging.getLogger(__name__)

ARTIFACT_SCHEMA_VERSION = 1


class UsageError(ValueError):
    """Bad command line or configuration file."""


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _parse_timestamp(text: str, row: int) -> datetime:
    text = text.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"row {row}: unparseable timestamp {text!r}") from exc
    if stamp.tzinfo is not None:
        stamp = stamp.astimezone(timezone.utc).replace(tzinfo=None)
    return stamp


_TICK = timedelta(microseconds=1)  # the resolution of datetime


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

    gaps = diffs[diffs != 0]
    lengths, freq = np.unique(gaps, return_counts=True)
    step_ticks = lengths[np.argmax(freq)]
    step = int(step_ticks) * _TICK
    steps, rem = np.divmod(gaps, step_ticks)
    bad = np.flatnonzero((rem != 0) | (steps > 2))
    end = int(bad[0]) if bad.size else gaps.size

    holes = np.flatnonzero(steps[:end] == 2)
    fills = (means[holes] + means[holes + 1]) / 2.0
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
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
            for given, allowed in zip(parts[1:], (MODES, DIMS_INIT_METHODS)):
                if given not in allowed:
                    raise UsageError(f"{path}:{lineno}: bad value {given!r} for 'dims', "
                                     f"expected one of {', '.join(allowed)}")
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
    for season in cfg.seasons:
        ts = ts.add_season(season)
    if cfg.dims:
        if cfg.calendar is None:
            raise UsageError("dims declared but no calendar file configured")
        events = read_calendar_csv(cfg.calendar)
        steps_per_day = int(timedelta(days=1) / ts.step)
        wanted = {d.group: d for d in cfg.dims}
        events = [ev for ev in events if ev.recurrence_group in wanted]
        specs = build_dims(
            ts, events, steps_per_day,
            mode={g: d.mode for g, d in wanted.items()},
            init_method={g: d.init_method for g, d in wanted.items()},
        )
        built = {s.id for s in specs}
        missing = set(wanted) - built
        if missing:
            raise DataError(f"calendar has no usable events for group(s): {sorted(missing)}")
        for spec in specs:
            ts = ts.add_dims(spec)
    return ts


# ---------------------------------------------------------------------------
# Model artifact
# ---------------------------------------------------------------------------

def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_artifact(path, ts: TimeSeries, spec: ModelSpec, params: SmoothingParams,
                  state: ModelState, objective: float) -> None:
    doc = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "spec": asdict(spec),
        "seasons": [asdict(s) for s in ts.seasons],
        "dims": [asdict(d) for d in ts.dims],
        "params": asdict(params),
        "state": {
            "level": state.level,
            "trend": state.trend,
            "seasonal": {k: v.tolist() for k, v in state.seasonal.items()},
            "dims": {k: v.tolist() for k, v in state.dims.items()},
            "last_residual": state.last_residual,
            "position": state.position,
        },
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
    field, or a value of the wrong type, makes the artifact malformed."""
    try:
        missing = {f.name for f in fields(cls)} - set(doc)
        if missing:
            raise DataError(f"artifact {cls.__name__} lacks field(s) {sorted(missing)}")
        return cls(**doc)
    except TypeError as exc:
        raise DataError(f"malformed artifact {cls.__name__}: {exc}") from exc


_JSON_KINDS = {dict: "a JSON object", list: "a JSON list", str: "a JSON string",
               float: "a number", int: "an integer"}


def _json_field(doc: dict, key: str, kind: type, where: str = "artifact"):
    """``doc[key]`` if it is of the JSON kind ``kind`` (``float`` takes any
    number, and a JSON bool is no number), else a :class:`DataError`."""
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise DataError(f"{where} {key} must be {_JSON_KINDS[kind]}, not {type(value).__name__}")
    return value


def _rings(state: dict, key: str, lengths: dict[str, int]) -> dict[str, np.ndarray]:
    """The state's ``key`` map of index rings in declaration order: the engine
    pairs rings with spec modes positionally, and the JSON has sorted keys.
    ``lengths`` maps each declared id to the number of values its ring holds."""
    table = _json_field(state, key, dict, "artifact state")
    rings = {sid: _json_field(table, sid, list, f"artifact state {key}") for sid in lengths}
    try:
        arrays = {sid: np.array(values, dtype=float) for sid, values in rings.items()}
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed artifact state {key}: {exc}") from exc
    for sid, size in lengths.items():
        if arrays[sid].shape != (size,):
            raise DataError(f"artifact state {key} {sid} must be a list of {size} numbers, "
                            f"not of shape {arrays[sid].shape}")
    return arrays


def load_artifact(path) -> tuple[ModelSpec, SmoothingParams, ModelState, list[DimsSpec], dict]:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DataError(f"artifact must be a JSON object, not {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != ARTIFACT_SCHEMA_VERSION:
        raise DataError(f"unsupported artifact schema version {version!r}")
    spec = _from_json(ModelSpec, _json_field(doc, "spec", dict))
    params = _from_json(SmoothingParams, _json_field(doc, "params", dict))
    seasons = [_from_json(SeasonSpec, s) for s in _json_field(doc, "seasons", list)]
    dims = [_from_json(DimsSpec, d) for d in _json_field(doc, "dims", list)]
    if spec.season_modes != tuple(s.mode for s in seasons) \
            or spec.dims_modes != tuple(d.mode for d in dims):
        raise DataError("artifact spec modes do not match its seasons and dims")
    raw = _json_field(doc, "state", dict)
    state = ModelState(
        level=_json_field(raw, "level", float, "artifact state"),
        trend=_json_field(raw, "trend", float, "artifact state"),
        seasonal=_rings(raw, "seasonal", {s.id: s.cycle_length for s in seasons}),
        dims=_rings(raw, "dims", {d.id: d.length for d in dims}),
        last_residual=_json_field(raw, "last_residual", float, "artifact state"),
        position=_json_field(raw, "position", int, "artifact state"),
    )
    return spec, params, state, dims, doc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _fit(ts: TimeSeries, cfg: RunConfig):
    spec = cfg.model_spec(ts)
    params, fit = find_params(ts, spec, cfg.optim)
    return spec, params, fit


def cmd_fit(cfg: RunConfig, out: Path) -> int:
    ts = load_series(cfg)
    spec, params, fit = _fit(ts, cfg)
    save_artifact(out / "model.json", ts, spec, params, fit.final_state, fit.objective)
    report = accuracy(fit)
    _write_json(out / "accuracy.json", {
        "rmse": report.rmse,
        "mape": report.mape,
        "aic": report.aic if report.aic != float("-inf") else None,
        "n_obs": report.n_obs,
        "k_params": report.k_params,
        "warmup": report.warmup,
        "params": asdict(params),
        "model": reduce_check(spec),
    })
    log.info("fit: objective %.6g, %s", fit.objective, reduce_check(spec))
    return 0


def cmd_forecast(cfg: RunConfig, out: Path, model_path: Path | None) -> int:
    if model_path is not None:
        spec, params, state, dims_specs, _doc = load_artifact(model_path)
        projection_source = tuple(dims_specs)
        origin = state.position
        series = _json_field(_doc, "series", dict)
        start = datetime.fromisoformat(_json_field(series, "start", str, "artifact series"))
        step = timedelta(seconds=_json_field(series, "step_seconds", float, "artifact series"))
    else:
        ts = load_series(cfg)
        spec, params, fit = _fit(ts, cfg)
        state = fit.final_state
        projection_source = ts.dims
        origin = state.position
        start, step = ts.start, ts.step
    projection = project_dims(projection_source, origin, cfg.horizon)
    values = forecast(state, spec, params, cfg.horizon, projection)
    stamps = ((start + (origin + k) * step).isoformat() for k in range(cfg.horizon))
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
    ts = load_series(cfg)
    step = cfg.origin_step if cfg.origin_step is not None else cfg.horizon
    spec = cfg.model_spec(ts)
    params = None
    if cfg.policy == "fixed":
        # The search reads the first origin's window alone; a bad reading
        # between it and the last origin must not wait for the whole search.
        last_origin = rolling_origins(len(ts), cfg.first_origin, step, cfg.horizon)[-1]
        check_observations(ts, spec, last_origin)
        params, _fit_res = find_params(ts.prefix(cfg.first_origin), spec, cfg.optim)
    grid = mforecast(
        ts, spec, first_origin=cfg.first_origin, step=step, horizon=cfg.horizon,
        policy=cfg.policy, params=params, optim_config=cfg.optim,
    )
    grid_to_csv(grid, ts, out / "grid.csv")
    _write_json(out / "summary.json", {
        "grand_mape": grid.grand_mape,
        "per_origin": [
            {"origin_timestamp": ts.timestamp_at(o - 1).isoformat(), "mape": m}
            for o, m in zip(grid.origins, grid.per_origin_mape.tolist())
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
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
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
    except FitInfeasibleError as exc:
        print(f"fit infeasible: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
