"""Output checks and accuracy against the generator's truth.

Each ``check_<command>`` reads one CLI output directory, raises
:class:`CheckError` when an output is wrong, and returns ``result_err``:

* fit: post-warm-up RMSE in ``accuracy.json`` / RMS of the injected noise
  over the same steps;
* decompose: RMS error of the recovered event profiles against the injected
  mean event effect, relative to the RMS of that effect (pooled over groups);
* evaluate: ``grand_mape`` of ``summary.json`` as a ratio (percent / 100).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import datetime
from pathlib import Path

import numpy as np

from workloads import SEASONS, START, STEP, WARMUP, Truth, Workload


class CheckError(Exception):
    """A CLI output is missing, malformed or wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def digest(out: Path) -> str:
    """SHA-256 over every output file name and its bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    _require(path.is_file(), f"missing output {path.name}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == header, f"{path.name}: header {rows[:1]} != {header}")
    return rows[1:]


def _step_of(stamp: str) -> int:
    steps, rem = divmod(datetime.fromisoformat(stamp) - START, STEP)
    _require(rem.total_seconds() == 0, f"timestamp {stamp} is off the hourly grid")
    return steps


def _series(path: Path, n: int) -> np.ndarray:
    rows = _read_csv(path, ["timestamp", "value"])
    _require(len(rows) == n, f"{path.name}: {len(rows)} rows, expected {n}")
    _require(_step_of(rows[0][0]) == 0 and _step_of(rows[-1][0]) == n - 1,
             f"{path.name}: timestamps do not span the series")
    values = np.array([float(r[1]) for r in rows])
    _require(bool(np.isfinite(values).all()), f"{path.name}: non-finite values")
    return values


def check_fit(out: Path, workload: Workload, truth: Truth) -> float:
    from hwdims.cli import load_artifact
    from hwdims.hw import forecast, project_dims

    spec, params, state, dims, _doc = load_artifact(out / "model.json")
    n = len(truth.values)
    _require(state.position == n, f"model.json: position {state.position} != {n}")
    _require({d.id: d.occurrences for d in dims} == truth.occurrences,
             "model.json: event occurrences differ from the calendar")
    values = forecast(state, spec, params, 168, project_dims(dims, state.position, 168))
    _require(bool(np.isfinite(values).all()), "reloaded model gives non-finite forecasts")

    report = json.loads((out / "accuracy.json").read_text())
    rmse = report["rmse"]
    _require(isinstance(rmse, float) and math.isfinite(rmse) and rmse > 0,
             f"accuracy.json: bad rmse {rmse!r}")
    _require(report["warmup"] == WARMUP, f"accuracy.json: warmup {report['warmup']}")
    return rmse / float(np.sqrt(np.mean(truth.noise[WARMUP:] ** 2)))


def check_decompose(out: Path, workload: Workload, truth: Truth) -> float:
    n = len(truth.values)
    original = _series(out / "original.csv", n)
    _require(np.array_equal(original, truth.values), "original.csv differs from the input")
    rest = original - _series(out / "trend.csv", n) - _series(out / "remainder.csv", n)
    for sid in SEASONS:
        rest = rest - _series(out / f"seasonal_{sid}.csv", n)

    events = np.zeros(n)
    sq_err = sq_truth = 0.0
    for group, starts in truth.occurrences.items():
        rows = _read_csv(out / f"dims_{group}_profile.csv", ["slot", "value"])
        _require([int(r[0]) for r in rows] == list(range(len(truth.profiles[group]))),
                 f"{group}: profile slots")
        profile = np.array([float(r[1]) for r in rows])
        locations = _read_csv(out / f"dims_{group}_locations.csv",
                              ["start_timestamp", "end_timestamp"])
        spans = [(_step_of(a), _step_of(b)) for a, b in locations]
        _require([a for a, _ in spans] == list(starts), f"{group}: event locations")
        _require(all(b - a == len(profile) for a, b in spans), f"{group}: block lengths")
        for a, b in spans:
            events[a:b] += profile
        sq_err += float(np.sum((profile - truth.profiles[group]) ** 2))
        sq_truth += float(np.sum(truth.profiles[group] ** 2))

    gap = float(np.max(np.abs(rest - events)))
    _require(gap <= 1e-9 * float(np.max(np.abs(original))),
             f"original - trend - seasonals - remainder misses the event components by {gap}")
    return math.sqrt(sq_err / sq_truth)


def check_evaluate(out: Path, workload: Workload, truth: Truth) -> float:
    cfg = dict(line.split(" = ") for line in workload.extra_config)
    horizon, first, step = (int(cfg[k]) for k in ("horizon", "first_origin", "origin_step"))
    n = len(truth.values)
    origins = list(range(first, n - horizon + 1, step))

    rows = _read_csv(out / "grid.csv",
                     ["origin_timestamp", "horizon_step", "actual", "forecast", "ape"])
    _require(len(rows) == len(origins) * horizon,
             f"grid.csv: {len(rows)} rows, expected {len(origins)} x {horizon}")
    layout = [(o, k) for o in origins for k in range(1, horizon + 1)]
    # the origin timestamp is the last observed step, origin - 1
    _require([(_step_of(r[0]) + 1, int(r[1])) for r in rows] == layout,
             "grid.csv: origin/horizon layout")
    grid = np.array([[float(x) for x in r[2:]] for r in rows])
    actual, fcst, ape = grid.T
    _require(np.array_equal(actual, truth.values[[o + k - 1 for o, k in layout]]),
             "grid.csv: actual column differs from the input")
    _require(bool(np.isfinite(fcst).all()), "grid.csv: non-finite forecasts")
    _require(bool(np.allclose(ape, 100 * np.abs(actual - fcst) / np.abs(actual),
                              rtol=1e-12, atol=0.0)), "grid.csv: ape does not match")

    summary = json.loads((out / "summary.json").read_text())
    _require(len(summary["per_origin"]) == len(origins), "summary.json: per_origin length")
    _require(len(summary["per_horizon"]) == horizon, "summary.json: per_horizon length")
    grand = summary["grand_mape"]
    _require(math.isclose(grand, float(np.mean(ape)), rel_tol=1e-9),
             f"summary.json: grand_mape {grand} != mean ape {float(np.mean(ape))}")
    return grand / 100.0


CHECKS = {"fit": check_fit, "decompose": check_decompose, "evaluate": check_evaluate}
