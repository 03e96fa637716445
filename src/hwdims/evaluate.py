"""Rolling-origin forecast grids and fit accuracy reporting."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hw import (  # smooth_pass is unused here; bench/tracing.py wraps it by this name
    FitInfeasibleError,
    FitResult,
    ModelSpec,
    SmoothingParams,
    forecast,
    project_dims,
    smooth_lanes,
    smooth_pass,
    warmup_length,
)
from .optimize import OptimConfig, find_params, init_values, params_to_vector
from .timeseries import TimeSeries, aic, ape, mape, rmse

POLICIES = ("fixed", "refit_per_origin")


@dataclass(frozen=True, eq=False)
class ForecastGrid:
    """Matrix of k-ahead forecasts over successive fit-window end positions.

    Row i holds the forecasts made with the first ``origins[i]`` observations;
    column k-1 holds the k-step-ahead values.
    """

    origins: tuple[int, ...]
    horizon: int
    forecasts: np.ndarray
    actuals: np.ndarray
    per_origin_mape: np.ndarray
    per_horizon_mape: np.ndarray

    @property
    def grand_mape(self) -> float:
        return mape(self.actuals.ravel(), self.forecasts.ravel())


@dataclass(frozen=True)
class AccuracyReport:
    """Fit-window accuracy over the post-warm-up steps."""

    rmse: float
    mape: float
    aic: float
    n_obs: int
    k_params: int
    warmup: int
    params: SmoothingParams


def accuracy(fit: FitResult) -> AccuracyReport:
    """Score a fitted pass: RMSE/MAPE/AIC over the post-warm-up window."""
    errors = fit.one_step_errors[fit.warmup:]
    fitted = fit.fitted[fit.warmup:]
    actual = fitted + errors
    sse = float(np.sum(errors ** 2))
    n = len(errors)
    k = len(params_to_vector(fit.params, fit.spec))
    return AccuracyReport(
        rmse=rmse(actual, fitted),
        mape=mape(actual, fitted),
        aic=aic(sse, n, k) if sse > 0 else float("-inf"),
        n_obs=n,
        k_params=k,
        warmup=fit.warmup,
        params=fit.params,
    )


def mforecast(
    ts: TimeSeries,
    spec: ModelSpec,
    *,
    first_origin: int,
    step: int,
    horizon: int,
    policy: str = "fixed",
    params: SmoothingParams | None = None,
    optim_config: OptimConfig | None = None,
) -> ForecastGrid:
    """Forecast ``horizon`` steps from every origin ``first_origin``,
    ``first_origin + step``, ... while the horizon window stays inside the
    series; origins whose window would run past the end are dropped.

    ``policy="fixed"`` reuses the given ``params`` at every origin: each
    origin gets fresh seeds from its own window, and one
    :func:`~hwdims.hw.smooth_lanes` pass advances every origin's state at
    once, with the result of a :func:`~hwdims.hw.smooth_pass` per window. If
    any origin is infeasible, the error of the lowest one is raised, as a
    loop over the origins would. ``policy="refit_per_origin"`` reruns the
    parameter search per origin, warm-started from the previous origin's
    optimum. Moving-seasonality projections always come from the full
    occurrence calendar, while fitting sees only the blocks wholly inside
    each origin's window.
    """
    n = len(ts)
    longest = max((s.cycle_length for s in ts.seasons), default=1)
    if first_origin < warmup_length(ts) + longest:
        raise ValueError(
            f"first_origin {first_origin} < warm-up + longest cycle "
            f"({warmup_length(ts) + longest})"
        )
    if step < 1:
        raise ValueError("step must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if policy not in POLICIES:
        raise ValueError(f"unknown params policy {policy!r}")
    if policy == "fixed" and params is None:
        raise ValueError("policy 'fixed' requires params")

    origins = []
    o = first_origin
    while o + horizon <= n:
        origins.append(o)
        o += step
    if not origins:
        raise ValueError(
            f"no valid origin: first_origin {first_origin} + horizon {horizon} "
            f"exceeds series length {n}"
        )

    forecasts = np.empty((len(origins), horizon))
    actuals = np.empty((len(origins), horizon))
    if policy == "fixed":
        seeds = [init_values(ts.prefix(origin), spec) for origin in origins]
        states = smooth_lanes(ts, spec, params, seeds, origins)
        for state in states:
            if isinstance(state, FitInfeasibleError):
                raise state
    warm_start = None
    for i, origin in enumerate(origins):
        if policy == "fixed":
            run_params, state = params, states[i]
        else:
            run_params, fit = find_params(ts.prefix(origin), spec, optim_config,
                                          start=warm_start)
            warm_start = params_to_vector(run_params, spec)
            state = fit.final_state
        projection = project_dims(ts, origin, horizon)
        forecasts[i] = forecast(state, spec, run_params, horizon, projection)
        actuals[i] = ts.values[origin:origin + horizon]

    per_origin = np.array([mape(actuals[i], forecasts[i]) for i in range(len(origins))])
    per_horizon = np.array([mape(actuals[:, k], forecasts[:, k]) for k in range(horizon)])
    return ForecastGrid(
        origins=tuple(origins),
        horizon=horizon,
        forecasts=forecasts,
        actuals=actuals,
        per_origin_mape=per_origin,
        per_horizon_mape=per_horizon,
    )


def grid_to_csv(grid: ForecastGrid, ts: TimeSeries, path) -> Path:
    """Write the grid as ``origin_timestamp,horizon_step,actual,forecast,ape``.

    The origin timestamp is the last observed instant before the forecast.
    """
    path = Path(path)
    with open(path, "w", newline="") as fh:
        fh.write("origin_timestamp,horizon_step,actual,forecast,ape\n")
        for i, origin in enumerate(grid.origins):
            stamp = ts.timestamp_at(origin - 1).isoformat()
            row_ape = ape(grid.actuals[i], grid.forecasts[i])
            for k in range(grid.horizon):
                fh.write(
                    f"{stamp},{k + 1},{float(grid.actuals[i, k])!r},"
                    f"{float(grid.forecasts[i, k])!r},{float(row_ape[k])!r}\n"
                )
    return path
