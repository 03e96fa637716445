"""Rolling-origin forecast grids and fit accuracy reporting."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hw import (
    FitResult,
    ModelSpec,
    SmoothingParams,
    check_observations,
    forecast,
    project_dims,
    smooth_pass,
    warmup_length,
)
from .optimize import OptimConfig, find_params, init_values, params_to_vector
from .timeseries import DataError, TimeSeries, aic, ape, iso_stamps, mape, rmse, write_csv

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


@np.errstate(over="ignore")  # errors past 1e154 score inf, as in the pass
def accuracy(fit: FitResult) -> AccuracyReport:
    """Score a fitted pass: RMSE/MAPE/AIC over the post-warm-up window."""
    errors = fit.one_step_errors[fit.warmup:]
    fitted = fit.fitted[fit.warmup:]
    actual = fitted + errors
    sse = float(np.sum(errors ** 2))
    n = len(errors)
    # without a trend, gamma is searched but forced to zero: not a fitted parameter
    k = len(params_to_vector(fit.params, fit.spec)) - (fit.spec.trend == "none")
    return AccuracyReport(
        rmse=rmse(actual, fitted),
        mape=mape(actual, fitted),
        aic=aic(sse, n, k) if sse > 0 else float("-inf"),
        n_obs=n,
        k_params=k,
        warmup=fit.warmup,
        params=fit.params,
    )


def rolling_origins(n: int, first_origin: int, step: int, horizon: int) -> list[int]:
    """Origins ``first_origin``, ``first_origin + step``, ... whose horizon
    window ends inside a series of ``n`` observations; :class:`DataError`
    if there is none."""
    origins = list(range(first_origin, n - horizon + 1, step))
    if not origins:
        raise DataError(
            f"no valid origin: first_origin {first_origin} + horizon {horizon} "
            f"exceeds series length {n}"
        )
    return origins


def check_scored(ts: TimeSeries, spec: ModelSpec, origins: list[int], horizon: int) -> None:
    """Raise :class:`DataError`, before any seeding or search, for an
    observation the forecasts from ``origins`` cannot be scored on (see
    :func:`~hwdims.hw.check_observations`), or a zero one in a forecast window."""
    check_observations(ts, spec, origins[-1])
    cells = np.add.outer(origins, np.arange(horizon))
    zeros = cells[ts.values[cells] == 0.0]
    if zeros.size:
        raise DataError(f"a percentage error needs a nonzero actual; "
                        f"observation {zeros.min()} is 0.0")


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
    series; origins whose window would run past the end are dropped. An
    observation the grid cannot be scored on is a
    :class:`~hwdims.timeseries.DataError` before any seeding or search (see
    :func:`check_scored`).

    ``policy="fixed"`` keeps the given ``params`` and updates the state as
    each observation arrives: the model is seeded once from the first
    origin's window, and one :func:`~hwdims.hw.smooth_pass` up to the last
    origin yields the state at every origin, the state a pass over that
    origin's window ends in; an infeasible step before the last origin
    raises, and the pass reads no observation after it.
    ``policy="refit_per_origin"`` reruns the parameter search per origin,
    warm-started from the previous origin's optimum. Both read one
    occurrence calendar: a moving-seasonality block that straddles an origin
    has been updated up to it, as it would be in operation, and the forecast
    projects the rest of it.
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

    origins = rolling_origins(n, first_origin, step, horizon)
    check_scored(ts, spec, origins, horizon)

    forecasts = np.empty((len(origins), horizon))
    actuals = np.empty((len(origins), horizon))
    if policy == "fixed":
        seeds = init_values(ts.prefix(first_origin), spec)
        states = smooth_pass(ts, spec, params, seeds, stops=origins).states
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
    stamps = iso_stamps(ts.start, ts.step, [o - 1 for o in grid.origins])
    steps = [str(k) for k in range(1, grid.horizon + 1)]
    return write_csv(
        path, "origin_timestamp,horizon_step,actual,forecast,ape",
        (stamp for stamp in stamps for _ in steps), steps * len(stamps),
        *(map(repr, column.ravel().tolist())
          for column in (grid.actuals, grid.forecasts, ape(grid.actuals, grid.forecasts))),
    )
