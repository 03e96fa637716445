"""Multiple seasonal Holt-Winters forecasting with moving event seasonalities.

Smoothing engine for any mix of additive/multiplicative regular seasonal
cycles and discrete-interval moving seasonalities (index blocks that recur
irregularly with the calendar), plus seed initialization, derivative-free
parameter search, Loess seasonal-trend decomposition, rolling-origin
evaluation and a CSV-driven command line.
"""

from .calendars import CalendarEvent, build_dims
from .decompose import (
    DecompositionResult,
    loess_smooth,
    mstl,
    stl,
    stlplot_export,
)
from .evaluate import AccuracyReport, ForecastGrid, accuracy, grid_to_csv, mforecast
from .hw import (
    FitInfeasibleError,
    FitResult,
    ModelSpec,
    ModelState,
    SmoothingParams,
    forecast,
    project_dims,
    reduce_check,
    smooth_pass,
    warmup_length,
)
from .optimize import (
    MinimizeResult,
    OptimConfig,
    default_bounds,
    default_start,
    find_params,
    init_values,
    nelder_mead,
    parameter_names,
    params_to_vector,
    vector_to_params,
)
from .timeseries import (
    DataError,
    DimsSpec,
    SeasonSpec,
    TimeSeries,
    aic,
    ape,
    compute_recurrence,
    mape,
    neutral_value,
    rmse,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "CalendarEvent",
    "DataError",
    "DecompositionResult",
    "DimsSpec",
    "FitInfeasibleError",
    "FitResult",
    "ForecastGrid",
    "MinimizeResult",
    "ModelSpec",
    "ModelState",
    "OptimConfig",
    "SeasonSpec",
    "SmoothingParams",
    "TimeSeries",
    "accuracy",
    "aic",
    "ape",
    "build_dims",
    "compute_recurrence",
    "default_bounds",
    "default_start",
    "find_params",
    "forecast",
    "grid_to_csv",
    "init_values",
    "loess_smooth",
    "mape",
    "mforecast",
    "mstl",
    "nelder_mead",
    "neutral_value",
    "parameter_names",
    "params_to_vector",
    "project_dims",
    "reduce_check",
    "rmse",
    "smooth_pass",
    "stl",
    "stlplot_export",
    "vector_to_params",
    "warmup_length",
]
