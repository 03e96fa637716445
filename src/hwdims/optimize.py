"""Seed initialization and smoothing-parameter search.

Seeds come from cycle means (level/trend) and from slot means over slot tables
(:func:`~hwdims.timeseries.slot_mean`): a seasonal ring averages ratios or
differences against a centered moving average over the slots ``t % s``, and a
decomposition-based seed averages over ``t % s`` or over a moving seasonality's
block offsets. Parameter search minimizes the post-warm-up one-step-ahead
error with a derivative-free optimizer. Box constraints are handled purely by penalty: an out-of-bounds
point costs 1e12 plus its squared distance to the feasible box, an in-bounds
point whose fit blows up costs 1e10, so the search surface stays finite and
the returned optimum is always a feasible, in-bounds point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .decompose import mstl
from .hw import (
    FitInfeasibleError,
    FitResult,
    ModelSpec,
    ModelState,
    SmoothingParams,
    smooth_pass,
    warmup_length,
)
from .timeseries import DataError, TimeSeries, mape, neutral_value, slot_mean

ALGORITHMS = ("nelder_mead", "pattern_search", "random_restart_nelder_mead")
OBJECTIVES = ("rmse", "mape")

BOUNDS_PENALTY = 1e12
INFEASIBLE_PENALTY = 1e10
AR1_LIMIT = 0.999


@dataclass(frozen=True)
class OptimConfig:
    algorithm: str = "nelder_mead"
    objective: str = "rmse"
    max_evals: int = 2000
    tolerance: float = 1e-8
    bounds: tuple[tuple[float, float], ...] | None = None
    restarts: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError("tolerance must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    x: np.ndarray
    fun: float
    evals: int
    iterations: int
    f_history: tuple[float, ...]
    converged: bool


# ---------------------------------------------------------------------------
# Seed initialization
# ---------------------------------------------------------------------------

def _centered_ma(y: np.ndarray, s: int) -> tuple[np.ndarray, int]:
    """Centered moving average of window ``s`` (2xMA for even windows).

    Returns the averaged values and the offset of the first covered position.
    """
    if s % 2 == 1:
        kernel = np.full(s, 1.0 / s)
        offset = s // 2
    else:
        kernel = np.full(s + 1, 1.0 / s)
        kernel[0] = kernel[-1] = 0.5 / s
        offset = s // 2
    return np.convolve(y, kernel, mode="valid"), offset


def init_values(ts: TimeSeries, spec: ModelSpec) -> ModelState:
    """Derive seed state for a fit: level and trend from the first two cycles
    of the longest seasonality, seasonal index rings per each season's
    configured method, moving-seasonality slots neutral or taken from the
    decomposition.

    Seasonalities are processed shortest cycle first and removed from a
    working copy of the series before the next ring is estimated, so nested
    cycles (say 24 inside 168) do not double-count the shorter pattern.
    """
    y = ts.values
    n = len(y)
    longest = max((s.cycle_length for s in ts.seasons), default=1)
    if n < 2 * longest:
        raise DataError(f"need >= {2 * longest} observations (2 longest cycles), have {n}")

    first = float(np.mean(y[:longest]))
    second = float(np.mean(y[longest:2 * longest]))
    level = first
    if spec.trend == "multiplicative":
        if first <= 0 or second <= 0:
            raise DataError("multiplicative trend requires positive cycle means")
        trend = (second / first) ** (1.0 / longest)
    elif spec.trend == "additive":
        trend = (second - first) / longest
    else:
        trend = 0.0

    decomposition = None
    needs_stl = any(s.init_method == "stl_based" for s in ts.seasons) or any(
        d.init_method == "stl_based" for d in ts.dims
    )
    if needs_stl:
        decomposition = mstl(ts)

    seasonal: dict[str, np.ndarray] = {}
    work = y.astype(float)
    for sspec in sorted(ts.seasons, key=lambda s: s.cycle_length):
        s = sspec.cycle_length
        multiplicative = sspec.mode == "multiplicative"
        if sspec.init_method == "stl_based":
            means = slot_mean(decomposition.seasonals[sspec.id], np.arange(n) % s, s, 0.0)
            if multiplicative:
                base = float(np.mean(decomposition.trend))
                ring = 1.0 + means / base if base > 0 else np.ones(s)
            else:
                ring = means
        else:
            ma, offset = _centered_ma(work, s)
            positions = np.arange(offset, offset + len(ma))
            if multiplicative:
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratios = np.where(ma != 0, work[positions] / ma, np.nan)
                slots = np.where(np.isnan(ratios), -1, positions % s)
                ring = slot_mean(ratios, slots, s, 1.0)
            else:
                ring = slot_mean(work[positions] - ma, positions % s, s, 0.0)
        if multiplicative:
            mean = float(np.mean(ring))
            if mean > 0:
                ring = ring / mean
            tiled = np.resize(ring, n)
            with np.errstate(divide="ignore", invalid="ignore"):
                work = np.where(tiled != 0, work / tiled, work)
        else:
            ring = ring - float(np.mean(ring))
            work = work - np.resize(ring, n)
        seasonal[sspec.id] = np.asarray(ring, dtype=float)
    seasonal = {s.id: seasonal[s.id] for s in ts.seasons}

    dims: dict[str, np.ndarray] = {}
    for dspec in ts.dims:
        neutral = neutral_value(dspec.mode)
        if dspec.init_method == "neutral":
            dims[dspec.id] = np.full(dspec.length, neutral)
            continue
        profile = decomposition.dims_profiles[dspec.id]
        if dspec.mode == "additive":
            dims[dspec.id] = profile.copy()
        else:
            base = decomposition.trend.copy()
            for comp in decomposition.seasonals.values():
                base = base + comp
            slots = np.where(base > 0, ts.recurrence(dspec.id), -1)
            ratios = np.divide(base + profile[slots], base, out=np.zeros(n), where=slots >= 0)
            dims[dspec.id] = slot_mean(ratios, slots, dspec.length, neutral)
    return ModelState(level=level, trend=trend, seasonal=seasonal, dims=dims,
                      last_residual=0.0, position=0)


# ---------------------------------------------------------------------------
# Derivative-free minimizers
# ---------------------------------------------------------------------------

def nelder_mead(f, x0, config: OptimConfig) -> MinimizeResult:
    """Simplex search: reflection 1, expansion 2, contraction 0.5, shrink 0.5.

    Stops once the simplex diameter and the objective spread are both below
    the configured tolerance (a zero spread alone can occur with the simplex
    still straddling a symmetric optimum), or when the evaluation budget
    runs out.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = [x0.copy()]
    for i in range(n):
        v = x0.copy()
        v[i] += 0.05 * v[i] if v[i] != 0.0 else 0.00025
        sim.append(v)
    fs = [f(v) for v in sim]
    evals = n + 1
    order = np.argsort(fs, kind="stable")
    sim = [sim[i] for i in order]
    fs = [fs[i] for i in order]
    history = [fs[0]]
    iterations = 0
    converged = False

    while evals < config.max_evals:
        diameter = max(float(np.max(np.abs(v - sim[0]))) for v in sim[1:]) if n else 0.0
        spread = fs[-1] - fs[0]
        if diameter < config.tolerance and spread < config.tolerance:
            converged = True
            break
        iterations += 1
        centroid = np.mean(sim[:-1], axis=0)
        worst = sim[-1]
        xr = centroid + (centroid - worst)
        fr = f(xr)
        evals += 1
        if fr < fs[0]:
            xe = centroid + 2.0 * (centroid - worst)
            fe = f(xe)
            evals += 1
            if fe < fr:
                sim[-1], fs[-1] = xe, fe
            else:
                sim[-1], fs[-1] = xr, fr
        elif fr < fs[-2]:
            sim[-1], fs[-1] = xr, fr
        else:
            if fr < fs[-1]:
                xc = centroid + 0.5 * (centroid - worst)
            else:
                xc = centroid - 0.5 * (centroid - worst)
            fc = f(xc)
            evals += 1
            if fc < min(fr, fs[-1]):
                sim[-1], fs[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    sim[i] = sim[0] + 0.5 * (sim[i] - sim[0])
                    fs[i] = f(sim[i])
                evals += n
        order = np.argsort(fs, kind="stable")
        sim = [sim[i] for i in order]
        fs = [fs[i] for i in order]
        history.append(fs[0])

    return MinimizeResult(
        x=sim[0].copy(), fun=fs[0], evals=evals, iterations=iterations,
        f_history=tuple(history), converged=converged,
    )


def pattern_search(f, x0, config: OptimConfig,
                   bounds: tuple[tuple[float, float], ...] | None = None) -> MinimizeResult:
    """Compass search: poll +/- one step along each axis, move to the best
    improving point, otherwise halve the step."""
    x = np.asarray(x0, dtype=float)
    n = len(x)
    if bounds is not None:
        steps = np.array([0.25 * (hi - lo) for lo, hi in bounds])
    else:
        steps = np.full(n, 0.25)
    fx = f(x)
    evals = 1
    history = [fx]
    iterations = 0
    converged = False
    while evals + 2 * n <= config.max_evals:
        if float(np.max(steps)) < config.tolerance:
            converged = True
            break
        iterations += 1
        best_x, best_f = None, fx
        for i in range(n):
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[i] += sign * steps[i]
                fc = f(cand)
                evals += 1
                if fc < best_f:
                    best_x, best_f = cand, fc
        if best_x is None:
            steps *= 0.5
        else:
            x, fx = best_x, best_f
        history.append(fx)
    return MinimizeResult(
        x=x.copy(), fun=fx, evals=evals, iterations=iterations,
        f_history=tuple(history), converged=converged,
    )


# ---------------------------------------------------------------------------
# Parameter search over the smoothing engine
# ---------------------------------------------------------------------------

def _param_rows(spec: ModelSpec) -> list[tuple[str, int | None, tuple[float, float], float]]:
    """Search-vector layout: per entry the :class:`SmoothingParams` field it
    sets, its index when that field is a tuple, its bounds and its start.

    Small smoothing weights are the stable starting region.
    """
    unit = (0.0, 1.0)
    rows = [("alpha", None, unit, 0.1), ("gamma", None, unit, 0.1)]
    rows += [("deltas", i, unit, 0.1) for i in range(len(spec.season_modes))]
    rows += [("deltas_dims", i, unit, 0.1) for i in range(len(spec.dims_modes))]
    if spec.damping_enabled:
        rows.append(("phi", None, unit, 0.95))
    if spec.ar_adjustment_enabled:
        rows.append(("ar1", None, (-AR1_LIMIT, AR1_LIMIT), 0.0))
    return rows


def parameter_names(ts: TimeSeries, spec: ModelSpec) -> list[str]:
    """Layout of the search vector for this configuration."""
    indexed = {"deltas": ("delta_", ts.seasons), "deltas_dims": ("delta_dims_", ts.dims)}
    names = []
    for name, index, _bounds, _start in _param_rows(spec):
        if index is not None:
            prefix, specs = indexed[name]
            name = prefix + specs[index].id
        names.append(name)
    return names


def default_bounds(ts: TimeSeries, spec: ModelSpec) -> tuple[tuple[float, float], ...]:
    return tuple(bounds for _name, _index, bounds, _start in _param_rows(spec))


def default_start(ts: TimeSeries, spec: ModelSpec) -> np.ndarray:
    return np.array([start for _name, _index, _bounds, start in _param_rows(spec)])


def vector_to_params(x, ts: TimeSeries, spec: ModelSpec) -> SmoothingParams:
    kwargs: dict = {"deltas": [], "deltas_dims": []}
    for (name, index, _bounds, _start), v in zip(
        _param_rows(spec), np.asarray(x, dtype=float), strict=True
    ):
        if index is None:
            kwargs[name] = float(v)
        else:
            kwargs[name].append(v)
    return SmoothingParams(**kwargs)


def params_to_vector(params: SmoothingParams, spec: ModelSpec) -> np.ndarray:
    """Inverse of :func:`vector_to_params`: the search vector of ``params``."""
    return np.array([
        getattr(params, name) if index is None else getattr(params, name)[index]
        for name, index, _bounds, _start in _param_rows(spec)
    ])


def _resolve_bounds(ts, spec, config) -> tuple[tuple[float, float], ...]:
    hard = default_bounds(ts, spec)
    if config.bounds is None:
        return hard
    if len(config.bounds) != len(hard):
        raise ValueError(
            f"expected {len(hard)} bound pairs for this configuration, "
            f"got {len(config.bounds)}"
        )
    return tuple(
        (max(lo, h_lo), min(hi, h_hi))
        for (lo, hi), (h_lo, h_hi) in zip(config.bounds, hard)
    )


def find_params(
    ts: TimeSeries,
    spec: ModelSpec,
    config: OptimConfig | None = None,
    seeds: ModelState | None = None,
    start: np.ndarray | None = None,
) -> tuple[SmoothingParams, FitResult]:
    """Search the smoothing-parameter box for the best post-warm-up fit.

    Deterministic for a given ``rng_seed``. Raises
    :class:`~hwdims.hw.FitInfeasibleError` when the evaluation budget is
    exhausted without a single feasible parameter point, and at the first
    evaluation when the seeds themselves are infeasible (``step=-1``).
    """
    config = config or OptimConfig()
    if seeds is None:
        seeds = init_values(ts, spec)
    bounds = _resolve_bounds(ts, spec, config)
    warm = warmup_length(ts)
    y = ts.values
    lows = np.array([b[0] for b in bounds])
    highs = np.array([b[1] for b in bounds])

    best: dict = {"x": None, "f": math.inf, "fit": None}

    def objective(x):
        x = np.asarray(x, dtype=float)
        below = np.clip(lows - x, 0.0, None)
        above = np.clip(x - highs, 0.0, None)
        dist2 = float(np.sum(below ** 2 + above ** 2))
        if dist2 > 0.0:
            return BOUNDS_PENALTY + dist2
        params = vector_to_params(x, ts, spec)
        try:
            fit = smooth_pass(ts, spec, params, seeds)
        except FitInfeasibleError as exc:
            if exc.step == -1:  # the seeds are at fault; no parameter point can repair them
                raise
            return INFEASIBLE_PENALTY
        except (ZeroDivisionError, OverflowError):
            return INFEASIBLE_PENALTY
        if config.objective == "rmse":
            value = fit.objective
        else:
            value = mape(y[warm:], fit.fitted[warm:])
        if not math.isfinite(value):
            return INFEASIBLE_PENALTY
        if value < best["f"]:
            best.update(x=x.copy(), f=value, fit=fit)
        return value

    x0 = np.asarray(start, dtype=float) if start is not None else default_start(ts, spec)
    x0 = np.clip(x0, lows, highs)

    if config.algorithm == "nelder_mead":
        nelder_mead(objective, x0, config)
    elif config.algorithm == "pattern_search":
        pattern_search(objective, x0, config, bounds)
    else:
        rng = np.random.default_rng(config.rng_seed)
        per_run = max(1, config.max_evals // config.restarts)
        run_config = replace(config, algorithm="nelder_mead", max_evals=per_run)
        for r in range(config.restarts):
            xs = x0 if r == 0 else lows + rng.uniform(size=len(x0)) * (highs - lows)
            nelder_mead(objective, xs, run_config)

    if best["x"] is None:
        raise FitInfeasibleError(
            "no feasible parameter point found within the evaluation budget"
        )
    params = vector_to_params(np.clip(best["x"], lows, highs), ts, spec)
    fit = best["fit"]
    return params, fit
