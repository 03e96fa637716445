"""Seed initialization and smoothing-parameter search.

Seeds come from cycle means (level/trend) and from slot means
(:func:`~hwdims.timeseries.slot_mean`) of ratios to (or differences from) a
centered moving average: over the slots ``t % s`` for a seasonal ring, and over
a moving seasonality's block offsets, against an average of the steps outside
every block, for its seed. Parameter search minimizes the post-warm-up
one-step-ahead error with a derivative-free optimizer over ``z`` in R^k, mapped
into the box by ``x = lo + (hi - lo) * sigma(z)`` with the logistic ``sigma``
(as ``fminsearchbnd`` bounds MATLAB's ``fminsearch``): every evaluation is one
smoothing pass at an in-bounds point. A point whose fit blows up costs 1e10, so
the search surface stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hw import (
    FitInfeasibleError,
    FitResult,
    ModelSpec,
    ModelState,
    SmoothingParams,
    check_start,
    smooth_pass,
    warmup_length,
)
from .timeseries import DataError, TimeSeries, mape, neutral_value, slot_mean

ALGORITHMS = ("nelder_mead", "random_restart_nelder_mead")
OBJECTIVES = ("rmse", "mape")

INFEASIBLE_PENALTY = 1e10
AR1_LIMIT = 0.999
EDGE = 1e-6  # a start's place in its box is held this far inside (0, 1)
COARSE = 4  # a search without a given start first converges on 1/COARSE of its window


@dataclass(frozen=True)
class OptimConfig:
    algorithm: str = "nelder_mead"
    objective: str = "rmse"
    max_evals: int = 2000
    tolerance: float = 3e-3
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

    Returns the averaged values and the offset of the first covered position;
    a series shorter than the kernel covers none.
    """
    kernel = np.full(s + 1 - s % 2, 1.0 / s)
    if s % 2 == 0:
        kernel[0] = kernel[-1] = 0.5 / s
    if len(kernel) > len(y):
        return np.empty(0), s // 2
    return np.convolve(y, kernel, mode="valid"), s // 2


def init_values(ts: TimeSeries, spec: ModelSpec) -> ModelState:
    """Derive seed state for a fit: level and trend from the first two cycles
    of the longest seasonality, seasonal index rings from ratios to (or
    differences from) a centered moving average, moving-seasonality slots
    neutral or from ratios to (differences from) a moving average that skips
    every block.

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

    seasonal: dict[str, np.ndarray] = {}
    work = y.astype(float)
    for sspec in sorted(ts.seasons, key=lambda s: s.cycle_length):
        s = sspec.cycle_length
        ma, offset = _centered_ma(work, s)
        positions = np.arange(offset, offset + len(ma))
        if sspec.mode == "multiplicative":
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(ma != 0, work[positions] / ma, np.nan)
            slots = np.where(np.isnan(ratios), -1, positions % s)
            ring = slot_mean(ratios, slots, s, 1.0)
            mean = float(np.mean(ring))
            if mean > 0:
                ring = ring / mean
            tiled = np.resize(ring, n)
            with np.errstate(divide="ignore", invalid="ignore"):
                work = np.where(tiled != 0, work / tiled, work)
        else:
            ring = slot_mean(work[positions] - ma, positions % s, s, 0.0)
            ring = ring - float(np.mean(ring))
            work = work - np.resize(ring, n)
        seasonal[sspec.id] = ring
    seasonal = {s.id: seasonal[s.id] for s in ts.seasons}

    dims = {d.id: np.full(d.length, neutral_value(d.mode)) for d in ts.dims}
    informed = [d for d in ts.dims if d.init_method != "neutral"]
    if informed:
        # A block's baseline: the moving average of the steps outside every
        # block, over a window reaching a cycle past the longest block each side.
        kept = np.all([ts.recurrence(d.id) < 0 for d in ts.dims], axis=0).astype(float)
        window = (1 + 2 * math.ceil(max(d.length for d in ts.dims) / longest)) * longest
        total, offset = _centered_ma(work * kept, window)
        weight, _ = _centered_ma(kept, window)
        positions = np.arange(offset, offset + len(total))
        covered = weight >= 0.5
        ma = np.divide(total, weight, out=np.ones(len(total)), where=covered)
        for dspec in informed:
            if dspec.mode == "multiplicative":
                use = covered & (ma > 0)
                values = np.divide(work[positions], ma, out=np.zeros(len(ma)), where=use)
            else:
                use, values = covered, work[positions] - ma
            slots = np.where(use, ts.recurrence(dspec.id)[positions], -1)
            dims[dspec.id] = slot_mean(values, slots, dspec.length, neutral_value(dspec.mode))
    return ModelState(level=level, trend=trend, seasonal=seasonal, dims=dims,
                      last_residual=0.0, position=0)


# ---------------------------------------------------------------------------
# Derivative-free minimizer
# ---------------------------------------------------------------------------

class _BudgetSpent(Exception):
    """The next evaluation of a :func:`nelder_mead` run would exceed its budget."""


def nelder_mead(f, x0, config: OptimConfig, step: float | None = None) -> MinimizeResult:
    """Simplex search: reflection 1, expansion 2, contraction 0.5, shrink 0.5.

    The first simplex steps ``step`` along each axis (default: 5 % of each
    start value, 0.00025 for a zero). Stops when the budget runs out, once
    the diameter and the objective spread are both below ``tolerance``, or
    once the spread is below ``tolerance * |f_best|`` and the centroid does
    not beat ``f_best`` by more than that; a centroid that does (the simplex
    straddles the optimum) replaces the worst vertex. Every evaluation, the
    first simplex's too, counts against ``max_evals``, and the run ends,
    within a step if need be, rather than exceed it. Returns the best vertex
    of the last simplex, or the best point evaluated when the budget ends
    the run within a step.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    steps = np.full(n, step) if step is not None else np.where(x0 != 0.0, 0.05 * x0, 0.00025)
    evals = 0
    x_best, f_best = x0.copy(), math.inf

    def g(x):
        nonlocal evals, x_best, f_best
        if evals == config.max_evals:
            raise _BudgetSpent
        evals += 1
        value = f(x)
        if value < f_best:
            x_best, f_best = x.copy(), value
        return value

    history = []
    iterations = 0
    converged = False
    try:
        sim = [x0.copy(), *(x0 + np.diag(steps))]
        fs = [g(v) for v in sim]
        while True:
            order = np.argsort(fs, kind="stable")
            sim = [sim[i] for i in order]
            fs = [fs[i] for i in order]
            history.append(fs[0])
            if evals >= config.max_evals:
                break
            diameter = max(float(np.max(np.abs(v - sim[0]))) for v in sim[1:]) if n else 0.0
            spread = fs[-1] - fs[0]
            if diameter < config.tolerance and spread < config.tolerance:
                converged = True
                break
            iterations += 1
            relative = config.tolerance * abs(fs[0])
            if spread < relative:
                xm = np.mean(sim, axis=0)
                fm = g(xm)
                if not fm < fs[0] - relative:
                    converged = True
                    break
                sim[-1], fs[-1] = xm, fm
            else:
                centroid = np.mean(sim[:-1], axis=0)
                worst = sim[-1]
                xr = centroid + (centroid - worst)
                fr = g(xr)
                if fr < fs[0]:
                    xe = centroid + 2.0 * (centroid - worst)
                    fe = g(xe)
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
                    fc = g(xc)
                    if fc < min(fr, fs[-1]):
                        sim[-1], fs[-1] = xc, fc
                    else:
                        for i in range(1, n + 1):
                            sim[i] = sim[0] + 0.5 * (sim[i] - sim[0])
                            fs[i] = g(sim[i])
    except _BudgetSpent:  # ends within a step: the best point evaluated
        pass
    else:
        x_best, f_best = sim[0].copy(), fs[0]

    return MinimizeResult(
        x=x_best, fun=f_best, evals=evals, iterations=iterations,
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
    """The user's bounds intersected with the finite hard box; a pair left
    empty or NaN is a ``ValueError`` naming its parameter."""
    hard = default_bounds(ts, spec)
    user = hard if config.bounds is None else config.bounds
    if len(user) != len(hard):
        raise ValueError(f"expected {len(hard)} bound pairs for this model, got {len(user)}")
    bounds = tuple((max(lo, h_lo), min(hi, h_hi)) for (lo, hi), (h_lo, h_hi) in zip(user, hard))
    for name, (lo, hi) in zip(parameter_names(ts, spec), bounds):
        if not lo <= hi:
            raise ValueError(f"bounds of {name} resolve to [{lo}, {hi}]: empty or not finite")
    return bounds


def find_params(
    ts: TimeSeries,
    spec: ModelSpec,
    config: OptimConfig | None = None,
    seeds: ModelState | None = None,
    start: np.ndarray | None = None,
) -> tuple[SmoothingParams, FitResult]:
    """Search the smoothing-parameter box for the best post-warm-up fit.

    Runs over ``z`` with ``x = lo + (hi - lo) * sigma(z)``, in unit steps from
    the logit of the start's place in the box. Without a given ``start`` the
    search is coarse to fine: one Nelder-Mead run from the default start
    scores passes that stop after the first ``len(ts) // COARSE``
    observations, and the search over the whole window starts from its
    optimum. Every pass counts as one evaluation against ``max_evals``
    whatever its length; only a pass over the whole window can be returned.
    Deterministic for a given ``rng_seed``. Raises
    :class:`~hwdims.hw.FitInfeasibleError` when the evaluation budget is
    exhausted without a single feasible parameter point. Before the first
    pass, :func:`~hwdims.hw.check_start` raises for infeasible seeds
    (``step=-1``) and for a nonpositive observation of a multiplicative
    model.
    """
    config = config or OptimConfig()
    lows, highs = np.array(_resolve_bounds(ts, spec, config)).T
    if seeds is None:
        seeds = init_values(ts, spec)
    n = len(ts)
    check_start(ts, spec, seeds, n)
    widths = highs - lows
    warm = warmup_length(ts)

    def to_x(z):
        # tanh, unlike exp, cannot overflow for any z
        return np.clip(lows + widths * (0.5 + 0.5 * np.tanh(0.5 * z)), lows, highs)

    def to_z(x):
        # clipped first: a start outside a subnormal-width box would overflow
        u = np.divide(np.clip(x, lows, highs) - lows, widths, out=np.full(len(x), 0.5),
                      where=widths > 0)
        u = np.clip(u, EDGE, 1.0 - EDGE)
        return np.log(u / (1.0 - u))

    best: dict = {"x": None, "f": math.inf, "fit": None}

    def objective(z, stop=n):
        x = to_x(z)
        try:
            fit = smooth_pass(ts, spec, vector_to_params(x, ts, spec), seeds, [stop])
        except (FitInfeasibleError, ZeroDivisionError, OverflowError):
            return INFEASIBLE_PENALTY
        value = fit.objective if config.objective == "rmse" \
            else mape(ts.values[warm:stop], fit.fitted[warm:])
        if not math.isfinite(value):
            return INFEASIBLE_PENALTY
        if stop == n and value < best["f"]:
            best.update(x=x, f=value, fit=fit)
        return value

    z0 = to_z(default_start(ts, spec) if start is None else np.asarray(start, dtype=float))
    # A start's first simplex costs k + 1 evaluations. The coarse stage
    # leaves the full stage at least that many.
    k = len(z0)
    budget = config.max_evals
    if start is None and n // COARSE > 2 * warm and budget > 2 * (k + 1):
        coarse = nelder_mead(lambda z: objective(z, n // COARSE), z0,
                             replace(config, max_evals=budget - (k + 1)), step=1.0)
        z0, budget = coarse.x, budget - coarse.evals

    # nelder_mead is the one-start case: the whole budget, from the start.
    # The budget caps the starts.
    restarts = config.restarts if config.algorithm == "random_restart_nelder_mead" else 1
    restarts = min(restarts, max(1, budget // (k + 1)))
    run_config = replace(config, max_evals=budget // restarts)
    for r in range(restarts):
        if r == 1:  # numpy.random loads lazily (~6 MB): a one-start search never imports it
            rng = np.random.default_rng(config.rng_seed)
        zs = z0 if r == 0 else to_z(lows + rng.uniform(size=k) * widths)
        nelder_mead(objective, zs, run_config, step=1.0)

    if best["x"] is None:
        raise FitInfeasibleError("no feasible parameter point found within the evaluation budget")
    return vector_to_params(best["x"], ts, spec), best["fit"]
