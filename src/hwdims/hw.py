"""Generalized multiple-seasonal Holt-Winters smoothing engine.

One recursion covers the whole model family: level, an additive or
multiplicative trend (optionally damped), any number of regular seasonal
cycles and of moving seasonalities (each additive or multiplicative), and a
first-order autocorrelation correction of the forecasts.

Regular cycles and moving seasonalities are one kind of index component: a
value array read through a per-step slot table. A regular cycle of length s
reads slot ``t % s`` at every step; a moving seasonality reads the
within-block offset of its occurrence blocks and slot -1 (no contribution:
the neutral element, 0 additive or 1 multiplicative) outside them, so its
values carry over from one occurrence to the next. Components are kept in
one list, regular cycles first, then moving seasonalities.

Per step t the engine (1) gathers the pre-update value of every component
whose slot is active, additive terms summed and factors multiplied, (2)
forms the one-step-ahead forecast from the state at t-1 and records the
residual, (3) updates level and trend, and (4) updates each active slot.
Forecasts read the same components through their future slot tables:
``(position + k - 1) % s`` for a regular cycle, :func:`project_dims` for a
moving seasonality.

Two engines run this recursion. :func:`smooth_pass` advances one seed state
with Python floats and keeps the residuals; the parameter search runs it once
per candidate, and the tests pin the rest of the library to it.
:func:`smooth_lanes` advances many seed states ("lanes", each with its own
stop) under one parameter vector in lockstep, every state variable a
(lanes,) array and every index component a (lanes, size) array; the
fixed-parameter rolling-origin evaluation runs all its origins in one such
pass. A lane step costs about as much as 20–25 scalar steps, from 16 to
182 lanes alike (13,000 steps, two cycles and one moving seasonality), so
the scalar engine stays the one for a single state and for a few.

With one multiplicative seasonality, no moving seasonalities, an undamped
trend and no autocorrelation term, the recursion reduces exactly to the
classic multiplicative Holt-Winters method; the test suite pins that
equivalence against an independent implementation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .timeseries import DataError, DimsSpec, TimeSeries, _slot_table

TREND_KINDS = ("none", "additive", "multiplicative")


class FitInfeasibleError(RuntimeError):
    """A multiplicative component was driven to a nonpositive value.

    Signals an infeasible parameter point to the optimizer; carries the step
    index at which the recursion broke down.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class ModelSpec:
    """Structural configuration of one fit: trend kind, per-seasonality modes.

    ``trend="none"`` is run as an additive trend with the trend smoothing
    weight forced to zero and a zero trend seed. Disabled damping forces the
    damping factor to 1 (undamped); a disabled autocorrelation adjustment
    forces its coefficient to 0.
    """

    trend: str = "additive"
    damping_enabled: bool = False
    ar_adjustment_enabled: bool = False
    season_modes: tuple[str, ...] = ()
    dims_modes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "season_modes", tuple(self.season_modes))
        object.__setattr__(self, "dims_modes", tuple(self.dims_modes))
        if self.trend not in TREND_KINDS:
            raise ValueError(f"unknown trend kind {self.trend!r}")

    @classmethod
    def for_series(
        cls,
        ts: TimeSeries,
        trend: str = "additive",
        damping_enabled: bool = False,
        ar_adjustment_enabled: bool = False,
    ) -> ModelSpec:
        return cls(
            trend=trend,
            damping_enabled=damping_enabled,
            ar_adjustment_enabled=ar_adjustment_enabled,
            season_modes=tuple(s.mode for s in ts.seasons),
            dims_modes=tuple(d.mode for d in ts.dims),
        )


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing weights. All weights live in [0, 1]; the autocorrelation
    coefficient in (-1, 1)."""

    alpha: float
    gamma: float = 0.0
    deltas: tuple[float, ...] = ()
    deltas_dims: tuple[float, ...] = ()
    phi: float = 1.0
    ar1: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        object.__setattr__(self, "deltas_dims", tuple(float(d) for d in self.deltas_dims))
        for name in ("alpha", "gamma", "phi"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        for i, d in enumerate(self.deltas):
            if not 0.0 <= d <= 1.0:
                raise ValueError(f"deltas[{i}]={d} outside [0, 1]")
        for i, d in enumerate(self.deltas_dims):
            if not 0.0 <= d <= 1.0:
                raise ValueError(f"deltas_dims[{i}]={d} outside [0, 1]")
        if not -1.0 < self.ar1 < 1.0:
            raise ValueError(f"ar1={self.ar1} outside (-1, 1)")

    def effective(self, spec: ModelSpec) -> SmoothingParams:
        """Apply the structural forcings declared by ``spec``."""
        gamma = 0.0 if spec.trend == "none" else self.gamma
        phi = self.phi if spec.damping_enabled else 1.0
        ar1 = self.ar1 if spec.ar_adjustment_enabled else 0.0
        if (gamma, phi, ar1) == (self.gamma, self.phi, self.ar1):
            return self
        return SmoothingParams(
            alpha=self.alpha, gamma=gamma, deltas=self.deltas,
            deltas_dims=self.deltas_dims, phi=phi, ar1=ar1,
        )


@dataclass(frozen=True, eq=False)
class ModelState:
    """Evolving model state: level, trend, index rings and last residual.

    ``trend`` holds the additive trend term, or the multiplicative trend
    ratio when the model's trend kind is multiplicative. ``seasonal`` maps
    season id to its ring of cycle_length index values (slot q serves series
    positions congruent to q). ``dims`` maps each moving seasonality to its
    per-block-offset values, carried across occurrences. ``position`` is the
    number of observations consumed, so forecasts know which slots come next.
    """

    level: float
    trend: float
    seasonal: dict[str, np.ndarray] = field(default_factory=dict)
    dims: dict[str, np.ndarray] = field(default_factory=dict)
    last_residual: float = 0.0
    position: int = 0

    def copy(self) -> ModelState:
        return ModelState(
            level=self.level,
            trend=self.trend,
            seasonal={k: v.copy() for k, v in self.seasonal.items()},
            dims={k: v.copy() for k, v in self.dims.items()},
            last_residual=self.last_residual,
            position=self.position,
        )


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of one smoothing pass over a fit window."""

    final_state: ModelState
    one_step_errors: np.ndarray
    fitted: np.ndarray
    objective: float
    warmup: int
    spec: ModelSpec
    params: SmoothingParams


def warmup_length(ts: TimeSeries) -> int:
    """Steps excluded from the fit objective: one cycle of the longest
    regular seasonality, where seed values still dominate the residuals."""
    return max((s.cycle_length for s in ts.seasons), default=0)


def _check_consistency(ts: TimeSeries, spec: ModelSpec, params: SmoothingParams,
                       seeds: ModelState) -> None:
    if len(spec.season_modes) != len(ts.seasons):
        raise ValueError("spec season_modes do not match series seasons")
    if len(spec.dims_modes) != len(ts.dims):
        raise ValueError("spec dims_modes do not match series dims")
    for s, mode in zip(ts.seasons, spec.season_modes):
        if s.mode != mode:
            raise ValueError(f"season {s.id!r}: spec mode {mode!r} != series mode {s.mode!r}")
    if len(params.deltas) != len(ts.seasons):
        raise ValueError(f"expected {len(ts.seasons)} seasonal deltas, got {len(params.deltas)}")
    if len(params.deltas_dims) != len(ts.dims):
        raise ValueError(f"expected {len(ts.dims)} dims deltas, got {len(params.deltas_dims)}")
    for s in ts.seasons:
        ring = seeds.seasonal.get(s.id)
        if ring is None or len(ring) != s.cycle_length:
            raise ValueError(f"seed ring for season {s.id!r} missing or wrong length")
    for d in ts.dims:
        arr = seeds.dims.get(d.id)
        if arr is None or len(arr) != d.length:
            raise ValueError(f"seed slots for dims {d.id!r} missing or wrong length")


def _components(ids, values, modes, slots, deltas) -> list[tuple]:
    """Index components as ``(id, values, slots, is_mult, delta)`` tuples of
    plain Python lists, the form the scalar loops index fastest."""
    return [
        (cid, [float(v) for v in vals], slot_list, mode == "multiplicative", delta)
        for cid, vals, mode, slot_list, delta in zip(ids, values, modes, slots, deltas)
    ]


def _gather(components, t: int) -> tuple[float, float]:
    """Sum of the additive and product of the multiplicative index values
    read at step ``t``; components with slot -1 contribute nothing."""
    sum_add = 0.0
    prod_mul = 1.0
    for _cid, values, slots, is_mult, _delta in components:
        q = slots[t]
        if q >= 0:
            if is_mult:
                prod_mul *= values[q]
            else:
                sum_add += values[q]
    return sum_add, prod_mul


def _seed_failure(ts: TimeSeries, spec: ModelSpec,
                  seeds: ModelState) -> FitInfeasibleError | None:
    """The error a pass from ``seeds`` raises before its first step (step -1):
    a multiplicative model needs a positive seed level, a multiplicative trend
    a positive seed ratio and a multiplicative index positive seed values."""
    mult_trend = spec.trend == "multiplicative"
    indices = [(s.id, s.mode, seeds.seasonal[s.id]) for s in ts.seasons] \
        + [(d.id, d.mode, seeds.dims[d.id]) for d in ts.dims]
    mult = [(cid, values) for cid, mode, values in indices if mode == "multiplicative"]
    if (mult_trend or mult) and seeds.level <= 0:
        message = "seed level must be positive for a multiplicative model"
    elif mult_trend and seeds.trend <= 0:
        message = "multiplicative trend seed must be positive"
    else:
        bad = [cid for cid, values in mult if np.any(np.asarray(values) <= 0.0)]
        if not bad:
            return None
        message = f"multiplicative seed index of {bad[0]!r} must be positive"
    return FitInfeasibleError(message, step=-1)


def _nonpositive(what: str, t: int) -> FitInfeasibleError:
    return FitInfeasibleError(f"{what} became nonpositive at step {t}", step=t)


def smooth_pass(
    ts: TimeSeries,
    spec: ModelSpec,
    params: SmoothingParams,
    seeds: ModelState,
) -> FitResult:
    """Run the smoothing recursion over the whole series and score the fit.

    The objective is the RMSE of the one-step-ahead residuals after the
    warm-up window. Raises :class:`FitInfeasibleError` as soon as a
    multiplicative configuration drives the level or an index nonpositive;
    no clamping is attempted, so the optimizer sees an honest surface.
    """
    _check_consistency(ts, spec, params, seeds)
    eff = params.effective(spec)
    alpha, gamma, phi, ar1 = eff.alpha, eff.gamma, eff.phi, eff.ar1
    mult_trend = spec.trend == "multiplicative"

    y = ts.values.tolist()
    n = len(y)
    warm = warmup_length(ts)
    if n <= warm:
        raise DataError(f"series length {n} does not exceed warm-up window {warm}")

    specs = ts.seasons + ts.dims
    components = _components(
        [c.id for c in specs],
        [seeds.seasonal[s.id] for s in ts.seasons] + [seeds.dims[d.id] for d in ts.dims],
        [c.mode for c in specs],
        [(np.arange(n) % s.cycle_length).tolist() for s in ts.seasons]
        + [ts.recurrence(d.id).tolist() for d in ts.dims],
        eff.deltas + eff.deltas_dims,
    )

    has_mult = mult_trend or any(c[3] for c in components)
    failure = _seed_failure(ts, spec, seeds)
    if failure is not None:
        raise failure
    updated = [c for c in components if c[4] != 0.0]

    level = float(seeds.level)
    trend = 0.0 if spec.trend == "none" else float(seeds.trend)
    eps = float(seeds.last_residual)
    fitted = [0.0] * n
    errors = [0.0] * n

    for t in range(n):
        yt = y[t]
        sum_add, prod_mul = _gather(components, t)

        base = level * trend ** phi if mult_trend else level + phi * trend
        yhat = (base + sum_add) * prod_mul + ar1 * eps
        fitted[t] = yhat
        eps = yt - yhat
        errors[t] = eps

        prev_level = level
        level = alpha * ((yt - sum_add) / prod_mul) + (1.0 - alpha) * base
        if has_mult and level <= 0.0:
            raise _nonpositive("level", t)
        if mult_trend:
            trend = gamma * (level / prev_level) + (1.0 - gamma) * trend ** phi
            if trend <= 0.0:
                raise _nonpositive("trend ratio", t)
        else:
            trend = gamma * (level - prev_level) + (1.0 - gamma) * phi * trend

        for cid, values, slots, is_mult, delta in updated:
            q = slots[t]
            if q < 0:
                continue
            v = values[q]
            if is_mult:
                new = delta * ((yt - sum_add) / (level * (prod_mul / v))) + (1.0 - delta) * v
                if new <= 0.0:
                    raise _nonpositive(f"index of {cid!r}", t)
            else:
                new = delta * ((yt - level - (sum_add - v)) / prod_mul) + (1.0 - delta) * v
            values[q] = new

    n_seasons = len(ts.seasons)
    final = ModelState(
        level=level,
        trend=trend,
        seasonal={c[0]: np.array(c[1]) for c in components[:n_seasons]},
        dims={c[0]: np.array(c[1]) for c in components[n_seasons:]},
        last_residual=eps,
        position=seeds.position + n,
    )
    tail = errors[warm:]
    objective = float(np.sqrt(np.mean(np.square(tail))))
    return FitResult(
        final_state=final,
        one_step_errors=np.array(errors),
        fitted=np.array(fitted),
        objective=objective,
        warmup=warm,
        spec=spec,
        params=params,
    )


def _first_lanes(spec: DimsSpec, n: int, stops: np.ndarray) -> list[int]:
    """For each step of a series of length ``n``, the first lane (``stops``
    ascending) whose window holds the whole occurrence block of that step;
    ``len(stops)`` outside every block."""
    first = np.full(n, len(stops), dtype=np.int64)
    for occ in spec.occurrences:
        first[occ:occ + spec.length] = np.searchsorted(stops, occ + spec.length)
    return first.tolist()


def smooth_lanes(
    ts: TimeSeries,
    spec: ModelSpec,
    params: SmoothingParams,
    seeds: Sequence[ModelState],
    stops: Sequence[int],
) -> list[ModelState | FitInfeasibleError]:
    """Run the recursion of :func:`smooth_pass` over many windows at once.

    Lane p starts from ``seeds[p]`` and consumes the window
    ``ts.prefix(stops[p])``; all lanes share ``params``. ``stops`` must be
    ascending, so the lanes still running at step t are a suffix of them.
    Every state variable is a (lanes,) array and every index component a
    (lanes, size) array, advanced one step for all running lanes at a time.
    A moving seasonality reads, in each lane, only the blocks wholly inside
    that lane's window, as the prefix's slot table does.

    Returns, per lane, the final state :func:`smooth_pass` returns for that
    window, or the :class:`FitInfeasibleError` it raises, with the same
    message and step. The arithmetic is the scalar pass's, operation for
    operation, so the states are bit-identical, except that numpy's power
    function (the damped multiplicative trend, ``trend ** phi``) may differ
    from the C library's in the last bit. A lane that fails is set to NaN and
    checked no further; the other lanes run on. Residuals and fitted values
    are not kept. Overflow and NaN pass silently, as in the scalar float
    arithmetic; a division by zero raises ``FloatingPointError`` where the
    scalar pass raises ``ZeroDivisionError``.
    """
    stops = [int(stop) for stop in stops]
    if len(seeds) != len(stops):
        raise ValueError(f"{len(seeds)} seed states for {len(stops)} stops")
    if not stops:
        return []
    n = len(ts)
    if any(b < a for a, b in zip(stops, stops[1:])):
        raise ValueError("stops must be ascending")
    if stops[0] < 1 or stops[-1] > n:
        raise ValueError(f"stops must lie in 1..{n}")
    for seed in seeds:
        _check_consistency(ts, spec, params, seed)
    warm = warmup_length(ts)
    if stops[0] <= warm:
        raise DataError(f"series length {stops[0]} does not exceed warm-up window {warm}")
    eff = params.effective(spec)
    alpha, gamma, phi, ar1 = eff.alpha, eff.gamma, eff.phi, eff.ar1
    mult_trend = spec.trend == "multiplicative"
    lanes = len(stops)
    stop_arr = np.array(stops)

    # (id, values (lanes, size), slots per step, first lane per step, is_mult, delta)
    components = [
        (s.id, np.array([seed.seasonal[s.id] for seed in seeds], dtype=float),
         (np.arange(n) % s.cycle_length).tolist(), None, s.mode == "multiplicative", delta)
        for s, delta in zip(ts.seasons, eff.deltas)
    ] + [
        (d.id, np.array([seed.dims[d.id] for seed in seeds], dtype=float),
         ts.recurrence(d.id).tolist(), _first_lanes(d, n, stop_arr),
         d.mode == "multiplicative", delta)
        for d, delta in zip(ts.dims, eff.deltas_dims)
    ]
    has_mult = mult_trend or any(c[4] for c in components)

    results: list[ModelState | FitInfeasibleError | None] = [None] * lanes
    level = np.array([float(seed.level) for seed in seeds])
    trend = np.zeros(lanes) if spec.trend == "none" \
        else np.array([float(seed.trend) for seed in seeds])
    eps = np.array([float(seed.last_residual) for seed in seeds])
    for p, seed in enumerate(seeds):
        results[p] = _seed_failure(ts, spec, seed)
        if results[p] is not None:
            level[p] = np.nan

    y = ts.values.tolist()
    lo = start = 0
    with np.errstate(over="ignore", invalid="ignore", divide="raise"):
        for end in sorted(set(stops)):
            # lanes lo.. run on until ``end``; row i of each array is lane lo + i
            rows = [(cid, vals[lo:], slots, first, is_mult, delta)
                    for cid, vals, slots, first, is_mult, delta in components]
            updated = [c for c in rows if c[5] != 0.0]
            for t in range(start, end):
                yt = y[t]
                sum_add, prod_mul = _gather_lanes(rows, t, lo, len(level))

                if mult_trend:
                    damped = trend ** phi
                    base = level * damped
                else:
                    base = level + phi * trend
                yhat = (base + sum_add) * prod_mul + ar1 * eps
                eps = yt - yhat

                prev_level = level
                resid = yt - sum_add
                level = alpha * (resid / prod_mul) + (1.0 - alpha) * base
                if has_mult:
                    _fail_lanes(level <= 0.0, "level", t, lo, results, level)
                if mult_trend:
                    trend = gamma * (level / prev_level) + (1.0 - gamma) * damped
                    _fail_lanes(trend <= 0.0, "trend ratio", t, lo, results, level)
                else:
                    trend = gamma * (level - prev_level) + (1.0 - gamma) * phi * trend

                for cid, vals, slots, first, is_mult, delta in updated:
                    q = slots[t]
                    if q < 0:
                        continue
                    g = 0 if first is None else max(first[t] - lo, 0)
                    if g >= len(level):
                        continue
                    v = vals[g:, q]
                    if g:
                        lv, sa, pm, r = (x[g:] if isinstance(x, np.ndarray) else x
                                         for x in (level, sum_add, prod_mul, resid))
                    else:
                        lv, sa, pm, r = level, sum_add, prod_mul, resid
                    if is_mult:
                        new = delta * (r / (lv * (pm / v))) + (1.0 - delta) * v
                        _fail_lanes(new <= 0.0, f"index of {cid!r}", t, lo + g, results, lv)
                    else:
                        new = delta * ((yt - lv - (sa - v)) / pm) + (1.0 - delta) * v
                    vals[g:, q] = new
            start = end

            done = bisect_right(stops, end) - lo
            for i in range(done):
                p = lo + i
                if results[p] is None:
                    results[p] = ModelState(
                        level=float(level[i]),
                        trend=float(trend[i]),
                        seasonal={c[0]: c[1][i].copy() for c in rows[:len(ts.seasons)]},
                        dims={c[0]: c[1][i].copy() for c in rows[len(ts.seasons):]},
                        last_residual=float(eps[i]),
                        position=seeds[p].position + stops[p],
                    )
            lo += done
            level, trend, eps = level[done:], trend[done:], eps[done:]
    return results


def _gather_lanes(rows, t: int, lo: int, m: int):
    """:func:`_gather` for the ``m`` running lanes ``lo..``: a moving
    seasonality contributes only in the lanes from the first one that holds
    the whole block of step ``t``. Returns the scalars 0.0 and 1.0 where no
    component contributes."""
    sum_add = 0.0
    prod_mul = 1.0
    for _cid, vals, slots, first, is_mult, _delta in rows:
        q = slots[t]
        if q < 0:
            continue
        g = 0 if first is None else max(first[t] - lo, 0)
        if g >= m:
            continue
        if g == 0:
            col = vals[:, q]
        else:  # neutral in the lanes whose window cuts the block
            col = np.full(m, 1.0 if is_mult else 0.0)
            col[g:] = vals[g:, q]
        if is_mult:
            prod_mul = prod_mul * col
        else:
            sum_add = sum_add + col
    return sum_add, prod_mul


def _fail_lanes(bad: np.ndarray, what: str, t: int, lo: int, results: list,
                level: np.ndarray) -> None:
    """Record the error of each newly failed lane (row i is lane lo + i) and
    set its level to NaN, which every later step carries into the whole
    lane state and no nonpositivity test flags again."""
    if bad.any():
        for i in np.flatnonzero(bad).tolist():
            results[lo + i] = _nonpositive(what, t)
        level[bad] = np.nan


def project_dims(
    source: TimeSeries | tuple[DimsSpec, ...] | list[DimsSpec],
    origin: int,
    horizon: int,
) -> dict[str, np.ndarray]:
    """Future slot tables of the moving seasonalities for k=1..horizon.

    ``origin`` is the number of observations consumed before forecasting;
    step k targets series position origin + k - 1. Entries are the block
    offsets, -1 where the step falls outside every occurrence block of that
    seasonality. Over any window inside the series this equals the matching
    slice of :func:`~hwdims.timeseries.compute_recurrence`.
    """
    specs = source.dims if isinstance(source, TimeSeries) else tuple(source)
    return {spec.id: _slot_table(spec, origin, origin + horizon) for spec in specs}


def forecast(
    state: ModelState,
    spec: ModelSpec,
    params: SmoothingParams,
    horizon: int,
    future_dims: Mapping[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Point forecasts for k = 1..horizon from the given state.

    The damped trend contributes the running sum of powers of the damping
    factor; the last in-sample residual is carried across the horizon with a
    geometrically decaying weight. Regular cycles read slot
    ``(position + k - 1) % s``; moving seasonalities read the slots given in
    ``future_dims`` (see :func:`project_dims`) and contribute the neutral
    element where a slot is -1 or missing.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if len(spec.season_modes) != len(state.seasonal) or len(spec.dims_modes) != len(state.dims):
        raise ValueError("spec modes do not match the state's index components")
    future_dims = dict(future_dims or {})
    for dims_id in future_dims:
        if dims_id not in state.dims:
            raise KeyError(f"unknown dims id {dims_id!r} in future_dims")
    eff = params.effective(spec)
    phi, ar1 = eff.phi, eff.ar1
    mult_trend = spec.trend == "multiplicative"
    trend_term = 0.0 if spec.trend == "none" else state.trend

    steps = np.arange(state.position, state.position + horizon)
    future_slots = [(steps % len(ring)).tolist() for ring in state.seasonal.values()]
    for dims_id in state.dims:
        slots = np.full(horizon, -1, dtype=np.int64)
        given = np.asarray(future_dims.get(dims_id, ()), dtype=np.int64)[:horizon]
        slots[:len(given)] = given
        future_slots.append(slots.tolist())
    components = _components(
        [*state.seasonal, *state.dims],
        [*state.seasonal.values(), *state.dims.values()],
        spec.season_modes + spec.dims_modes,
        future_slots,
        [0.0] * len(future_slots),
    )

    out = np.empty(horizon)
    phi_pow = 1.0
    phi_acc = 0.0
    ar_pow = 1.0
    for k in range(1, horizon + 1):
        phi_pow *= phi
        phi_acc += phi_pow
        ar_pow *= ar1
        base = state.level * trend_term ** phi_acc if mult_trend \
            else state.level + phi_acc * trend_term
        sum_add, prod_mul = _gather(components, k - 1)
        out[k - 1] = (base + sum_add) * prod_mul + ar_pow * state.last_residual
    return out


def reduce_check(spec: ModelSpec) -> str:
    """Name the published special case this configuration collapses to."""
    n_seasons = len(spec.season_modes)
    n_dims = len(spec.dims_modes)
    suffixes = []
    if spec.damping_enabled:
        suffixes.append("damped trend")
    if spec.ar_adjustment_enabled:
        suffixes.append("AR(1) adjustment")
    suffix = " with " + " and ".join(suffixes) if suffixes else ""

    if n_dims > 0:
        return (
            f"multiple seasonal Holt-Winters with moving seasonalities "
            f"(nHWT-DIMS, {n_seasons} regular + {n_dims} moving){suffix}"
        )
    if n_seasons == 0:
        kind = "damped" if spec.damping_enabled else "linear"
        return f"Holt {kind}-trend exponential smoothing (no seasonality)"
    if n_seasons == 1 and not spec.damping_enabled and not spec.ar_adjustment_enabled \
            and spec.trend == "additive":
        return f"classic {spec.season_modes[0]} Holt-Winters"
    if n_seasons == 2:
        return f"Taylor double-seasonal Holt-Winters{suffix}"
    if n_seasons == 3:
        return f"Taylor triple-seasonal Holt-Winters{suffix}"
    return f"multiple seasonal Holt-Winters (n={n_seasons}){suffix}"
