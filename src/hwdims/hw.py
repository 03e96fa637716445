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

With one multiplicative seasonality, no moving seasonalities, an undamped
trend and no autocorrelation term, the recursion reduces exactly to the
classic multiplicative Holt-Winters method; the test suite pins that
equivalence against an independent implementation.
"""

from __future__ import annotations

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
    """Outcome of one smoothing pass over a fit window; ``states`` holds the
    state at each stop of the pass, the last of them ``final_state``."""

    final_state: ModelState
    one_step_errors: np.ndarray
    fitted: np.ndarray
    objective: float
    warmup: int
    spec: ModelSpec
    params: SmoothingParams
    states: tuple[ModelState, ...]


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


def smooth_pass(
    ts: TimeSeries,
    spec: ModelSpec,
    params: SmoothingParams,
    seeds: ModelState,
    stops: Sequence[int] | None = None,
) -> FitResult:
    """Run the smoothing recursion over the series and score the fit.

    ``stops`` (ascending, in 1..len(ts)) ends the pass at the last stop and
    keeps the state after each stop's first ``stop`` observations in
    ``states``; observations after the last stop are never read. Moving
    seasonalities read the series' own slot tables, so a block that
    straddles a stop is updated up to it. By default the pass consumes the
    whole series and ``states`` holds the final state alone.

    The objective is the RMSE of the one-step-ahead residuals after the
    warm-up window. Raises :class:`FitInfeasibleError` as soon as a
    multiplicative configuration drives the level or an index nonpositive;
    no clamping is attempted, so the optimizer sees an honest surface. A
    nonpositive observation in a multiplicative configuration is a
    :class:`DataError` before the first step.
    """
    _check_consistency(ts, spec, params, seeds)
    eff = params.effective(spec)
    alpha, gamma, phi, ar1 = eff.alpha, eff.gamma, eff.phi, eff.ar1
    mult_trend = spec.trend == "multiplicative"

    stops = [len(ts)] if stops is None else [int(stop) for stop in stops]
    if not stops or any(b < a for a, b in zip(stops, stops[1:])) \
            or stops[0] < 1 or stops[-1] > len(ts):
        raise ValueError(f"stops must be ascending in 1..{len(ts)}, got {stops}")
    n = stops[-1]
    y = ts.values[:n].tolist()
    warm = warmup_length(ts)
    if n <= warm:
        raise DataError(f"series length {n} does not exceed warm-up window {warm}")

    specs = ts.seasons + ts.dims
    components = _components(
        [c.id for c in specs],
        [seeds.seasonal[s.id] for s in ts.seasons] + [seeds.dims[d.id] for d in ts.dims],
        [c.mode for c in specs],
        [(np.arange(n) % s.cycle_length).tolist() for s in ts.seasons]
        + [ts.recurrence(d.id)[:n].tolist() for d in ts.dims],
        eff.deltas + eff.deltas_dims,
    )

    has_mult = mult_trend or any(c[3] for c in components)
    if has_mult and seeds.level <= 0:
        raise FitInfeasibleError("seed level must be positive for a multiplicative model", step=-1)
    if mult_trend and seeds.trend <= 0:
        raise FitInfeasibleError("multiplicative trend seed must be positive", step=-1)
    for cid, values, _slots, is_mult, _delta in components:
        if is_mult and min(values) <= 0.0:
            raise FitInfeasibleError(
                f"multiplicative seed index of {cid!r} must be positive", step=-1
            )
    if has_mult and ts.values[:n].min() <= 0.0:
        first = int(np.argmax(ts.values[:n] <= 0.0))
        raise DataError(f"a multiplicative model needs positive observations; "
                        f"observation {first} is {float(ts.values[first])!r}")
    updated = [c for c in components if c[4] != 0.0]

    level = float(seeds.level)
    trend = 0.0 if spec.trend == "none" else float(seeds.trend)
    eps = float(seeds.last_residual)
    fitted = [0.0] * n
    errors = [0.0] * n
    n_seasons = len(ts.seasons)
    states = []
    start = 0

    for stop in stops:
        for t in range(start, stop):
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
                raise FitInfeasibleError(f"level became nonpositive at step {t}", step=t)
            if mult_trend:
                trend = gamma * (level / prev_level) + (1.0 - gamma) * trend ** phi
                if trend <= 0.0:
                    raise FitInfeasibleError(f"trend ratio became nonpositive at step {t}",
                                             step=t)
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
                        raise FitInfeasibleError(
                            f"index of {cid!r} became nonpositive at step {t}", step=t
                        )
                else:
                    new = delta * ((yt - level - (sum_add - v)) / prod_mul) + (1.0 - delta) * v
                values[q] = new
        start = stop
        states.append(ModelState(
            level=level,
            trend=trend,
            seasonal={c[0]: np.array(c[1]) for c in components[:n_seasons]},
            dims={c[0]: np.array(c[1]) for c in components[n_seasons:]},
            last_residual=eps,
            position=seeds.position + stop,
        ))

    tail = errors[warm:]
    objective = float(np.sqrt(np.mean(np.square(tail))))
    return FitResult(
        final_state=states[-1],
        one_step_errors=np.array(errors),
        fitted=np.array(fitted),
        objective=objective,
        warmup=warm,
        spec=spec,
        params=params,
        states=tuple(states),
    )


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
