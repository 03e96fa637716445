"""Generalized multiple-seasonal Holt-Winters smoothing engine.

One recursion covers the whole model family: level, an additive or
multiplicative trend (optionally damped), any number of regular seasonal
index rings (each additive or multiplicative), any number of moving
seasonalities updated only inside their occurrence blocks, and a first-order
autocorrelation correction of the forecasts.

Per step t the engine (1) forms the one-step-ahead forecast from the state
at t-1, (2) records the residual, (3) updates level and trend, (4) updates
the one regular index slot per seasonality that expires at t, and (5) when t
lies inside an occurrence block, updates that block position's moving index,
carried over from the previous occurrence. Outside its blocks a moving
seasonality contributes its neutral element (0 additive, 1 multiplicative)
and is never updated.

With one multiplicative seasonality, no moving seasonalities, an undamped
trend and no autocorrelation term, the recursion reduces exactly to the
classic multiplicative Holt-Winters method; the test suite pins that
equivalence against an independent implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .timeseries import DataError, DimsSpec, TimeSeries

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

    # (ring, cycle, delta, is_mult) per regular seasonality
    seas = []
    for sspec, delta in zip(ts.seasons, eff.deltas):
        ring = [float(v) for v in seeds.seasonal[sspec.id]]
        seas.append((ring, sspec.cycle_length, delta, sspec.mode == "multiplicative"))
    # (slots array, slot->value list, delta, is_mult) per moving seasonality
    dimss = []
    for dspec, delta in zip(ts.dims, eff.deltas_dims):
        arr = [float(v) for v in seeds.dims[dspec.id]]
        slots = ts.recurrence(dspec.id).slot.tolist()
        dimss.append((arr, slots, delta, dspec.mode == "multiplicative"))

    has_mult = mult_trend or any(s[3] for s in seas) or any(d[3] for d in dimss)
    if has_mult and seeds.level <= 0:
        raise FitInfeasibleError("seed level must be positive for a multiplicative model", step=-1)
    if mult_trend and seeds.trend <= 0:
        raise FitInfeasibleError("multiplicative trend seed must be positive", step=-1)
    component_ids = [s.id for s in ts.seasons] + [d.id for d in ts.dims]
    for (values, *_unused, is_mult), cid in zip(seas + dimss, component_ids):
        if is_mult and min(values) <= 0.0:
            raise FitInfeasibleError(
                f"multiplicative seed index of {cid!r} must be positive", step=-1
            )

    level = float(seeds.level)
    trend = 0.0 if spec.trend == "none" else float(seeds.trend)
    eps = float(seeds.last_residual)
    fitted = [0.0] * n
    errors = [0.0] * n

    for t in range(n):
        yt = y[t]
        # Gather pre-update index values; additive terms sum, factors multiply.
        sum_add = 0.0
        prod_mul = 1.0
        for ring, cycle, _delta, is_mult in seas:
            v = ring[t % cycle]
            if is_mult:
                prod_mul *= v
            else:
                sum_add += v
        for arr, slots, _delta, is_mult in dimss:
            q = slots[t]
            if q >= 0:
                v = arr[q]
                if is_mult:
                    prod_mul *= v
                else:
                    sum_add += v

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
                raise FitInfeasibleError(f"trend ratio became nonpositive at step {t}", step=t)
        else:
            trend = gamma * (level - prev_level) + (1.0 - gamma) * phi * trend

        for ring, cycle, delta, is_mult in seas:
            if delta == 0.0:
                continue
            q = t % cycle
            v = ring[q]
            if is_mult:
                new = delta * ((yt - sum_add) / (level * (prod_mul / v))) + (1.0 - delta) * v
                if new <= 0.0:
                    raise FitInfeasibleError(
                        f"multiplicative seasonal index became nonpositive at step {t}", step=t
                    )
            else:
                new = delta * ((yt - level - (sum_add - v)) / prod_mul) + (1.0 - delta) * v
            ring[q] = new

        for arr, slots, delta, is_mult in dimss:
            q = slots[t]
            if q < 0 or delta == 0.0:
                continue
            v = arr[q]
            if is_mult:
                new = delta * ((yt - sum_add) / (level * (prod_mul / v))) + (1.0 - delta) * v
                if new <= 0.0:
                    raise FitInfeasibleError(
                        f"moving seasonal index became nonpositive at step {t}", step=t
                    )
            else:
                new = delta * ((yt - level - (sum_add - v)) / prod_mul) + (1.0 - delta) * v
            arr[q] = new

    final = ModelState(
        level=level,
        trend=trend,
        seasonal={s.id: np.array(ring) for (ring, *_), s in zip(seas, ts.seasons)},
        dims={d.id: np.array(arr) for (arr, *_), d in zip(dimss, ts.dims)},
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


def project_dims(
    source: TimeSeries | tuple[DimsSpec, ...] | list[DimsSpec],
    origin: int,
    horizon: int,
) -> dict[str, np.ndarray]:
    """Map forecast steps k=1..horizon onto moving-seasonality block offsets.

    ``origin`` is the number of observations consumed before forecasting;
    step k targets series position origin + k - 1. Entries are -1 where the
    step falls outside every occurrence block of that seasonality.
    """
    specs = source.dims if isinstance(source, TimeSeries) else tuple(source)
    projection = {}
    for spec in specs:
        slots = np.full(horizon, -1, dtype=np.int64)
        for occ in spec.occurrences:
            lo = max(occ, origin)
            hi = min(occ + spec.length, origin + horizon)
            if lo < hi:
                ks = np.arange(lo, hi) - origin
                slots[ks] = np.arange(lo - occ, hi - occ)
        projection[spec.id] = slots
    return projection


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
    geometrically decaying weight. Regular index rings cycle; moving indices
    contribute only at steps marked in ``future_dims`` (see
    :func:`project_dims`), the neutral element elsewhere.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    future_dims = dict(future_dims or {})
    for dims_id in future_dims:
        if dims_id not in state.dims:
            raise KeyError(f"unknown dims id {dims_id!r} in future_dims")
    eff = params.effective(spec)
    phi, ar1 = eff.phi, eff.ar1
    mult_trend = spec.trend == "multiplicative"
    trend_term = 0.0 if spec.trend == "none" else state.trend

    rings = [
        (np.asarray(ring), len(ring), mode == "multiplicative")
        for ring, mode in zip(state.seasonal.values(), spec.season_modes)
    ]
    dims_arrays = {k: np.asarray(v) for k, v in state.dims.items()}
    dims_modes = dict(zip(state.dims.keys(), spec.dims_modes))

    last_index = state.position - 1
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
        sum_add = 0.0
        prod_mul = 1.0
        for ring, cycle, is_mult in rings:
            v = ring[(last_index + k) % cycle]
            if is_mult:
                prod_mul *= v
            else:
                sum_add += v
        for dims_id, slots in future_dims.items():
            q = int(slots[k - 1]) if k - 1 < len(slots) else -1
            if q >= 0:
                v = dims_arrays[dims_id][q]
                if dims_modes[dims_id] == "multiplicative":
                    prod_mul *= v
                else:
                    sum_add += v
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
