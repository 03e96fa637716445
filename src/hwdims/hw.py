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
:func:`smooth_pass` runs these steps in straight-line loops generated for
the model's structure: which components are regular or moving, additive or
multiplicative, updated or frozen, the trend kind and whether the trend is
damped. Each series is cut into runs, maximal stretches of steps over which
the set of active moving seasonalities stays the same
(:attr:`TimeSeries.step_runs`), and each kind of run gets its own loop,
which reads the regular cycles and exactly the moving seasonalities active
in it, so no step tests a slot. Each structure and set of run kinds is
compiled once and cached; the generated source is built from those flags
alone and embeds no user text. The loops zip the step index with the
series' observation and slot lists, which each series builds once
(:attr:`TimeSeries.step_lists`); the per-pass constants are computed before
them, and ``yt - sum_add`` once per step. Every structure gives the bits of
the generic recursion: :func:`_step_kernel` lists the neutral operations it
drops and the exact IEEE identity behind each.

:func:`forecast` computes the whole horizon at once with array reads of
the same components through their future slot tables:
``(position + k - 1) % s`` for a regular cycle, :func:`project_dims` for a
moving seasonality.

With one multiplicative seasonality, no moving seasonalities, an undamped
trend and no autocorrelation term, the recursion reduces exactly to the
classic multiplicative Holt-Winters method; the test suite pins that
equivalence against an independent implementation.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from .timeseries import DataError, DimsSpec, SeasonSpec, TimeSeries, _slot_table

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
        for name in ("damping_enabled", "ar_adjustment_enabled"):
            if not isinstance(value := getattr(self, name), bool):
                raise TypeError(f"{name} must be a bool, not {type(value).__name__}")

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


def _check_consistency(seasons: Sequence[SeasonSpec], dims: Sequence[DimsSpec],
                       spec: ModelSpec, params: SmoothingParams, state: ModelState) -> None:
    """Raise ``ValueError`` unless ``spec``, ``params`` and ``state`` fit the
    index components ``seasons`` and ``dims``: per component, in order, one
    mode, one smoothing weight and one ring of shape ``(size,)``; and unless
    the state's level, trend, last residual and ring values are finite. The
    one model check of :func:`smooth_pass` and of a loaded ``model.json``."""
    if len(spec.season_modes) != len(seasons):
        raise ValueError("spec season_modes do not match series seasons")
    if len(spec.dims_modes) != len(dims):
        raise ValueError("spec dims_modes do not match series dims")
    if len(params.deltas) != len(seasons):
        raise ValueError(f"expected {len(seasons)} seasonal deltas, got {len(params.deltas)}")
    if len(params.deltas_dims) != len(dims):
        raise ValueError(f"expected {len(dims)} dims deltas, got {len(params.deltas_dims)}")
    for kind, components, modes, rings in (("season", seasons, spec.season_modes, state.seasonal),
                                          ("dims", dims, spec.dims_modes, state.dims)):
        for c, mode in zip(components, modes):
            if c.mode != mode:
                raise ValueError(f"{kind} {c.id!r}: spec mode {mode!r} != series mode {c.mode!r}")
            size = c.cycle_length if kind == "season" else c.length
            if c.id not in rings or np.shape(rings[c.id]) != (size,):
                raise ValueError(f"state ring for {kind} {c.id!r} missing or "
                                 f"not of shape ({size},)")
            if not np.isfinite(rings[c.id]).all():
                raise ValueError(f"state ring for {kind} {c.id!r} is not finite")
    for name in ("level", "trend", "last_residual"):
        if not np.isfinite(getattr(state, name)):
            raise ValueError(f"state {name} is not finite")


def _is_multiplicative(ts: TimeSeries, spec: ModelSpec) -> bool:
    """Whether the trend or any index component of the model is multiplicative."""
    return spec.trend == "multiplicative" \
        or any(c.mode == "multiplicative" for c in ts.seasons + ts.dims)


def check_observations(ts: TimeSeries, spec: ModelSpec, n: int) -> None:
    """Raise :class:`DataError` naming the first nonpositive observation among
    the first ``n`` when the model is multiplicative; such a reading has no
    multiplicative decomposition, so no parameter point can fit it."""
    values = ts.values[:n]
    if _is_multiplicative(ts, spec) and values.min() <= 0.0:
        first = int(np.argmax(values <= 0.0))
        raise DataError(f"a multiplicative model needs positive observations; "
                        f"observation {first} is {float(values[first])!r}")


def check_start(ts: TimeSeries, spec: ModelSpec, seeds: ModelState, n: int) -> None:
    """Raise for a start no parameter point can repair: a
    :class:`FitInfeasibleError` (``step=-1``) for a nonpositive seed level,
    multiplicative trend seed or multiplicative seed index, then
    :func:`check_observations` over the first ``n`` observations."""
    if _is_multiplicative(ts, spec) and seeds.level <= 0:
        raise FitInfeasibleError("seed level must be positive for a multiplicative model", step=-1)
    if spec.trend == "multiplicative" and seeds.trend <= 0:
        raise FitInfeasibleError("multiplicative trend seed must be positive", step=-1)
    rings = [seeds.seasonal[s.id] for s in ts.seasons] + [seeds.dims[d.id] for d in ts.dims]
    for c, ring in zip(ts.seasons + ts.dims, rings):
        if c.mode == "multiplicative" and min(ring) <= 0.0:
            raise FitInfeasibleError(
                f"multiplicative seed index of {c.id!r} must be positive", step=-1
            )
    check_observations(ts, spec, n)


def _run_loop(comps: tuple[tuple[bool, bool, bool], ...], live: list[int],
              has_mult: bool, mult_trend: bool, damped: bool) -> list[str]:
    """Source lines, unindented, of the step loop over one run
    ``lo..hi-1`` in which the components ``live`` (regular cycles and the
    run's active moving seasonalities, in component order) read their
    slots; see :func:`_step_kernel`."""
    adds = [f"x{i}" for i in live if not comps[i][1]]
    mults = [f"x{i}" for i in live if comps[i][1]]
    code = ["for t, yt" + "".join(f", q{i}" for i in live)
            + " in zip(range(lo, hi), y[lo:hi]" + "".join(f", s{i}[lo:hi]" for i in live)
            + "):"]
    code += [f"    x{i} = v{i}[q{i}]" for i in live]
    if adds:
        code.append(f"    sum_add = {' + '.join(['0.0', *adds])}")
    code.append(f"    prod_mul = {' * '.join(mults) or '1.0'}")
    sum_add = "sum_add" if adds else "0.0"
    ysa = "ysa" if adds else "yt"
    if mult_trend:
        code += ["    trend_phi = trend ** phi",
                 "    base = level * trend_phi"]
    else:
        code.append("    base = level + phi * trend" if damped else "    base = level + trend")
    code += [
        f"    yhat = (base + {sum_add}) * prod_mul + ar1 * eps" if adds or not has_mult
        else "    yhat = base * prod_mul + ar1 * eps",
        "    fitted[t] = yhat",
        "    eps = yt - yhat",
        "    prev_level = level",
    ]
    if adds:
        code.append("    ysa = yt - sum_add")
    code.append(f"    level = alpha * ({ysa} / prod_mul) + one_alpha * base")
    if has_mult:
        code += [
            "    if level <= 0.0:",
            "        raise FitInfeasibleError(f'level became nonpositive at step {t}',",
            "                                 step=t)",
        ]
    if mult_trend:
        code += [
            "    trend = gamma * (level / prev_level) + one_gamma * trend_phi",
            "    if trend <= 0.0:",
            "        raise FitInfeasibleError(f'trend ratio became nonpositive at step {t}',",
            "                                 step=t)",
        ]
    else:
        code.append("    trend = gamma * (level - prev_level) + gamma_phi * trend")
    for i in live:
        _, is_mult, updated = comps[i]
        if not updated:
            continue
        if is_mult:
            code += [
                f"    new = d{i} * ({ysa} / (level * (prod_mul / x{i}))) + c{i} * x{i}",
                "    if new <= 0.0:",
                "        raise FitInfeasibleError(",
                f"            f'index of {{ids[{i}]!r}} became nonpositive at step {{t}}',",
                "            step=t)",
            ]
        else:
            code.append(f"    new = d{i} * ((yt - level - ({sum_add} - x{i})) / prod_mul)"
                        f" + c{i} * x{i}")
        code.append(f"    v{i}[q{i}] = new")
    return code


@lru_cache(maxsize=64)
def _step_kernel(mult_trend: bool, has_mult: bool, damped: bool,
                 comps: tuple[tuple[bool, bool, bool], ...],
                 kinds: tuple[tuple[int, ...], ...]):
    """The step loop of :func:`smooth_pass`, compiled for one model structure
    and one set of run kinds.

    ``comps`` holds ``(is_dims, is_mult, updated)`` per index component, in
    component order; ``damped`` says whether the damping factor may differ
    from 1; ``kinds`` holds the run kinds of the series
    (:attr:`~hwdims.timeseries.TimeSeries.step_runs`), each the indices of
    the moving seasonalities active in a run. The kernel walks the runs it is
    given and sends each to the step loop of its kind. That loop unrolls the
    gather and the update of the regular cycles and of exactly that kind's
    moving seasonalities, whose slots are all active there, so no step tests
    a slot; a component that is not updated (delta 0) gets no update code;
    the level test runs only in a multiplicative model. The source is built
    from these flags, component positions and run kinds alone and embeds no
    user text: the error messages read the component ids from the ``ids``
    argument.

    Each loop zips the step index with slices of the observation list and of
    the slot lists of its components, so a step reads each of them without
    indexing by ``t``. ``1 - alpha``, ``1 - gamma`` (times ``phi`` for an
    additive trend) and each ``1 - delta`` are computed once per call, and
    ``yt - sum_add`` and a multiplicative trend's ``trend ** phi`` once per
    step. A neutral operation is dropped only where an exact IEEE identity
    allows it: the first multiplicative factor of a run is taken as is
    (``1.0 * x == x``); without additive components in the run ``yt - 0.0``
    is ``yt``, and in a multiplicative model ``base + 0.0`` is ``base``
    (adding 0.0 only turns -0.0 into 0.0, and ``base`` is never -0.0 there:
    the level is checked positive, and a multiplicative trend too);
    undamped, ``1.0 * trend`` is ``trend``. ``base + 0.0`` stays in a model
    with no multiplicative part, and the ``ar1 * eps`` term stays even when
    ``ar1`` is 0: ``0.0 * eps`` is -0.0, NaN or 0.0 by the sign and
    finiteness of ``eps``. An inactive moving seasonality contributes
    nothing in the generic recursion either, and every other expression is
    that of the recursion in the module docstring, in its order, so every
    structure gives that recursion's results bit for bit; the test suite
    keeps the generic loop as the reference.

    The kernel runs the ``(lo, hi, kind)`` runs it is given, ascending and
    back to back, ``kind`` an index into ``kinds``; writes each one-step
    forecast to ``fitted``; updates the index lists in ``values`` in place
    (it never writes into ``y`` or ``slots``) and returns the new ``(level,
    trend, eps)``.
    """
    n_regular = sum(not is_dims for is_dims, _, _ in comps)
    code = [
        "def kernel(y, fitted, runs, level, trend, eps, alpha, gamma, phi, ar1,",
        "           values, slots, deltas, ids):",
    ]
    if comps:
        for name, seq in (("v", "values"), ("s", "slots"), ("d", "deltas")):
            code.append(f"    {''.join(f'{name}{i}, ' for i in range(len(comps)))}= {seq}")
    code.append("    one_alpha = 1.0 - alpha")
    code.append("    one_gamma = 1.0 - gamma" if mult_trend
                else "    gamma_phi = (1.0 - gamma) * phi")
    code += [f"    c{i} = 1.0 - d{i}" for i, (_, _, updated) in enumerate(comps) if updated]
    code.append("    for lo, hi, kind in runs:")
    for k, kind in enumerate(kinds):
        live = list(range(n_regular)) + [n_regular + j for j in kind]
        code.append(f"        {'elif' if k else 'if'} kind == {k}:")
        code += [" " * 12 + line
                 for line in _run_loop(comps, live, has_mult, mult_trend, damped)]
    code.append("    return level, trend, eps")
    namespace = {"FitInfeasibleError": FitInfeasibleError}
    exec(compile("\n".join(code) + "\n", "<hwdims step kernel>", "exec"), namespace)
    return namespace["kernel"]


def _clip_runs(runs: list[tuple[int, int, int]], start: int,
               stop: int) -> list[tuple[int, int, int]]:
    """The ``(lo, hi, kind)`` runs of a run table that cover steps
    ``start..stop-1``, the first and last cut to that range."""
    if start >= stop:
        return []
    part = runs[bisect_right(runs, start, key=itemgetter(0)) - 1:
                bisect_left(runs, stop, key=itemgetter(0))]
    _lo, hi, kind = part[0]
    part[0] = (start, hi, kind)
    lo, _hi, kind = part[-1]
    part[-1] = (lo, stop, kind)
    return part


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
    whole series and ``states`` holds the final state alone. Step t reads
    regular slot ``(seeds.position + t) % s``, so a pass seeded from the
    state another pass stopped at continues it over the observations after.

    The steps run in straight-line loops generated for the model's
    structure (trend kind, damping, each component's kind and mode, which
    components are updated), one per kind of run of the series, and
    compiled once per structure and set of run kinds; see
    :func:`_step_kernel`, which also says why they keep the bits of the
    generic recursion. They read the observation and slot lists and the
    run table that ``ts`` builds once
    (:attr:`~hwdims.timeseries.TimeSeries.step_lists`,
    :attr:`~hwdims.timeseries.TimeSeries.step_runs`), so the passes of a
    search over one series share them; each stop's stretch of steps is cut
    from the run table.

    The objective is the RMSE of the one-step-ahead residuals after the
    warm-up window. Raises :class:`FitInfeasibleError` as soon as a
    multiplicative configuration drives the level or an index nonpositive;
    no clamping is attempted, so the optimizer sees an honest surface. A
    nonpositive observation in a multiplicative configuration is a
    :class:`DataError` before the first step.
    """
    _check_consistency(ts.seasons, ts.dims, spec, params, seeds)
    eff = params.effective(spec)
    mult_trend = spec.trend == "multiplicative"

    stops = [len(ts)] if stops is None else [int(stop) for stop in stops]
    if not stops or any(b < a for a, b in zip(stops, stops[1:])) \
            or stops[0] < 1 or stops[-1] > len(ts):
        raise ValueError(f"stops must be ascending in 1..{len(ts)}, got {stops}")
    n = stops[-1]
    warm = warmup_length(ts)
    if n <= warm:
        raise DataError(f"series length {n} does not exceed warm-up window {warm}")
    check_start(ts, spec, seeds, n)

    specs = ts.seasons + ts.dims
    ids = tuple(c.id for c in specs)
    mults = [c.mode == "multiplicative" for c in specs]
    values = [np.asarray(ring, dtype=float).tolist() for ring in
              [seeds.seasonal[s.id] for s in ts.seasons] + [seeds.dims[d.id] for d in ts.dims]]
    turns = [seeds.position % s.cycle_length for s in ts.seasons]
    values[:len(turns)] = [v[r:] + v[:r] for v, r in zip(values, turns)]
    deltas = eff.deltas + eff.deltas_dims

    has_mult = _is_multiplicative(ts, spec)
    n_seasons = len(ts.seasons)
    kinds, runs = ts.step_runs
    kernel = _step_kernel(mult_trend, has_mult, spec.damping_enabled, tuple(
        (i >= n_seasons, is_mult, delta != 0.0)
        for i, (is_mult, delta) in enumerate(zip(mults, deltas))
    ), kinds)

    level = float(seeds.level)
    trend = 0.0 if spec.trend == "none" else float(seeds.trend)
    eps = float(seeds.last_residual)
    y, slots = ts.step_lists
    fitted = array("d", bytes(8 * n))
    states = []
    start = 0
    for stop in stops:
        level, trend, eps = kernel(y, fitted, _clip_runs(runs, start, stop),
                                   level, trend, eps,
                                   eff.alpha, eff.gamma, eff.phi, eff.ar1,
                                   values, slots, deltas, ids)
        start = stop
        states.append(ModelState(
            level=level,
            trend=trend,
            seasonal={cid: np.array(v[-r:] + v[:-r]) for cid, v, r in zip(ids, values, turns)},
            dims={cid: np.array(v) for cid, v in zip(ids[n_seasons:], values[n_seasons:])},
            last_residual=eps,
            position=seeds.position + stop,
        ))

    fitted = np.frombuffer(fitted)
    errors = ts.values[:n] - fitted
    with np.errstate(over="ignore"):  # residuals past 1e154 score inf
        objective = float(np.sqrt(np.mean(np.square(errors[warm:]))))
    return FitResult(
        final_state=states[-1],
        one_step_errors=errors,
        fitted=fitted,
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
    seasonality. It reads the blocks past the series end as well; over any
    window inside the series it equals the matching slice of
    :func:`~hwdims.timeseries.compute_recurrence`.
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
    """Point forecasts for k = 1..horizon from the given state, computed for
    the whole horizon at once.

    The damped trend contributes the running sum of powers of the damping
    factor (a multiplicative trend is raised to that sum); the last in-sample
    residual is carried across the horizon with a geometrically decaying
    weight. Regular cycles read slot ``(position + k - 1) % s``; moving
    seasonalities read the slots given in ``future_dims`` (see
    :func:`project_dims`) and contribute the neutral element where a slot is
    -1 or missing. Additive components are summed and multiplicative ones
    multiplied in component order, so each forecast equals that of the
    one-step recursion bit for bit.
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
    phi_acc = np.cumsum(np.cumprod(np.full(horizon, eff.phi)))
    ar_pow = np.cumprod(np.full(horizon, eff.ar1))
    trend = 0.0 if spec.trend == "none" else state.trend
    if spec.trend == "multiplicative":
        # Python's float power: np.power can differ from it in the last bit.
        base = np.array([state.level * trend ** a for a in phi_acc.tolist()], dtype=float)
    else:
        base = state.level + phi_acc * trend

    steps = np.arange(state.position, state.position + horizon)
    future_slots = [steps % len(ring) for ring in state.seasonal.values()]
    for dims_id in state.dims:
        slots = np.full(horizon, -1, dtype=np.int64)
        given = np.asarray(future_dims.get(dims_id, ()), dtype=np.int64)[:horizon]
        slots[:len(given)] = given
        future_slots.append(slots)
    sum_add = np.zeros(horizon)
    prod_mul = np.ones(horizon)
    for ring, slots, mode in zip([*state.seasonal.values(), *state.dims.values()],
                                 future_slots, spec.season_modes + spec.dims_modes):
        # a negative slot reads the neutral element, whatever the ring length
        read = np.asarray(ring, dtype=float)[np.maximum(slots, 0)]
        if mode == "multiplicative":
            prod_mul *= np.where(slots >= 0, read, 1.0)
        else:
            sum_add += np.where(slots >= 0, read, 0.0)
    return (base + sum_add) * prod_mul + ar_pow * state.last_residual


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
