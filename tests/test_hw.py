"""Smoothing-engine behaviour, pinned against independent recursions."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hwdims import (
    DataError,
    DimsSpec,
    FitInfeasibleError,
    ModelSpec,
    ModelState,
    OptimConfig,
    SeasonSpec,
    SmoothingParams,
    default_bounds,
    find_params,
    forecast,
    init_values,
    project_dims,
    reduce_check,
    smooth_pass,
    vector_to_params,
)
from hwdims.hw import (
    TREND_KINDS,
    FitResult,
    _check_consistency,
    _step_kernel,
    warmup_length,
)
from hwdims.timeseries import MODES
from helpers import classic_hw, classic_hw_seeds, hourly_series


def bare_state(level, trend=0.0, seasonal=None, dims=None, residual=0.0, position=0):
    return ModelState(
        level=level, trend=trend,
        seasonal={k: np.asarray(v, float) for k, v in (seasonal or {}).items()},
        dims={k: np.asarray(v, float) for k, v in (dims or {}).items()},
        last_residual=residual, position=position,
    )


def _components(ids, values, modes, slots, deltas) -> list[tuple]:
    """Index components as ``(id, values, slots, is_mult, delta)`` tuples of
    plain Python lists, the form the scalar reference loops index."""
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


def reference_pass(ts, spec, params, seeds, stops=None) -> FitResult:
    """The generic per-step recursion, one loop for every model structure:
    the reference that the step loops ``smooth_pass`` generates per
    structure must match bit for bit."""
    _check_consistency(ts.seasons, ts.dims, spec, params, seeds)
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
        [((seeds.position + np.arange(n)) % s.cycle_length).tolist() for s in ts.seasons]
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
    with np.errstate(over="ignore"):  # residuals past 1e154 score inf
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


def reference_forecast(state, spec, params, horizon, future_dims=None) -> np.ndarray:
    """The one-step forecast loop, one horizon step at a time: the reference
    that the array forecast of ``forecast`` must match bit for bit."""
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


class TestClassicEquivalence:
    """The generalized recursion must collapse to the classic method."""

    def test_short_example_series(self):
        y = [10.0, 12.0, 14.0, 16.0, 18.0, 20.0]
        s, alpha, gamma, delta = 2, 0.5, 0.1, 0.3
        ts = hourly_series(y, seasons=[SeasonSpec("pair", s)])
        spec = ModelSpec.for_series(ts)
        seeds = init_values(ts, spec)

        level0, trend0, ring0 = classic_hw_seeds(np.asarray(y), s)
        assert seeds.level == pytest.approx(level0, abs=1e-12)
        assert seeds.trend == pytest.approx(trend0, abs=1e-12)
        assert seeds.seasonal["pair"] == pytest.approx(ring0, abs=1e-12)

        params = SmoothingParams(alpha=alpha, gamma=gamma, deltas=(delta,))
        fit = smooth_pass(ts, spec, params, seeds)
        oracle_fit, oracle_err, oracle_fc, *_ = classic_hw(
            y, s, alpha, gamma, delta, level0, trend0, ring0, horizon=4
        )
        np.testing.assert_allclose(fit.fitted, oracle_fit, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fit.one_step_errors, oracle_err, rtol=0, atol=1e-12)
        fc = forecast(fit.final_state, spec, params, 4)
        np.testing.assert_allclose(fc, oracle_fc, rtol=0, atol=1e-12)

    def test_two_weeks_hourly(self):
        rng = np.random.default_rng(7)
        t = np.arange(336)
        y = (50 + 0.02 * t) * (1 + 0.3 * np.sin(2 * np.pi * t / 24)) + rng.normal(0, 0.5, 336)
        ts = hourly_series(y, seasons=[SeasonSpec("daily", 24)])
        spec = ModelSpec.for_series(ts)
        seeds = init_values(ts, spec)
        level0, trend0, ring0 = classic_hw_seeds(y, 24)
        params = SmoothingParams(alpha=0.3, gamma=0.05, deltas=(0.2,))
        fit = smooth_pass(ts, spec, params, seeds)
        oracle_fit, _, oracle_fc, *_ = classic_hw(
            y, 24, 0.3, 0.05, 0.2, level0, trend0, ring0, horizon=24
        )
        np.testing.assert_allclose(fit.fitted, oracle_fit, rtol=1e-9)
        fc = forecast(fit.final_state, spec, params, 24)
        np.testing.assert_allclose(fc, oracle_fc, rtol=1e-9)


class TestZeroSmoothing:
    def test_state_frozen_without_trend(self):
        y = [10.0, 20.0, 12.0, 22.0, 14.0, 24.0]
        ts = hourly_series(y, seasons=[SeasonSpec("pair", 2)])
        spec = ModelSpec.for_series(ts)
        seeds = bare_state(16.0, 0.0, seasonal={"pair": [0.8, 1.2]})
        params = SmoothingParams(alpha=0.0, gamma=0.0, deltas=(0.0,))
        fit = smooth_pass(ts, spec, params, seeds)
        state = fit.final_state
        assert state.level == seeds.level
        assert state.trend == seeds.trend
        assert (state.seasonal["pair"] == seeds.seasonal["pair"]).all()
        assert state.position == 6

    def test_fitted_follows_seed_pattern_with_trend(self):
        y = np.ones(8)
        ts = hourly_series(y, seasons=[SeasonSpec("pair", 2)])
        spec = ModelSpec.for_series(ts)
        seeds = bare_state(50.0, 1.0, seasonal={"pair": [0.8, 1.2]})
        params = SmoothingParams(alpha=0.0, gamma=0.0, deltas=(0.0,))
        fit = smooth_pass(ts, spec, params, seeds)
        expected = [(50.0 + (t + 1) * 1.0) * (0.8, 1.2)[t % 2] for t in range(8)]
        np.testing.assert_allclose(fit.fitted, expected, rtol=0, atol=1e-12)


class TestNeutralDims:
    def test_neutral_dims_changes_nothing(self):
        rng = np.random.default_rng(3)
        t = np.arange(240)
        y = 100 * (1 + 0.2 * np.sin(2 * np.pi * t / 24)) + rng.normal(0, 1, 240)
        plain = hourly_series(y, seasons=[SeasonSpec("daily", 24)])
        spiked = plain.add_dims(
            DimsSpec("noop", "multiplicative", 24, occurrences=(48, 120))
        )
        spec_plain = ModelSpec.for_series(plain)
        spec_spiked = ModelSpec.for_series(spiked)
        seeds_plain = init_values(plain, spec_plain)
        seeds_spiked = seeds_plain.copy()
        seeds_spiked.dims["noop"] = np.ones(24)
        p_plain = SmoothingParams(alpha=0.4, gamma=0.1, deltas=(0.3,))
        p_spiked = SmoothingParams(alpha=0.4, gamma=0.1, deltas=(0.3,), deltas_dims=(0.0,))
        fit_plain = smooth_pass(plain, spec_plain, p_plain, seeds_plain)
        fit_spiked = smooth_pass(spiked, spec_spiked, p_spiked, seeds_spiked)
        assert (fit_plain.fitted == fit_spiked.fitted).all()
        assert fit_plain.final_state.level == fit_spiked.final_state.level
        fc_plain = forecast(fit_plain.final_state, spec_plain, p_plain, 48)
        fc_spiked = forecast(
            fit_spiked.final_state, spec_spiked, p_spiked, 48,
            project_dims(spiked, 240, 48),
        )
        assert (fc_plain == fc_spiked).all()


class TestDimsRecursion:
    def test_hand_computed_block_updates(self):
        # Constant level 100, blocks at [2,4) and [6,8) dipped to 80.
        y = [100.0] * 10
        for i in (2, 3, 6, 7):
            y[i] = 80.0
        ts = hourly_series(y).add_dims(
            DimsSpec("dip", "multiplicative", 2, occurrences=(2, 6))
        )
        spec = ModelSpec.for_series(ts)
        seeds = bare_state(100.0, dims={"dip": [1.0, 1.0]})
        params = SmoothingParams(alpha=0.0, gamma=0.0, deltas_dims=(0.5,))
        fit = smooth_pass(ts, spec, params, seeds)
        # First block: index 0.5*0.8 + 0.5*1.0 = 0.9; forecasts there were 100.
        # Second block consumes 0.9: forecast 90, update to 0.5*0.8 + 0.5*0.9 = 0.85.
        np.testing.assert_allclose(
            fit.fitted, [100, 100, 100, 100, 100, 100, 90, 90, 100, 100], atol=1e-12
        )
        np.testing.assert_allclose(fit.final_state.dims["dip"], [0.85, 0.85], atol=1e-12)
        # A later projected occurrence consumes the final slot values.
        fc = forecast(
            fit.final_state, spec, params, 4,
            {"dip": np.array([-1, 0, 1, -1])},
        )
        np.testing.assert_allclose(fc, [100, 85, 85, 100], atol=1e-12)

    def test_dims_not_updated_outside_blocks(self):
        y = np.full(12, 50.0)
        ts = hourly_series(y).add_dims(DimsSpec("ev", "additive", 2, occurrences=(4,)))
        spec = ModelSpec.for_series(ts)
        seeds = bare_state(50.0, dims={"ev": [5.0, 5.0]})
        params = SmoothingParams(alpha=0.0, gamma=0.0, deltas_dims=(1.0,))
        fit = smooth_pass(ts, spec, params, seeds)
        # Update only at t in {4, 5}: y - level = 0 there, so the slots drop to 0.
        np.testing.assert_allclose(fit.final_state.dims["ev"], [0.0, 0.0], atol=1e-12)
        # Fitted values outside the block never see the additive index.
        np.testing.assert_allclose(fit.fitted[:4], 50.0, atol=1e-12)
        np.testing.assert_allclose(fit.fitted[4:6], 55.0, atol=1e-12)
        np.testing.assert_allclose(fit.fitted[6:], 50.0, atol=1e-12)


class TestDimsAsRegularCycle:
    """A moving seasonality of length s with blocks at 0, s, 2s, ... is read
    and updated exactly like a regular cycle of length s."""

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_back_to_back_blocks_reproduce_regular_season(self, mode):
        s, n, h = 24, 240, 60
        rng = np.random.default_rng(21)
        t = np.arange(n)
        y = 100 * (1 + 0.2 * np.sin(2 * np.pi * t / s)) + 0.05 * t + rng.normal(0, 1, n)
        regular = hourly_series(y, seasons=[SeasonSpec("c", s, mode=mode)])
        moving = hourly_series(y, dims=[DimsSpec("c", mode, s, occurrences=range(0, n, s))])
        seeds = init_values(regular, ModelSpec.for_series(regular))
        ring = seeds.seasonal["c"]
        fits, forecasts = [], []
        for ts, params, state in (
            (regular, SmoothingParams(alpha=0.3, gamma=0.05, deltas=(0.2,)),
             bare_state(seeds.level, seeds.trend, seasonal={"c": ring})),
            (moving, SmoothingParams(alpha=0.3, gamma=0.05, deltas_dims=(0.2,)),
             bare_state(seeds.level, seeds.trend, dims={"c": ring})),
        ):
            spec = ModelSpec.for_series(ts)
            fit = smooth_pass(ts, spec, params, state)
            future = {"c": np.arange(n, n + h) % s} if ts.dims else None
            fits.append(fit)
            forecasts.append(forecast(fit.final_state, spec, params, h, future))
        assert (fits[0].fitted == fits[1].fitted).all()
        assert (fits[0].final_state.seasonal["c"] == fits[1].final_state.dims["c"]).all()
        assert fits[0].final_state.level == fits[1].final_state.level
        assert (forecasts[0] == forecasts[1]).all()


class TestForecastEquation:
    def test_zero_damping_removes_trend(self):
        state = bare_state(100.0, 5.0, seasonal={"s": [1.2, 1.2, 1.2, 1.2]})
        spec = ModelSpec(trend="additive", damping_enabled=True,
                         season_modes=("multiplicative",))
        params = SmoothingParams(alpha=0.1, gamma=0.1, deltas=(0.1,), phi=0.0)
        assert forecast(state, spec, params, 1)[0] == pytest.approx(120.0, abs=1e-12)

    def test_one_step_with_trend_and_index(self):
        state = bare_state(100.0, 2.0, seasonal={"s": [1.1, 1.1]})
        spec = ModelSpec(trend="additive", season_modes=("multiplicative",))
        params = SmoothingParams(alpha=0.1, gamma=0.1, deltas=(0.1,))
        assert forecast(state, spec, params, 1)[0] == pytest.approx(112.2, abs=1e-12)

    def test_ar_correction_halves_each_step(self):
        state = bare_state(10.0, 0.0, residual=4.0)
        spec = ModelSpec(trend="additive", ar_adjustment_enabled=True)
        params = SmoothingParams(alpha=0.1, gamma=0.0, ar1=0.5)
        fc = forecast(state, spec, params, 4)
        np.testing.assert_allclose(fc, [12.0, 11.0, 10.5, 10.25], atol=1e-12)

    def test_ar_decay_magnitude_is_geometric(self):
        state_with = bare_state(10.0, 0.0, residual=3.0)
        state_without = bare_state(10.0, 0.0, residual=0.0)
        spec = ModelSpec(trend="additive", ar_adjustment_enabled=True)
        params = SmoothingParams(alpha=0.1, gamma=0.0, ar1=0.7)
        diff = forecast(state_with, spec, params, 10) - forecast(state_without, spec, params, 10)
        expected = [0.7 ** k * 3.0 for k in range(1, 11)]
        np.testing.assert_allclose(diff, expected, rtol=1e-12)
        assert (np.diff(np.abs(diff)) < 0).all()

    def test_damping_telescopes(self):
        state = bare_state(50.0, 3.0)
        spec = ModelSpec(trend="additive", damping_enabled=True)
        params = SmoothingParams(alpha=0.1, gamma=0.1, phi=0.8)
        fc = forecast(state, spec, params, 6)
        increments = np.diff(fc)
        expected = [0.8 ** k * 3.0 for k in range(2, 7)]
        np.testing.assert_allclose(increments, expected, rtol=1e-12)

    def test_multiplicative_trend_growth(self):
        state = bare_state(100.0, 1.02)
        spec = ModelSpec(trend="multiplicative")
        params = SmoothingParams(alpha=0.1, gamma=0.1)
        fc = forecast(state, spec, params, 3)
        np.testing.assert_allclose(
            fc, [100 * 1.02, 100 * 1.02 ** 2, 100 * 1.02 ** 3], rtol=1e-12
        )

    def test_horizon_must_be_positive(self):
        state = bare_state(1.0)
        spec = ModelSpec(trend="additive")
        with pytest.raises(ValueError):
            forecast(state, spec, SmoothingParams(alpha=0.1), 0)

    def test_unknown_dims_id_rejected(self):
        state = bare_state(1.0)
        spec = ModelSpec(trend="additive")
        with pytest.raises(KeyError, match="ghost"):
            forecast(state, spec, SmoothingParams(alpha=0.1), 2,
                     {"ghost": np.array([0, 1])})

    @pytest.mark.parametrize("spec", [
        ModelSpec(trend="additive", season_modes=("multiplicative",)),
        ModelSpec(trend="additive", dims_modes=("additive",)),
    ], ids=["season", "dims"])
    def test_mode_count_must_match_the_state(self, spec):
        params = SmoothingParams(alpha=0.1, deltas=(0.1,) * len(spec.season_modes),
                                 deltas_dims=(0.1,) * len(spec.dims_modes))
        with pytest.raises(ValueError, match="spec modes do not match the state's index"):
            forecast(bare_state(1.0), spec, params, 2)


class TestProjection:
    def test_projected_slots(self):
        ts = hourly_series(np.ones(600)).add_dims(
            DimsSpec("h", "multiplicative", 24, occurrences=(100, 460))
        )
        proj = project_dims(ts, 450, 30)["h"]
        assert (proj[:10] == -1).all()          # steps into 450..459
        assert list(proj[10:]) == list(range(20))  # 460..479 map to slots 0..19

    def test_projection_beyond_series_is_neutral(self):
        ts = hourly_series(np.ones(600)).add_dims(
            DimsSpec("h", "multiplicative", 24, occurrences=(100,))
        )
        assert (project_dims(ts, 600, 48)["h"] == -1).all()


class TestEquivariance:
    def _fit_forecast(self, y, mode, seeds_shift=None, scale=None):
        ts = hourly_series(y, seasons=[SeasonSpec("daily", 24, mode=mode)])
        spec = ModelSpec.for_series(ts)
        seeds = init_values(ts, spec)
        if seeds_shift is not None:
            seeds = bare_state(seeds.level + seeds_shift, seeds.trend,
                               seasonal={"daily": seeds.seasonal["daily"]})
        if scale is not None:
            seeds = bare_state(seeds.level * scale, seeds.trend * scale,
                               seasonal={"daily": seeds.seasonal["daily"]})
        params = SmoothingParams(alpha=0.3, gamma=0.05, deltas=(0.2,))
        fit = smooth_pass(ts, spec, params, seeds)
        return fit.fitted, forecast(fit.final_state, spec, params, 24)

    def test_additive_configuration_shift_equivariant(self):
        rng = np.random.default_rng(11)
        t = np.arange(240)
        y = 100 + 15 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1, 240)
        base_fit, base_fc = self._fit_forecast(y, "additive")
        shift_fit, shift_fc = self._fit_forecast(y + 40.0, "additive", seeds_shift=None)
        np.testing.assert_allclose(shift_fit, base_fit + 40.0, rtol=1e-12)
        np.testing.assert_allclose(shift_fc, base_fc + 40.0, rtol=1e-12)

    def test_multiplicative_configuration_scale_equivariant(self):
        rng = np.random.default_rng(13)
        t = np.arange(240)
        y = 100 * (1 + 0.2 * np.sin(2 * np.pi * t / 24)) + rng.normal(0, 1, 240)
        base_fit, base_fc = self._fit_forecast(y, "multiplicative")
        scaled_fit, scaled_fc = self._fit_forecast(y * 2.0, "multiplicative")
        assert (scaled_fit == base_fit * 2.0).all()
        assert (scaled_fc == base_fc * 2.0).all()


class TestInfeasibility:
    def test_negative_level_aborts_with_step(self):
        # Readings of 100 and an additive event of 150 at step 5: with alpha 1
        # the level there is 100 - 150.
        ts = hourly_series(np.full(30, 100.0), seasons=[SeasonSpec("pair", 2)],
                           dims=[DimsSpec("shock", "additive", 1, occurrences=(5,))])
        spec = ModelSpec.for_series(ts)
        seeds = bare_state(100.0, 0.0, seasonal={"pair": [1.0, 1.0]}, dims={"shock": [150.0]})
        params = SmoothingParams(alpha=1.0, gamma=0.0, deltas=(0.0,), deltas_dims=(0.0,))
        with pytest.raises(FitInfeasibleError) as err:
            smooth_pass(ts, spec, params, seeds)
        assert err.value.step == 5

    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_nonpositive_seed_index_infeasible_before_first_step(self, bad):
        ts = hourly_series(np.full(30, 100.0), seasons=[SeasonSpec("pair", 2)],
                           dims=[DimsSpec("h", "multiplicative", 2, occurrences=(6,))])
        spec = ModelSpec.for_series(ts)
        params = SmoothingParams(alpha=0.5, gamma=0.0, deltas=(0.1,), deltas_dims=(0.1,))
        for seasonal, dims in (([1.0, bad], [1.0, 1.0]), ([1.0, 1.0], [bad, 1.0])):
            seeds = bare_state(100.0, seasonal={"pair": seasonal}, dims={"h": dims})
            with pytest.raises(FitInfeasibleError, match="seed index") as err:
                smooth_pass(ts, spec, params, seeds)
            assert err.value.step == -1

    @pytest.mark.parametrize("component", ["pair", "h"])
    def test_nonpositive_index_names_its_component(self, component):
        # Level frozen at 100 (alpha 0) and delta 1: an index is reset to
        # (y - additive part) / level, so an additive event of 150 on a
        # reading of 100 drives it below zero.
        step = 7 if component == "pair" else 12
        ts = hourly_series(np.full(30, 100.0), seasons=[SeasonSpec("pair", 2)],
                           dims=[DimsSpec("h", "multiplicative", 2, occurrences=(12,)),
                                 DimsSpec("shock", "additive", 1, occurrences=(step,))])
        spec = ModelSpec.for_series(ts)
        deltas = (1.0, 0.0) if component == "pair" else (0.0, 1.0)
        params = SmoothingParams(alpha=0.0, gamma=0.0, deltas=deltas[:1],
                                 deltas_dims=deltas[1:] + (0.0,))
        seeds = bare_state(100.0, seasonal={"pair": [1.0, 1.0]},
                           dims={"h": [1.0, 1.0], "shock": [150.0]})
        with pytest.raises(FitInfeasibleError, match=f"index of '{component}'") as err:
            smooth_pass(ts, spec, params, seeds)
        assert err.value.step == (7 if component == "pair" else 12)

    def test_purely_additive_accepts_negative_values(self):
        y = np.sin(np.arange(40))  # crosses zero freely
        ts = hourly_series(y, seasons=[SeasonSpec("pair", 4, mode="additive")])
        spec = ModelSpec.for_series(ts)
        seeds = init_values(ts, spec)
        params = SmoothingParams(alpha=0.5, gamma=0.1, deltas=(0.5,))
        fit = smooth_pass(ts, spec, params, seeds)
        assert np.isfinite(fit.fitted).all()


class TestStops:
    def fixture(self):
        rng = np.random.default_rng(5)
        t = np.arange(24 * 6)
        y = 100 * (1 + 0.2 * np.sin(2 * np.pi * t / 24)) + rng.normal(0, 1, len(t))
        ts = hourly_series(y, seasons=[SeasonSpec("daily", 24)])
        spec = ModelSpec.for_series(ts, damping_enabled=True, ar_adjustment_enabled=True)
        params = SmoothingParams(alpha=0.3, gamma=0.05, deltas=(0.2,), phi=0.9, ar1=0.4)
        return ts, spec, params, init_values(ts, spec)

    def test_states_equal_prefix_passes(self):
        # Without moving seasonalities a prefix reads the series' own slot
        # tables, so each stop's state is the prefix pass's final state.
        ts, spec, params, seeds = self.fixture()
        stops = [30, 30, 77, 120]
        fit = smooth_pass(ts, spec, params, seeds, stops=stops)
        assert len(fit.states) == 4 and fit.final_state is fit.states[-1]
        assert len(fit.fitted) == 120
        for stop, got in zip(stops, fit.states):
            want = smooth_pass(ts.prefix(stop), spec, params, seeds).final_state
            assert (got.level, got.trend, got.last_residual, got.position) \
                == (want.level, want.trend, want.last_residual, want.position)
            np.testing.assert_array_equal(got.seasonal["daily"], want.seasonal["daily"])
        whole = smooth_pass(ts, spec, params, seeds)
        assert whole.states == (whole.final_state,)

    def test_observations_after_the_last_stop_are_not_read(self):
        y = np.full(30, 100.0)
        y[20] = -50.0
        ts = hourly_series(y, seasons=[SeasonSpec("pair", 2)])
        spec = ModelSpec.for_series(ts)
        seeds = bare_state(100.0, 0.0, seasonal={"pair": [1.0, 1.0]})
        params = SmoothingParams(alpha=1.0, gamma=0.0, deltas=(0.0,))
        assert smooth_pass(ts, spec, params, seeds, stops=[10, 20]).final_state.level == 100.0
        with pytest.raises(DataError, match="observation 20 is -50.0"):
            smooth_pass(ts, spec, params, seeds, stops=[10, 21])

    @pytest.mark.parametrize("stops", [[], [8, 6], [0, 6], [6, 31]],
                             ids=["empty", "descending", "zero", "past-end"])
    def test_stops_must_ascend_inside_the_series(self, stops):
        ts = hourly_series(np.full(30, 100.0))
        spec = ModelSpec.for_series(ts)
        with pytest.raises(ValueError, match="stops"):
            smooth_pass(ts, spec, SmoothingParams(alpha=0.5), bare_state(100.0), stops=stops)


class TestMultiplicativeTrend:
    def test_fits_geometric_growth(self):
        # 0.05% growth per step with a multiplicative daily pattern.
        t = np.arange(24 * 10)
        y = 100.0 * 1.0005 ** t * (1 + 0.2 * np.sin(2 * np.pi * t / 24))
        ts = hourly_series(y, seasons=[SeasonSpec("daily", 24)])
        spec = ModelSpec.for_series(ts, trend="multiplicative")
        seeds = init_values(ts, spec)
        assert seeds.trend == pytest.approx(1.0005, abs=1e-4)
        params = SmoothingParams(alpha=0.2, gamma=0.05, deltas=(0.1,))
        fit = smooth_pass(ts, spec, params, seeds)
        assert fit.objective < 0.05
        fc = forecast(fit.final_state, spec, params, 24)
        np.testing.assert_allclose(
            fc, 100.0 * 1.0005 ** (t[-1] + 1 + np.arange(24))
            * (1 + 0.2 * np.sin(2 * np.pi * (t[-1] + 1 + np.arange(24)) / 24)),
            rtol=0.01,
        )


class TestTrendNone:
    def test_trend_none_freezes_trend_at_zero(self):
        y = 100 + np.arange(48.0)
        ts = hourly_series(y, seasons=[SeasonSpec("daily", 24)])
        spec = ModelSpec.for_series(ts, trend="none")
        seeds = init_values(ts, spec)
        assert seeds.trend == 0.0
        params = SmoothingParams(alpha=0.5, gamma=0.9, deltas=(0.1,))
        fit = smooth_pass(ts, spec, params, seeds)
        assert fit.final_state.trend == 0.0


class TestReduceCheck:
    def test_classic_multiplicative(self):
        spec = ModelSpec(trend="additive", season_modes=("multiplicative",))
        assert reduce_check(spec) == "classic multiplicative Holt-Winters"

    def test_double_seasonal_with_ar(self):
        spec = ModelSpec(trend="additive", ar_adjustment_enabled=True,
                         season_modes=("multiplicative", "multiplicative"))
        out = reduce_check(spec)
        assert "double-seasonal" in out and "AR(1)" in out

    def test_any_dims_namess_moving_seasonalities(self):
        spec = ModelSpec(trend="additive", season_modes=("multiplicative",),
                         dims_modes=("multiplicative",))
        assert "moving seasonalities" in reduce_check(spec)

    def test_no_seasonality(self):
        assert "no seasonality" in reduce_check(ModelSpec(trend="additive"))

    @pytest.mark.parametrize("spec, name", [
        (ModelSpec(trend="additive", damping_enabled=True),
         "Holt damped-trend exponential smoothing (no seasonality)"),
        (ModelSpec(trend="additive", season_modes=("multiplicative",) * 4),
         "multiple seasonal Holt-Winters (n=4)"),
        (ModelSpec(trend="additive", damping_enabled=True, season_modes=("additive",) * 5),
         "multiple seasonal Holt-Winters (n=5) with damped trend"),
        (ModelSpec(trend="none", ar_adjustment_enabled=True, damping_enabled=True,
                   season_modes=("additive",)),
         "multiple seasonal Holt-Winters (n=1) with damped trend and AR(1) adjustment"),
    ], ids=["damped-holt", "n4", "n5-damped", "n1-damped-ar"])
    def test_names(self, spec, name):
        assert reduce_check(spec) == name


# Component ids that would break generated source if they were pasted into it.
IDS = st.text(alphabet="ab'\"{}\n\\!r", min_size=1, max_size=6)
# Weights at either end of [0, 1] half of the time: delta 0 drops a
# component's update, alpha and gamma 1 reach the trend-ratio check.
WEIGHT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def engine_cases(draw):
    """A model of 0-3 regular cycles and 0-2 moving seasonalities in either
    mode, seeds, weights and stops. Large additive seed values and readings
    near or below zero make multiplicative passes fail at each check."""
    cycles = draw(st.lists(st.integers(2, 8), unique=True, max_size=3))
    n_dims = draw(st.integers(0, 2))
    ids = draw(st.lists(IDS, min_size=len(cycles) + n_dims,
                        max_size=len(cycles) + n_dims, unique=True))
    n = draw(st.integers(max(cycles, default=0) + 1, 48))
    modes = st.sampled_from(MODES)
    seasons = [SeasonSpec(cid, s, mode=draw(modes)) for cid, s in zip(ids, cycles)]
    dims = []
    for cid in ids[len(cycles):]:
        length = draw(st.integers(1, min(6, n)))
        occurrences = []
        for start in sorted(draw(st.sets(st.integers(0, n - length), max_size=4))):
            if not occurrences or start >= occurrences[-1] + length:
                occurrences.append(start)
        dims.append(DimsSpec(cid, draw(modes), length, occurrences=tuple(occurrences)))
    t = np.arange(n)
    y = 100.0 * (1 + 0.2 * np.sin(2 * np.pi * t / 6)) \
        + np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    for i, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.one_of(st.floats(-20.0, 20.0), st.floats(1e-6, 1.0))),
                              max_size=2)):
        y[i] = v
    ts = hourly_series(y, seasons=seasons, dims=dims)
    spec = ModelSpec.for_series(ts, trend=draw(st.sampled_from(TREND_KINDS)),
                                damping_enabled=draw(st.booleans()),
                                ar_adjustment_enabled=draw(st.booleans()))

    def index(mode, size):
        values = st.floats(0.5, 1.5) if mode == "multiplicative" else st.floats(-150.0, 150.0)
        return np.array(draw(st.lists(values, min_size=size, max_size=size)))

    seeds = ModelState(
        level=draw(st.floats(1.0, 150.0)),
        trend=draw(st.floats(0.9, 1.1) if spec.trend == "multiplicative"
                   else st.floats(-2.0, 2.0)),
        seasonal={s.id: index(s.mode, s.cycle_length) for s in seasons},
        dims={d.id: index(d.mode, d.length) for d in dims},
        last_residual=draw(st.floats(-5.0, 5.0)),
        position=draw(st.integers(0, 100)),
    )
    params = SmoothingParams(
        alpha=draw(WEIGHT), gamma=draw(WEIGHT), phi=draw(WEIGHT),
        deltas=tuple(draw(WEIGHT) for _ in seasons),
        deltas_dims=tuple(draw(WEIGHT) for _ in dims),
        ar1=draw(st.floats(-0.95, 0.95)),
    )
    stops = draw(st.one_of(st.none(), st.lists(st.integers(1, n), min_size=1, max_size=4)
                           .map(sorted)))
    return ts, spec, params, seeds, stops


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_matches_reference(ts, spec, params, seeds, stops):
    """Run ``smooth_pass`` and the reference on one case and require the same
    bits everywhere, or the same exception; returns that exception."""
    try:
        want = reference_pass(ts, spec, params, seeds, stops)
    except Exception as exc:  # compared, not handled
        with pytest.raises(Exception) as got:
            smooth_pass(ts, spec, params, seeds, stops)
        assert (type(got.value), str(got.value), getattr(got.value, "step", None)) \
            == (type(exc), str(exc), getattr(exc, "step", None))
        return exc
    assert_same_fit(smooth_pass(ts, spec, params, seeds, stops), want)
    return None


def assert_same_fit(fit, want):
    """Require the same bits in every output of two smoothing passes."""
    assert bits(fit.fitted) == bits(want.fitted)
    assert bits(fit.one_step_errors) == bits(want.one_step_errors)
    assert bits(fit.objective) == bits(want.objective)
    assert fit.warmup == want.warmup
    assert len(fit.states) == len(want.states)
    for got_state, want_state in zip(fit.states, want.states):
        assert bits([got_state.level, got_state.trend, got_state.last_residual]) \
            == bits([want_state.level, want_state.trend, want_state.last_residual])
        assert got_state.position == want_state.position
        for name in ("seasonal", "dims"):
            got_rings, want_rings = getattr(got_state, name), getattr(want_state, name)
            assert list(got_rings) == list(want_rings)
            assert all(bits(got_rings[k]) == bits(want_rings[k]) for k in want_rings)


def structure_case(season_modes, dims_mode, trend="additive", damped=False, ar=False):
    """A pass over cycles 3 and 6 and one 2-step moving seasonality in the
    given modes, stopped at 20 and 36. The blocks start at 7, 19 and 29, so
    one straddles the first stop."""
    t = np.arange(36)
    ts = hourly_series(100.0 * (1 + 0.2 * np.sin(2 * np.pi * t / 6)) + np.cos(t),
                       seasons=[SeasonSpec(f"c{s}", s, mode=mode)
                                for s, mode in zip((3, 6), season_modes)],
                       dims=[DimsSpec("ev", dims_mode, 2, occurrences=(7, 19, 29))])
    spec = ModelSpec.for_series(ts, trend=trend, damping_enabled=damped,
                                ar_adjustment_enabled=ar)

    def ring(mode, size):
        wave = np.sin(np.arange(size) + 1.0)
        return 1.0 + 0.1 * wave if mode == "multiplicative" else 10.0 * wave

    seeds = bare_state(100.0, 1.01 if trend == "multiplicative" else 0.5,
                       seasonal={s.id: ring(s.mode, s.cycle_length) for s in ts.seasons},
                       dims={"ev": ring(dims_mode, 2)}, residual=-1.5)
    params = SmoothingParams(alpha=0.3, gamma=0.1, deltas=(0.2, 0.4), deltas_dims=(0.5,),
                             phi=0.9, ar1=0.3)
    return ts, spec, params, seeds, [20, 36]


def bench_case():
    """The bench's structure: two multiplicative cycles and one multiplicative
    moving seasonality, additive trend, damping and autocorrelation off."""
    return structure_case(("multiplicative", "multiplicative"), "multiplicative")


# An id with quotes, braces and a newline.
ODD_ID = "it's {t}\n\"x\""


def collapse_case(site):
    """A multiplicative pass that fails at ``site``: the level, the trend
    ratio or an index."""
    odd = ODD_ID
    if site == "trend":
        # With alpha 1, gamma 1 and phi 0 the trend is the ratio of
        # successive readings, which underflows to zero from 1e200 to 1e-200.
        y = np.full(12, 100.0)
        y[4:6] = 1e200, 1e-200
        ts = hourly_series(y)
        spec = ModelSpec.for_series(ts, trend="multiplicative", damping_enabled=True)
        return (ts, spec, SmoothingParams(alpha=1.0, gamma=1.0, phi=0.0),
                bare_state(100.0, 1.0), None)
    ts = hourly_series(np.full(12, 100.0), seasons=[SeasonSpec(odd, 2)],
                       dims=[DimsSpec("{ids[0]!r}", "additive", 1, occurrences=(7,))])
    spec = ModelSpec.for_series(ts)
    # an additive event of 100 on a reading of 100: with alpha 1 the level
    # becomes exactly 0; with a frozen level and delta 1 the index does (a
    # zero fails the check as a negative value does)
    params = SmoothingParams(alpha=1.0 if site == "level" else 0.0,
                             deltas=(0.0 if site == "level" else 1.0,), deltas_dims=(0.0,))
    seeds = bare_state(100.0, seasonal={odd: [1.0, 1.0]}, dims={"{ids[0]!r}": [100.0]})
    return ts, spec, params, seeds, [3, 12]


def overflow_case():
    """A multiplicative trend with gamma 1 is the ratio of successive levels:
    with alpha 1 a reading of 1e-200 between readings of 100 makes it 1e202,
    and the next residual, about -1e204, squares past the largest float."""
    y = np.full(12, 100.0)
    y[4] = 1e-200
    ts = hourly_series(y)
    spec = ModelSpec.for_series(ts, trend="multiplicative")
    return ts, spec, SmoothingParams(alpha=1.0, gamma=1.0), bare_state(100.0, 1.0), None


def runs_case(mult_blocks, add_blocks, stops=None, trend=0.5, alpha=0.3):
    """A 36-step pass over multiplicative cycles 3 and 6 and two 4-step
    moving seasonalities, "m" multiplicative and "a" additive, with blocks
    at the given starts. With ``alpha`` 0 the level moves by ``trend`` each
    step whatever the readings; from 100 by -7.5 it fails at step 13."""
    t = np.arange(36)
    ts = hourly_series(100.0 * (1 + 0.2 * np.sin(2 * np.pi * t / 6)) + np.cos(t),
                       seasons=[SeasonSpec("c3", 3), SeasonSpec("c6", 6)],
                       dims=[DimsSpec("m", "multiplicative", 4, occurrences=mult_blocks),
                             DimsSpec("a", "additive", 4, occurrences=add_blocks)])
    spec = ModelSpec.for_series(ts)
    wave = np.sin(np.arange(6) + 1.0)
    seeds = bare_state(100.0, trend, residual=-1.5,
                       seasonal={"c3": 1.0 + 0.1 * wave[:3], "c6": 1.0 + 0.1 * wave},
                       dims={"m": 1.0 + 0.1 * wave[:4], "a": 10.0 * wave[:4]})
    params = SmoothingParams(alpha=alpha, deltas=(0.2, 0.4), deltas_dims=(0.5, 0.3))
    return ts, spec, params, seeds, stops


# Blocks of "m" back to back at 5 and 9; blocks of "a" overlapping them at 7
# and starting at 13, where the second block of "m" ends.
OVERLAPS = ((5, 9), (7, 13))


class TestGeneratedKernel:
    """The step loop generated per model structure against the reference."""

    @given(engine_cases())
    @example(collapse_case("level"))
    @example(collapse_case("trend"))
    @example(collapse_case("index"))
    @example(bench_case())
    @example(structure_case(("additive", "additive"), "additive", damped=True))
    @example(structure_case(("additive", "multiplicative"), "multiplicative",
                            trend="multiplicative", ar=True))
    @example(runs_case((0, 32), ()))  # a block at step 0, one ending at the last
    @example(runs_case(*OVERLAPS))
    @example(runs_case(*OVERLAPS, stops=[8, 8, 13, 36]))  # in a block, on a run edge
    @example(runs_case((13,), (), trend=-7.5, alpha=0.0))  # fails at a block's first step
    @example(runs_case((9,), (), trend=-7.5, alpha=0.0))  # and at the first step after one
    @example(overflow_case())  # an objective of inf, not an overflow warning
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_reference(self, case):
        assert_matches_reference(*case)

    @pytest.mark.parametrize("site, message", [
        ("level", "level became nonpositive at step 7"),
        ("trend", "trend ratio became nonpositive at step 5"),
        ("index", f"index of {ODD_ID!r} became nonpositive at step 7"),
    ])
    def test_each_raise_site(self, site, message):
        exc = assert_matches_reference(*collapse_case(site))
        assert isinstance(exc, FitInfeasibleError) and str(exc) == message

    @pytest.mark.parametrize("blocks", [(13,), (9,)])
    def test_run_edge_raise_sites(self, blocks):
        exc = assert_matches_reference(*runs_case(blocks, (), trend=-7.5, alpha=0.0))
        assert isinstance(exc, FitInfeasibleError) and exc.step == 13

    def test_one_compilation_per_search(self):
        ts = hourly_series(100 + 10 * np.sin(np.arange(96) * 2 * np.pi / 24),
                           seasons=[SeasonSpec("daily", 24)],
                           dims=[DimsSpec("ev", "multiplicative", 4, occurrences=(30, 70))])
        spec = ModelSpec.for_series(ts, damping_enabled=True)
        before = _step_kernel.cache_info()
        find_params(ts, spec, OptimConfig(max_evals=60))
        after = _step_kernel.cache_info()
        assert after.misses - before.misses <= 1
        assert after.hits + after.misses - before.hits - before.misses > 1


class TestStepLists:
    """The observation and slot lists and the run table a series builds once
    for the step loop."""

    def test_repeated_passes_equal_passes_on_fresh_series(self):
        # The passes share one set of lists; had the loop written into them,
        # a later pass would differ from one on a newly built copy.
        ts, spec, _params, seeds, stops = bench_case()
        lists = ts.step_lists
        for alpha, deltas, deltas_dims in [(0.3, (0.2, 0.4), (0.5,)), (1.0, (1.0, 0.0), (1.0,)),
                                           (0.05, (0.7, 0.9), (0.0,)), (0.3, (0.2, 0.4), (0.5,))]:
            varied = SmoothingParams(alpha=alpha, gamma=0.2, deltas=deltas,
                                     deltas_dims=deltas_dims)
            fresh = hourly_series(ts.values, ts.seasons, ts.dims)
            assert_same_fit(smooth_pass(ts, spec, varied, seeds, stops),
                            smooth_pass(fresh, spec, varied, seeds, stops))
        assert ts.step_lists is lists

    def test_prefix_pass_equals_fresh_series(self):
        # The prefix keeps the block at 19, which straddles 20, and builds
        # lists of its own that equal the first 20 entries of the series'.
        ts, spec, params, seeds, _stops = bench_case()
        smooth_pass(ts, spec, params, seeds)
        head = ts.prefix(20)
        assert head.dims == ts.dims
        values, slots = head.step_lists
        assert values == ts.step_lists[0][:20]
        assert list(slots) == [s[:20] for s in ts.step_lists[1]]
        assert slots[2] is not ts.step_lists[1][2]
        fresh = hourly_series(ts.values[:20], ts.seasons, ts.dims)
        assert_same_fit(smooth_pass(head, spec, params, seeds),
                        smooth_pass(fresh, spec, params, seeds))
        # a pass over the prefix is the full pass stopped at 20
        assert_same_fit(smooth_pass(head, spec, params, seeds),
                        smooth_pass(ts, spec, params, seeds, stops=[20]))

    def test_run_table_once_per_series_and_own_for_prefix(self):
        case = runs_case(*OVERLAPS)
        ts = case[0]
        table = ts.step_runs
        assert table == (((), (0,), (0, 1), (1,)),
                         [(0, 5, 0), (5, 7, 1), (7, 11, 2), (11, 13, 1), (13, 17, 3), (17, 36, 0)])
        smooth_pass(*case)  # a pass reads the table, it does not rebuild it
        assert ts.step_runs is table
        # the block of "a" at 13 straddles 15: the prefix keeps it, so its
        # own table is the series' cut at 15
        head = ts.prefix(15).step_runs
        assert head is not table
        assert head == (((), (0,), (0, 1), (1,)),
                        [(0, 5, 0), (5, 7, 1), (7, 11, 2), (11, 13, 1), (13, 15, 3)])


@st.composite
def forecast_cases(draw):
    """A state of 0-3 regular cycles and 0-2 moving seasonalities in either
    mode, any trend kind, damping and autocorrelation on or off, and future
    slot tables that are missing, shorter than the horizon or hold -1. A
    negative multiplicative trend raised to a fractional power fails."""
    cycles = draw(st.lists(st.integers(2, 8), unique=True, max_size=3))
    lengths = draw(st.lists(st.integers(1, 6), max_size=2))
    ids = draw(st.lists(IDS, min_size=len(cycles) + len(lengths),
                        max_size=len(cycles) + len(lengths), unique=True))
    modes = st.sampled_from(MODES)
    season_modes = tuple(draw(modes) for _ in cycles)
    dims_modes = tuple(draw(modes) for _ in lengths)
    spec = ModelSpec(trend=draw(st.sampled_from(TREND_KINDS)),
                     damping_enabled=draw(st.booleans()),
                     ar_adjustment_enabled=draw(st.booleans()),
                     season_modes=season_modes, dims_modes=dims_modes)

    def index(mode, size):
        values = st.floats(0.5, 1.5) if mode == "multiplicative" else st.floats(-150.0, 150.0)
        return draw(st.lists(values, min_size=size, max_size=size))

    season_ids, dims_ids = ids[:len(cycles)], ids[len(cycles):]
    state = bare_state(
        draw(st.floats(-150.0, 150.0)),
        draw(st.one_of(st.floats(0.9, 1.1), st.floats(-2.0, 2.0))),
        seasonal={cid: index(mode, s) for cid, mode, s in zip(season_ids, season_modes, cycles)},
        dims={cid: index(mode, n) for cid, mode, n in zip(dims_ids, dims_modes, lengths)},
        residual=draw(st.floats(-5.0, 5.0)),
        position=draw(st.integers(0, 10_000)),
    )
    params = SmoothingParams(
        alpha=draw(WEIGHT), gamma=draw(WEIGHT), phi=draw(WEIGHT),
        deltas=tuple(draw(WEIGHT) for _ in cycles),
        deltas_dims=tuple(draw(WEIGHT) for _ in lengths),
        ar1=draw(st.floats(-0.95, 0.95)),
    )
    horizon = draw(st.integers(1, 60))
    future = {}
    for cid, length in zip(dims_ids, lengths):
        slot = st.one_of(st.just(-1), st.integers(0, length - 1))
        slots = draw(st.one_of(st.none(), st.lists(slot, max_size=horizon + 3)))
        if slots is not None:
            future[cid] = np.array(slots, dtype=np.int64)
    return state, spec, params, horizon, draw(st.sampled_from([future, None]))


class TestArrayForecast:
    """The horizon computed at once against the one-step forecast loop."""

    @given(forecast_cases())
    @example((bare_state(100.0, -1.05), ModelSpec(trend="multiplicative", damping_enabled=True),
              SmoothingParams(alpha=0.5, phi=0.9), 3, None))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_reference(self, case):
        try:
            want = reference_forecast(*case)
        except Exception as exc:  # compared, not handled
            with pytest.raises(Exception) as got:
                forecast(*case)
            assert type(got.value) is type(exc)
            return
        assert bits(forecast(*case)) == bits(want)


@st.composite
def split_cases(draw):
    """A pass over 1-3 regular cycles and up to one moving seasonality, each
    in either mode, seeded at any position, and a step at which to split it
    that no block straddles and that leaves the tail longer than the
    warm-up."""
    cycles = draw(st.lists(st.integers(2, 12), unique=True, min_size=1, max_size=3))
    longest = max(cycles)
    n = draw(st.integers(2 * longest + 2, 96))
    split = draw(st.integers(1, n - longest - 1))
    modes = st.sampled_from(MODES)
    seasons = [SeasonSpec(f"c{s}", s, mode=draw(modes)) for s in cycles]
    dims = []
    if draw(st.booleans()):
        length = draw(st.integers(1, 6))
        occurrences = []
        for start in sorted(draw(st.sets(st.integers(0, n - length), max_size=4))):
            if (not occurrences or start >= occurrences[-1] + length) \
                    and not start < split < start + length:
                occurrences.append(start)
        dims.append(DimsSpec("ev", draw(modes), length, occurrences=tuple(occurrences)))
    t = np.arange(n)
    y = 100.0 * (1 + 0.2 * np.sin(2 * np.pi * t / 6)) \
        + np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    ts = hourly_series(y, seasons=seasons, dims=dims)
    spec = ModelSpec.for_series(ts, trend=draw(st.sampled_from(TREND_KINDS)),
                                damping_enabled=draw(st.booleans()),
                                ar_adjustment_enabled=draw(st.booleans()))

    def index(mode, size):
        values = st.floats(0.8, 1.2) if mode == "multiplicative" else st.floats(-15.0, 15.0)
        return np.array(draw(st.lists(values, min_size=size, max_size=size)))

    seeds = ModelState(
        level=draw(st.floats(50.0, 150.0)),
        trend=draw(st.floats(0.99, 1.01) if spec.trend == "multiplicative"
                   else st.floats(-2.0, 2.0)),
        seasonal={s.id: index(s.mode, s.cycle_length) for s in seasons},
        dims={d.id: index(d.mode, d.length) for d in dims},
        last_residual=draw(st.floats(-5.0, 5.0)),
        position=draw(st.integers(0, 100)),
    )
    params = SmoothingParams(
        alpha=draw(WEIGHT), gamma=draw(WEIGHT), phi=draw(WEIGHT),
        deltas=tuple(draw(WEIGHT) for _ in seasons),
        deltas_dims=tuple(draw(WEIGHT) for _ in dims),
        ar1=draw(st.floats(-0.95, 0.95)),
    )
    return ts, spec, params, seeds, split


class TestContinuedPass:
    """A pass continued from a state it stopped at, over the rest of the
    series, against the whole pass."""

    @given(split_cases())
    @settings(max_examples=200, deadline=None)
    def test_split_pass_equals_one_pass(self, case):
        # The tail starts at the split, with the blocks after it shifted back
        # by it; its regular rings must read the slots of the series
        # positions the state has reached, so the states, fits and forecasts
        # are those of the whole pass, bit for bit.
        ts, spec, params, seeds, split = case
        n = len(ts)
        try:
            whole = smooth_pass(ts, spec, params, seeds, stops=[split, n])
        except FitInfeasibleError:
            assume(False)
        tail_dims = [replace(d, occurrences=tuple(o - split for o in d.occurrences if o >= split))
                     for d in ts.dims]
        tail = hourly_series(ts.values[split:], ts.seasons, tail_dims)
        continued = smooth_pass(tail, spec, params, whole.states[0])
        # the tail scores its own warm-up, so only its objective differs
        assert_same_fit(continued, replace(
            whole, states=whole.states[1:], fitted=whole.fitted[split:],
            one_step_errors=whole.one_step_errors[split:],
            objective=continued.objective, warmup=continued.warmup))
        horizon = 2 * max(s.cycle_length for s in ts.seasons)
        future = project_dims(ts, n, horizon)
        assert bits(forecast(continued.final_state, spec, params, horizon, future)) \
            == bits(forecast(whole.final_state, spec, params, horizon, future))


@st.composite
def searched_cases(draw):
    """What a search hands the engine: finite readings at a scale from 1e-300
    to 1e300, at times near or below zero; up to two cycles and two moving
    seasonalities in either mode, the events seeded neutral or informed;
    every trend kind with damping and autocorrelation on or off; and a point
    inside the search box."""
    cycles = draw(st.lists(st.integers(2, 8), unique=True, max_size=2))
    n = draw(st.integers(2 * max(cycles, default=1), 60))
    t = np.arange(n)
    shape = 1 + 0.3 * np.sin(2 * np.pi * t / 6) \
        + np.array(draw(st.lists(st.floats(-0.1, 0.1), min_size=n, max_size=n)))
    for i, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.floats(-2.0, 1e-6)),
                              max_size=2)):
        shape[i] = v
    modes = st.sampled_from(MODES)
    seasons = [SeasonSpec(f"s{c}", c, mode=draw(modes)) for c in cycles]
    dims = []
    for k in range(draw(st.integers(0, 2))):
        length = draw(st.integers(1, min(4, n)))
        starts = draw(st.lists(st.integers(0, n // length - 1), unique=True, max_size=4))
        mode = draw(modes)
        informed = "ratio_to_ma" if mode == "multiplicative" else "difference_to_ma"
        dims.append(DimsSpec(f"d{k}", mode, length, tuple(sorted(s * length for s in starts)),
                             init_method=draw(st.sampled_from(["neutral", informed]))))
    ts = hourly_series(10.0 ** draw(st.integers(-300, 300)) * shape, seasons=seasons, dims=dims)
    spec = ModelSpec.for_series(ts, trend=draw(st.sampled_from(TREND_KINDS)),
                                damping_enabled=draw(st.booleans()),
                                ar_adjustment_enabled=draw(st.booleans()))
    x = [draw(st.floats(lo, hi)) for lo, hi in default_bounds(ts, spec)]
    return ts, spec, vector_to_params(x, ts, spec)


class TestEngineFaults:
    @given(searched_cases())
    @settings(max_examples=300, deadline=None)
    def test_pass_raises_only_engine_faults(self, case):
        # Seeds from init_values and a point inside the box: the seeding and
        # the pass fail, if at all, as data or as an infeasible point, which
        # the command line maps to exit 2 and 3.
        ts, spec, params = case
        try:
            smooth_pass(ts, spec, params, init_values(ts, spec))
        except (DataError, FitInfeasibleError):
            pass
