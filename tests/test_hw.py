"""Smoothing-engine behaviour, pinned against independent recursions."""

from __future__ import annotations

import numpy as np
import pytest

from hwdims import (
    DataError,
    DimsSpec,
    FitInfeasibleError,
    ModelSpec,
    ModelState,
    SeasonSpec,
    SmoothingParams,
    forecast,
    init_values,
    project_dims,
    reduce_check,
    smooth_pass,
)
from helpers import classic_hw, classic_hw_seeds, hourly_series


def bare_state(level, trend=0.0, seasonal=None, dims=None, residual=0.0, position=0):
    return ModelState(
        level=level, trend=trend,
        seasonal={k: np.asarray(v, float) for k, v in (seasonal or {}).items()},
        dims={k: np.asarray(v, float) for k, v in (dims or {}).items()},
        last_residual=residual, position=position,
    )


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
