"""Rolling-origin grids and fit accuracy reports."""

from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwdims import (
    DataError,
    DimsSpec,
    FitInfeasibleError,
    ModelSpec,
    OptimConfig,
    SeasonSpec,
    SmoothingParams,
    accuracy,
    aic,
    forecast,
    grid_to_csv,
    init_values,
    mape,
    mforecast,
    project_dims,
    rmse,
    smooth_pass,
)
from hwdims.hw import TREND_KINDS
from hwdims.timeseries import MODES

from helpers import hourly_series


def fixture_series(n=240):
    t = np.arange(n)
    y = 100 * (1 + 0.2 * np.sin(2 * np.pi * t / 24))
    return hourly_series(y, seasons=[SeasonSpec("daily", 24)])


PARAMS = SmoothingParams(alpha=0.2, gamma=0.01, deltas=(0.1,))


class TestMforecast:
    def test_origin_count(self):
        ts = fixture_series(240)
        spec = ModelSpec.for_series(ts)
        grid = mforecast(ts, spec, first_origin=120, step=24, horizon=24,
                         params=PARAMS)
        assert grid.origins == (120, 144, 168, 192, 216)
        assert grid.forecasts.shape == (5, 24)
        assert grid.actuals.shape == (5, 24)

    def test_single_origin_when_step_overshoots(self):
        ts = fixture_series(240)
        spec = ModelSpec.for_series(ts)
        grid = mforecast(ts, spec, first_origin=216, step=1000, horizon=24,
                         params=PARAMS)
        assert grid.origins == (216,)

    def test_no_valid_origin_rejected(self):
        ts = fixture_series(240)
        spec = ModelSpec.for_series(ts)
        with pytest.raises(ValueError, match="no valid origin"):
            mforecast(ts, spec, first_origin=230, step=24, horizon=24,
                      params=PARAMS)

    def test_first_origin_before_warmup_rejected(self):
        ts = fixture_series(240)
        spec = ModelSpec.for_series(ts)
        with pytest.raises(ValueError, match="first_origin"):
            mforecast(ts, spec, first_origin=30, step=24, horizon=24,
                      params=PARAMS)

    def test_tiling_covers_evaluation_window_once(self):
        ts = fixture_series(240)
        spec = ModelSpec.for_series(ts)
        grid = mforecast(ts, spec, first_origin=120, step=24, horizon=24,
                         params=PARAMS)
        covered = np.concatenate(
            [np.arange(o, o + grid.horizon) for o in grid.origins]
        )
        assert (np.sort(covered) == np.arange(120, 240)).all()
        np.testing.assert_array_equal(
            grid.actuals.ravel(), ts.values[120:240]
        )

    def test_grand_mape_equals_flattened_mape(self):
        ts = fixture_series(240)
        spec = ModelSpec.for_series(ts)
        grid = mforecast(ts, spec, first_origin=120, step=24, horizon=24,
                         params=PARAMS)
        flat = mape(grid.actuals.ravel(), grid.forecasts.ravel())
        assert grid.grand_mape == pytest.approx(flat, rel=1e-12)

    def test_per_origin_and_per_horizon_shapes(self):
        ts = fixture_series(240)
        spec = ModelSpec.for_series(ts)
        grid = mforecast(ts, spec, first_origin=120, step=48, horizon=12,
                         params=PARAMS)
        assert len(grid.per_origin_mape) == len(grid.origins)
        assert len(grid.per_horizon_mape) == 12
        assert grid.per_origin_mape[0] == pytest.approx(
            mape(grid.actuals[0], grid.forecasts[0]), rel=1e-12
        )
        assert grid.per_horizon_mape[3] == pytest.approx(
            mape(grid.actuals[:, 3], grid.forecasts[:, 3]), rel=1e-12
        )

    def test_horizon_window_includes_dims_projection(self):
        # Dip blocks recur five times before the evaluation origin, so the
        # moving index has converged; the window holding the sixth dip is
        # then forecast with the learned factor and stays accurate.
        t = np.arange(24 * 40)
        y = 100 * (1 + 0.2 * np.sin(2 * np.pi * t / 24))
        occurrences = tuple(24 * d for d in (4, 9, 14, 21, 27, 35))
        for occ in occurrences:
            y[occ:occ + 24] *= 0.8
        ts = hourly_series(y, seasons=[SeasonSpec("daily", 24)]).add_dims(
            DimsSpec("dip", "multiplicative", 24, occurrences=occurrences)
        )
        spec = ModelSpec.for_series(ts)
        params = SmoothingParams(alpha=0.05, gamma=0.0, deltas=(0.05,),
                                 deltas_dims=(0.8,))
        grid = mforecast(ts, spec, first_origin=24 * 35, step=24, horizon=24,
                         params=params)
        # First origin's window is exactly the last dip block.
        assert grid.per_origin_mape[0] < 3.0
        forecast_dip = grid.forecasts[0].mean()
        assert forecast_dip == pytest.approx((y[24 * 35:24 * 36]).mean(), rel=0.03)

    def test_refit_per_origin_policy(self):
        ts = fixture_series(288)
        spec = ModelSpec.for_series(ts)
        grid = mforecast(
            ts, spec, first_origin=192, step=48, horizon=24,
            policy="refit_per_origin",
            optim_config=OptimConfig(max_evals=60, tolerance=1e-4),
        )
        assert grid.origins == (192, 240)
        assert grid.grand_mape < 1.0  # deterministic pattern is easy

    def test_fixed_policy_requires_params(self):
        ts = fixture_series(240)
        spec = ModelSpec.for_series(ts)
        with pytest.raises(ValueError, match="params"):
            mforecast(ts, spec, first_origin=120, step=24, horizon=24)


def scalar_rolling(ts, spec, params, origins, horizon):
    """Fixed-policy rows from passes without stops, all from the seeds of the
    first origin's window: the row of origin o is the forecast from a pass
    over ``ts.prefix(o)``. The error is that of the pass over the last
    origin's window, if it fails: at a step, or, for a nonpositive reading in
    a multiplicative model, before the first."""
    seeds = init_values(ts.prefix(origins[0]), spec)
    try:
        smooth_pass(ts.prefix(origins[-1]), spec, params, seeds)
    except (FitInfeasibleError, DataError) as exc:
        return None, exc
    rows = [forecast(smooth_pass(ts.prefix(o), spec, params, seeds).final_state,
                     spec, params, horizon, project_dims(ts, o, horizon))
            for o in origins]
    return np.array(rows), None


@st.composite
def rolling_cases(draw):
    n = 24 * draw(st.integers(5, 9))
    length = draw(st.integers(3, 30))
    occurrences = []
    for start in sorted(draw(st.sets(st.integers(0, n), max_size=6))):  # some run past n
        if not occurrences or start >= occurrences[-1] + length:
            occurrences.append(start)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t = np.arange(n)
    y = 100 * (1 + 0.2 * np.sin(2 * np.pi * t / 24)) + rng.normal(0, 2, n)
    for occ in occurrences:
        y[occ:occ + length] *= 0.8
    horizon = draw(st.integers(1, 30))
    first = 48  # warm-up plus the longest cycle
    inside = [o + k for o in occurrences for k in range(1, length)
              if first <= o + k <= n - horizon]
    if inside and draw(st.booleans()):
        first_origin = draw(st.sampled_from(inside))  # an origin cuts a block
    else:
        first_origin = draw(st.integers(first, n - horizon))
    step = draw(st.integers(1, 40))
    last = first_origin + (n - horizon - first_origin) // step * step
    dip = draw(st.integers(0, 3))
    if dip == 1:
        # a negative reading between the first and the last origin: the one
        # pass reads it, and a multiplicative one rejects the series, when it
        # lies before the last origin (not zero: the percentage errors need
        # nonzero actuals)
        y[draw(st.integers(first_origin, last))] = draw(st.floats(-1e4, -1.0))
    elif dip:
        # a run of near-zero positive readings from there: where an additive
        # index exceeds them in a multiplicative model, the level or an
        # index is driven nonpositive and the pass ends at that step
        start = draw(st.integers(first_origin, last))
        y[start:start + draw(st.integers(1, 24))] = draw(st.floats(1e-3, 1.0))
    ts = hourly_series(y, seasons=[SeasonSpec("daily", 24, mode=draw(st.sampled_from(MODES)))],
                       dims=[DimsSpec("event", draw(st.sampled_from(MODES)), length,
                                      occurrences=tuple(occurrences))])
    spec = ModelSpec.for_series(ts, trend=draw(st.sampled_from(TREND_KINDS)),
                                damping_enabled=draw(st.booleans()),
                                ar_adjustment_enabled=draw(st.booleans()))
    unit = st.floats(0.0, 1.0)
    params = SmoothingParams(alpha=draw(unit), gamma=draw(unit), deltas=(draw(unit),),
                             deltas_dims=(draw(unit),), phi=draw(unit),
                             ar1=draw(st.floats(-0.9, 0.9)))
    return ts, spec, params, first_origin, step, horizon


class TestFixedPolicyLanes:
    @given(rolling_cases())
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_scalar_prefix_fits(self, case):
        ts, spec, params, first_origin, step, horizon = case
        origins = range(first_origin, len(ts) - horizon + 1, step)
        want, error = scalar_rolling(ts, spec, params, origins, horizon)
        if error is not None:
            with pytest.raises(type(error)) as got:
                mforecast(ts, spec, first_origin=first_origin, step=step,
                          horizon=horizon, params=params)
            assert (str(got.value), getattr(got.value, "step", None)) \
                == (str(error), getattr(error, "step", None))
            return
        grid = mforecast(ts, spec, first_origin=first_origin, step=step,
                         horizon=horizon, params=params)
        assert grid.origins == tuple(origins)
        np.testing.assert_allclose(grid.forecasts, want, rtol=1e-12, atol=0)

    def test_lowest_infeasible_origin_raises_as_scalar_loop(self):
        # With alpha 1 the level is y minus the additive index, so a reading
        # of 1 at step 200 (daily index about +17 there) makes it negative
        # and ends the one pass there, before the last origin; the
        # multiplicative trend makes the model multiplicative.
        ts = fixture_series(288)
        y = ts.values.copy()
        y[200] = 1.0
        ts = hourly_series(y, seasons=[SeasonSpec("daily", 24, mode="additive")])
        spec = ModelSpec.for_series(ts, trend="multiplicative")
        params = SmoothingParams(alpha=1.0, gamma=0.0, deltas=(0.1,))
        origins = range(48, 265, 24)
        _rows, error = scalar_rolling(ts, spec, params, origins, 24)
        assert error.step == 200
        with pytest.raises(FitInfeasibleError) as got:
            mforecast(ts, spec, first_origin=48, step=24, horizon=24, params=params)
        assert str(got.value) == str(error) == "level became nonpositive at step 200"
        assert got.value.step == error.step
        # the origins before the spike still forecast
        grid = mforecast(ts.prefix(216), spec, first_origin=48, step=24, horizon=24,
                         params=params)
        assert grid.origins[-1] == 192

    def test_origin_inside_a_block_sees_its_first_offsets(self):
        # One 6-step multiplicative dip at 130..135 and origins 120, 133, ...:
        # at origin 133 the block is under way, and the state there has
        # updated its first three offsets, as it would have in operation.
        t = np.arange(24 * 8)
        y = 100 * (1 + 0.2 * np.sin(2 * np.pi * t / 24))
        y[130:136] *= 0.7
        ts = hourly_series(y, seasons=[SeasonSpec("daily", 24)],
                           dims=[DimsSpec("dip", "multiplicative", 6, occurrences=(130,))])
        spec = ModelSpec.for_series(ts)
        params = SmoothingParams(alpha=0.1, gamma=0.01, deltas=(0.1,), deltas_dims=(0.5,))
        grid = mforecast(ts, spec, first_origin=120, step=13, horizon=13, params=params)
        assert grid.origins[:2] == (120, 133)
        seeds = init_values(ts.prefix(120), spec)
        whole_block = smooth_pass(ts.prefix(136), spec, params, seeds)
        assert grid.forecasts[1, 0] == pytest.approx(whole_block.fitted[133], rel=1e-12)
        dip = smooth_pass(ts, spec, params, seeds, stops=[133]).final_state.dims["dip"]
        assert (np.abs(dip[:3] - seeds.dims["dip"][:3]) > 0.05).all()
        np.testing.assert_array_equal(dip[3:], seeds.dims["dip"][3:])


class TestAccuracy:
    def test_perfect_fit_reports_zero(self):
        # Frozen optimal state over an exactly representable pattern:
        # 20 * (0.5, 1.0, 1.5) reproduces (10, 20, 30) without rounding.
        from hwdims import ModelState

        y = np.resize([10.0, 20.0, 30.0], 48)
        ts = hourly_series(y, seasons=[SeasonSpec("q", 3)])
        spec = ModelSpec.for_series(ts)
        seeds = ModelState(level=20.0, trend=0.0,
                           seasonal={"q": np.array([0.5, 1.0, 1.5])})
        fit = smooth_pass(ts, spec, SmoothingParams(alpha=0.0, gamma=0.0, deltas=(0.0,)), seeds)
        report = accuracy(fit)
        assert report.rmse == 0.0
        assert report.mape == 0.0
        assert report.aic == float("-inf")

    def test_rmse_matches_metric_exactly(self):
        ts = fixture_series(240)
        spec = ModelSpec.for_series(ts)
        seeds = init_values(ts, spec)
        fit = smooth_pass(ts, spec, PARAMS, seeds)
        report = accuracy(fit)
        actual = ts.values[fit.warmup:]
        assert report.rmse == rmse(actual, fit.fitted[fit.warmup:])
        assert report.warmup == 24

    def test_aic_counts_parameters(self):
        rng = np.random.default_rng(0)
        y = 100 + rng.normal(0, 1, 240) + 10 * np.sin(2 * np.pi * np.arange(240) / 24)
        plain = hourly_series(y, seasons=[SeasonSpec("daily", 24)])
        spiked = plain.add_dims(DimsSpec("noop", "multiplicative", 24))
        seeds_plain = init_values(plain, ModelSpec.for_series(plain))
        seeds_spiked = seeds_plain.copy()
        seeds_spiked.dims["noop"] = np.ones(24)
        fit_plain = smooth_pass(plain, ModelSpec.for_series(plain), PARAMS, seeds_plain)
        spiked_params = SmoothingParams(alpha=0.2, gamma=0.01, deltas=(0.1,),
                                        deltas_dims=(0.0,))
        fit_spiked = smooth_pass(spiked, ModelSpec.for_series(spiked),
                                 spiked_params, seeds_spiked)
        a_plain = accuracy(fit_plain)
        a_spiked = accuracy(fit_spiked)
        assert a_plain.rmse == a_spiked.rmse  # identical SSE by neutrality
        assert a_spiked.aic == pytest.approx(a_plain.aic + 2.0, abs=1e-9)
        assert a_spiked.k_params == a_plain.k_params + 1

    def test_aic_does_not_count_gamma_without_a_trend(self):
        rng = np.random.default_rng(0)
        y = 100 + rng.normal(0, 1, 240) + 10 * np.sin(2 * np.pi * np.arange(240) / 24)
        ts = hourly_series(y, seasons=[SeasonSpec("daily", 24)])
        fits = {}
        for trend in ("none", "additive"):
            spec = ModelSpec.for_series(ts, trend=trend)
            fits[trend] = smooth_pass(ts, spec, PARAMS, init_values(ts, spec))
        report = accuracy(fits["none"])
        assert report.k_params == accuracy(fits["additive"]).k_params - 1
        sse = float(np.sum(fits["none"].one_step_errors[report.warmup:] ** 2))
        assert report.aic == aic(sse, report.n_obs, report.k_params)


class TestGridExport:
    def test_csv_schema_and_values(self, tmp_path):
        ts = fixture_series(240)
        spec = ModelSpec.for_series(ts)
        grid = mforecast(ts, spec, first_origin=120, step=24, horizon=24,
                         params=PARAMS)
        path = grid_to_csv(grid, ts, tmp_path / "grid.csv")
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5 * 24
        assert list(rows[0]) == ["origin_timestamp", "horizon_step", "actual",
                                 "forecast", "ape"]
        first = rows[0]
        assert first["origin_timestamp"] == ts.timestamp_at(119).isoformat()
        assert float(first["actual"]) == ts.values[120]
        recomputed = abs(float(first["actual"]) - float(first["forecast"])) \
            / abs(float(first["actual"])) * 100
        assert float(first["ape"]) == pytest.approx(recomputed, rel=1e-12)

    def test_csv_text(self, tmp_path):
        ts = fixture_series(240)
        grid = mforecast(ts, ModelSpec.for_series(ts), first_origin=150, step=30,
                         horizon=12, params=PARAMS)
        path = grid_to_csv(grid, ts, tmp_path / "grid.csv")
        lines = ["origin_timestamp,horizon_step,actual,forecast,ape"]
        for i, origin in enumerate(grid.origins):
            stamp = (ts.start + (origin - 1) * ts.step).isoformat()
            for k in range(12):
                a, f = float(ts.values[origin + k]), float(grid.forecasts[i, k])
                lines.append(f"{stamp},{k + 1},{a!r},{f!r},{100.0 * abs(a - f) / abs(a)!r}")
        assert path.read_text() == "".join(line + "\n" for line in lines)
