"""Seasonal-trend decomposition: reconstruction identity, component quality,
moving-seasonality profiles, plot-data export."""

from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hwdims.decompose as decompose
from hwdims import (
    DataError,
    DimsSpec,
    LoessConfig,
    SeasonSpec,
    loess_smooth,
    mstl,
    stl,
    stlplot_export,
)

from helpers import hourly_series


def sinusoid_fixture(cycles=10, amplitude=5.0):
    t = np.arange(24 * cycles)
    y = amplitude * np.sin(2 * np.pi * t / 24)
    return hourly_series(y, seasons=[SeasonSpec("daily", 24, mode="additive")])


def bump_fixture(noise=0.0, seed=0):
    t = np.arange(24 * 7 * 6)   # six weeks hourly
    y = 100.0 + 0.01 * t + 8.0 * np.sin(2 * np.pi * t / 24)
    occurrences = (24 * 9, 24 * 20, 24 * 31)
    for occ in occurrences:
        y[occ:occ + 24] += 10.0
    if noise:
        y = y + np.random.default_rng(seed).normal(0, noise, len(t))
    return hourly_series(
        y, seasons=[SeasonSpec("daily", 24, mode="additive")],
        dims=[DimsSpec("holiday", "additive", 24, occurrences=occurrences)],
    )


def assert_identity(result, atol=1e-9):
    np.testing.assert_allclose(
        result.reconstruction(), result.series.values, rtol=0, atol=atol
    )


class TestLoess:
    def test_linear_data_reproduced_exactly(self):
        y = 3.0 + 0.5 * np.arange(100)
        np.testing.assert_allclose(loess_smooth(y, 11), y, atol=1e-9)

    def test_constant_data_reproduced(self):
        y = np.full(50, 4.2)
        np.testing.assert_allclose(loess_smooth(y, 7), y, atol=1e-12)

    def test_window_larger_than_series(self):
        y = 1.0 + 2.0 * np.arange(5)
        np.testing.assert_allclose(loess_smooth(y, 99), y, atol=1e-9)

    def test_excluded_points_do_not_influence_fit(self):
        y = np.arange(60.0)
        y[30:34] += 500.0  # contamination
        excluded = np.zeros(60, bool)
        excluded[30:34] = True
        smoothed = loess_smooth(y, 13, excluded=excluded)
        clean = np.arange(60.0)
        np.testing.assert_allclose(smoothed, clean, atol=1e-6)

    def test_smooths_noise(self):
        rng = np.random.default_rng(2)
        y = np.sin(np.arange(200) / 30.0) + rng.normal(0, 0.3, 200)
        smoothed = loess_smooth(y, 41)
        assert np.std(smoothed - np.sin(np.arange(200) / 30.0)) < 0.15


def scalar_fit_grid(Y, x0s, window, excluded=None):
    """The batched kernel's contract, one :func:`_fit_point` call per fit."""
    return np.array([
        [decompose._fit_point(row, float(x0), window,
                              None if excluded is None else excluded[r])
         for x0 in x0s]
        for r, row in enumerate(Y)
    ])


@st.composite
def fit_grid_cases(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 30))
    window = draw(st.integers(1, n + 8))       # includes window >= n
    y = np.array(draw(st.lists(
        st.floats(-1e4, 1e4, allow_nan=False), min_size=k * n, max_size=k * n,
    ))).reshape(k, n)
    excluded = None
    if draw(st.booleans()):
        excluded = np.array(draw(st.lists(
            st.booleans(), min_size=k * n, max_size=k * n,
        ))).reshape(k, n)
        # a contiguous block, so that some windows keep no point at all
        start = draw(st.integers(0, n - 1))
        excluded[:, start:start + draw(st.integers(0, n))] = True
    return y, window, excluded


class TestFitGrid:
    @given(fit_grid_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_fit_point(self, case):
        y, window, excluded = case
        x0s = np.arange(-1, y.shape[1] + 1)   # every point and both extensions
        got = decompose._fit_grid(y, x0s, window, excluded)
        want = scalar_fit_grid(y, x0s, window, excluded)
        np.testing.assert_allclose(
            got, want, rtol=0, atol=1e-10 * max(1.0, float(np.max(np.abs(y))))
        )

    def test_empty_window_takes_the_nearest_kept_points(self):
        rng = np.random.default_rng(17)
        n, window, x0 = 200, 9, 99.5
        y = rng.normal(0.0, 1.0, n) + 0.05 * np.arange(n)
        excluded = np.zeros(n, bool)
        excluded[60:140] = True        # a run far wider than the window
        excluded[[57, 143]] = True     # holes, so the two sides differ
        # Whole-series selection: every kept index, nearest first, ties in
        # index order. 54 and 145 tie for the last place; 54 is kept.
        kept = np.flatnonzero(~excluded)
        idx = kept[np.argsort(np.abs(kept - x0), kind="stable")[:window]]
        assert 54 in idx and 145 not in idx
        dist = np.abs(idx - x0)
        wts = np.clip(1.0 - (dist / dist.max()) ** 3, 0.0, None) ** 3
        xb = (wts * idx).sum() / wts.sum()
        yb = (wts * y[idx]).sum() / wts.sum()
        slope = (wts * (idx - xb) * (y[idx] - yb)).sum() / (wts * (idx - xb) ** 2).sum()
        want = yb + slope * (x0 - xb)
        got = decompose._fit_point(y, x0, window, excluded)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_mstl_equals_scalar_path(self, monkeypatch):
        rng = np.random.default_rng(31)
        t = np.arange(24 * 7 * 3)
        y = (500 + 40 * np.sin(2 * np.pi * t / 24)
             + 20 * np.cos(2 * np.pi * t / 168) + rng.normal(0, 3.0, len(t)))
        holidays, festival = (24 * 4, 24 * 11), (24 * 16,)
        for occ in holidays:
            y[occ:occ + 24] -= 60.0
        y[festival[0]:festival[0] + 72] -= 40.0
        ts = hourly_series(y, seasons=[
            SeasonSpec("daily", 24, mode="additive"),
            SeasonSpec("weekly", 168, mode="additive"),
        ], dims=[
            DimsSpec("holidays", "additive", 24, occurrences=holidays),
            DimsSpec("festival", "additive", 72, occurrences=festival),
        ])
        config = LoessConfig(max_outer_iterations=3)
        batched = mstl(ts, config)
        monkeypatch.setattr(decompose, "_fit_grid", scalar_fit_grid)
        scalar = mstl(ts, config)
        atol = 1e-9 * float(np.max(np.abs(y)))
        np.testing.assert_allclose(batched.trend, scalar.trend, rtol=0, atol=atol)
        np.testing.assert_allclose(batched.remainder, scalar.remainder, rtol=0, atol=atol)
        for sid in ("daily", "weekly"):
            np.testing.assert_allclose(
                batched.seasonals[sid], scalar.seasonals[sid], rtol=0, atol=atol
            )
        for did in ("holidays", "festival"):
            np.testing.assert_allclose(
                batched.dims_profiles[did], scalar.dims_profiles[did], rtol=0, atol=atol
            )


class TestMstlBasics:
    def test_constant_series(self):
        ts = hourly_series(np.full(96, 5.0),
                           seasons=[SeasonSpec("daily", 24, mode="additive")])
        result = mstl(ts)
        assert_identity(result)
        np.testing.assert_allclose(result.trend, 5.0, atol=1e-9)
        np.testing.assert_allclose(result.seasonals["daily"], 0.0, atol=1e-9)
        np.testing.assert_allclose(result.remainder, 0.0, atol=1e-9)
        assert result.converged

    def test_pure_sinusoid_captured_by_seasonal(self):
        result = mstl(sinusoid_fixture())
        assert_identity(result)
        y = result.series.values
        # Per-slot cycle-means oracle for a strictly periodic input.
        oracle = np.array([y[q::24].mean() for q in range(24)])
        oracle -= oracle.mean()
        np.testing.assert_allclose(
            result.seasonals["daily"], np.resize(oracle, len(y)), atol=0.05
        )
        assert np.max(np.abs(result.remainder)) <= 0.05  # 1% of amplitude 5

    def test_linear_ramp_goes_to_trend(self):
        n = 64
        y = 2.0 + 0.25 * np.arange(n)
        ts = hourly_series(y, seasons=[SeasonSpec("q", 4, mode="additive")])
        result = mstl(ts)
        assert_identity(result)
        scale = np.max(np.abs(y))
        assert np.max(np.abs(result.seasonals["q"])) <= 1e-6 * scale
        # Least-squares line oracle: the ramp itself.
        np.testing.assert_allclose(result.trend, y, atol=1e-6 * scale)

    def test_seasonal_sums_to_zero_over_complete_cycles(self):
        rng = np.random.default_rng(8)
        t = np.arange(24 * 12)
        y = 50 + 6 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1.0, len(t))
        ts = hourly_series(y, seasons=[SeasonSpec("daily", 24, mode="additive")])
        result = mstl(ts)
        scale = np.max(np.abs(y))
        comp = result.seasonals["daily"]
        for c0 in range(0, len(y) - 23, 24):
            assert abs(comp[c0:c0 + 24].mean()) <= 1e-6 * scale

    def test_too_few_cycles_rejected(self):
        ts = hourly_series(np.arange(40.0), seasons=[SeasonSpec("daily", 24, mode="additive")])
        with pytest.raises(DataError, match="2 cycles"):
            mstl(ts)

    def test_idempotent_extraction(self):
        result = mstl(sinusoid_fixture())
        ts2 = hourly_series(result.remainder,
                            seasons=[SeasonSpec("daily", 24, mode="additive")])
        second = mstl(ts2)
        scale = max(np.max(np.abs(result.series.values)), 1.0)
        assert np.max(np.abs(second.seasonals["daily"])) <= 1e-3 * scale

    def test_iteration_cap_sets_nonconvergence_flag(self):
        rng = np.random.default_rng(21)
        t = np.arange(24 * 7 * 3)
        y = (100 + 15 * np.sin(2 * np.pi * t / 24)
             + 10 * np.cos(2 * np.pi * t / 168) + rng.normal(0, 2.0, len(t)))
        ts = hourly_series(y, seasons=[
            SeasonSpec("daily", 24, mode="additive"),
            SeasonSpec("weekly", 168, mode="additive"),
        ])
        strict = LoessConfig(max_outer_iterations=1, convergence_tol=1e-12)
        result = mstl(ts, strict)
        assert not result.converged
        assert result.iterations == 1
        assert_identity(result)  # the identity holds regardless
        relaxed = mstl(ts, LoessConfig(max_outer_iterations=10, convergence_tol=1e-3))
        assert relaxed.converged


class TestAgainstReferenceImplementation:
    def test_close_to_statsmodels_stl(self):
        """Independent cross-check: same algorithm family, separate codebase.

        Components are not bit-comparable (different low-pass details and
        per-cycle recentering here), but on a clean single-seasonality
        fixture both should land on essentially the same split.
        """
        sm_seasonal = pytest.importorskip("statsmodels.tsa.seasonal")
        rng = np.random.default_rng(17)
        t = np.arange(24 * 14)
        y = 100 + 0.05 * t + 12 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1.0, len(t))
        ts = hourly_series(y, seasons=[SeasonSpec("daily", 24, mode="additive")])
        mine = mstl(ts)
        ref = sm_seasonal.STL(y, period=24, seasonal=7, robust=False).fit()
        amplitude = 12.0
        seasonal_rms = np.sqrt(np.mean((mine.seasonals["daily"] - ref.seasonal) ** 2))
        trend_rms = np.sqrt(np.mean((mine.trend - ref.trend) ** 2))
        assert seasonal_rms <= 0.02 * amplitude
        assert trend_rms <= 0.2


class TestTwoSeasonalities:
    def fixture(self, noise=0.5):
        rng = np.random.default_rng(4)
        t = np.arange(24 * 7 * 4)
        y = (200 + 0.02 * t + 12 * np.sin(2 * np.pi * t / 24)
             + 5 * np.cos(2 * np.pi * t / 168) + rng.normal(0, noise, len(t)))
        return hourly_series(y, seasons=[
            SeasonSpec("daily", 24, mode="additive"),
            SeasonSpec("weekly", 168, mode="additive"),
        ])

    def test_identity_and_component_split(self):
        result = mstl(self.fixture())
        assert_identity(result)
        daily = result.seasonals["daily"]
        t = np.arange(len(daily))
        target = 12 * np.sin(2 * np.pi * t / 24)
        assert np.sqrt(np.mean((daily - target) ** 2)) < 1.0

    def test_last_delta_is_the_final_change(self):
        ts = self.fixture()
        tol = 1e-6
        scale = float(np.max(np.abs(ts.values)))
        capped = mstl(ts, LoessConfig(max_outer_iterations=2, convergence_tol=tol))
        assert not capped.converged
        assert capped.last_delta > tol * scale
        one_more = mstl(ts, LoessConfig(max_outer_iterations=3, convergence_tol=tol))
        moved = max(np.max(np.abs(one_more.seasonals[sid] - capped.seasonals[sid]))
                    for sid in ("daily", "weekly"))
        assert one_more.last_delta == moved
        loose = mstl(ts, LoessConfig(convergence_tol=1e-2))
        assert loose.converged
        assert loose.last_delta <= 1e-2 * scale

    def test_single_seasonality_stl_equals_mstl(self):
        t = np.arange(24 * 8)
        y = 100 + 10 * np.sin(2 * np.pi * t / 24)
        one = hourly_series(y, seasons=[SeasonSpec("daily", 24, mode="additive")])
        via_mstl = mstl(one)
        via_stl = stl(one, "daily")
        np.testing.assert_array_equal(via_stl.trend, via_mstl.trend)
        np.testing.assert_array_equal(
            via_stl.seasonals["daily"], via_mstl.seasonals["daily"]
        )

    def test_stl_unknown_season(self):
        with pytest.raises(KeyError):
            stl(self.fixture(), "annual")

    def test_stl_short_series_rejected(self):
        ts = hourly_series(np.arange(200.0),
                           seasons=[SeasonSpec("weekly", 168, mode="additive")])
        with pytest.raises(DataError, match="2 cycles"):
            stl(ts, "weekly")


class TestDimsExtraction:
    def test_bump_profile_recovered(self):
        result = mstl(bump_fixture())
        assert_identity(result)
        profile = result.dims_profiles["holiday"]
        np.testing.assert_allclose(profile, 10.0, rtol=0.05)
        comp = result.dims_components["holiday"]
        active = np.zeros(len(result.series), bool)
        for occ in result.series.dims[0].occurrences:
            active[occ:occ + 24] = True
        assert (comp[~active] == 0.0).all()
        # No systematic bump left behind.
        assert abs(result.remainder[active].mean()) < 1.0

    def test_bump_profile_with_noise(self):
        result = mstl(bump_fixture(noise=0.5, seed=3))
        profile = result.dims_profiles["holiday"]
        np.testing.assert_allclose(profile, 10.0, rtol=0.05)

    def test_regular_components_identical_with_and_without_dims(self):
        spiked = bump_fixture()
        plain = hourly_series(spiked.values, seasons=spiked.seasons)
        with_dims = mstl(spiked)
        without = mstl(plain)
        np.testing.assert_array_equal(
            with_dims.seasonals["daily"], without.seasonals["daily"]
        )

    def test_profile_is_the_block_mean(self, monkeypatch):
        # Ten occurrences: the slot mean must add the blocks in series order,
        # as the mean over stacked blocks does, so both agree bit for bit.
        rng = np.random.default_rng(23)
        t = np.arange(24 * 7 * 8)
        y = 200.0 + 12.0 * np.sin(2 * np.pi * t / 24) + rng.normal(0.0, 1.0, len(t))
        occurrences = tuple(24 * d for d in range(3, 53, 5))
        for occ in occurrences:
            y[occ:occ + 24] -= 30.0
        ts = hourly_series(y, seasons=[SeasonSpec("daily", 24, mode="additive")],
                           dims=[DimsSpec("holiday", "additive", 24, occurrences=occurrences)])
        residuals = []
        real = decompose.slot_mean

        def recording(values, *args):
            residuals.append(values.copy())
            return real(values, *args)

        monkeypatch.setattr(decompose, "slot_mean", recording)
        result = mstl(ts, LoessConfig(max_outer_iterations=2))
        (work,) = residuals
        profile = np.stack([work[o:o + 24] for o in occurrences]).mean(axis=0)
        component = np.zeros(len(t))
        for occ in occurrences:
            component[occ:occ + 24] = profile
        np.testing.assert_array_equal(result.dims_profiles["holiday"], profile)
        np.testing.assert_array_equal(result.dims_components["holiday"], component)

    def test_empty_occurrences_give_zero_component(self):
        ts = hourly_series(
            np.full(96, 3.0), seasons=[SeasonSpec("daily", 24, mode="additive")],
            dims=[DimsSpec("never", "additive", 24)],
        )
        result = mstl(ts)
        assert (result.dims_components["never"] == 0.0).all()
        assert (result.dims_profiles["never"] == 0.0).all()
        assert_identity(result)


class TestExport:
    def read_column(self, path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        return np.array([float(r["value"]) for r in rows])

    def test_file_set_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        t = np.arange(24 * 7 * 4)
        y = (100 + 10 * np.sin(2 * np.pi * t / 24)
             + 4 * np.cos(2 * np.pi * t / 168) + rng.normal(0, 0.5, len(t)))
        occ = (24 * 8,)
        y[occ[0]:occ[0] + 24] += 5
        ts = hourly_series(y, seasons=[
            SeasonSpec("daily", 24, mode="additive"),
            SeasonSpec("weekly", 168, mode="additive"),
        ], dims=[DimsSpec("fiesta", "additive", 24, occurrences=occ)])
        result = mstl(ts)
        written = stlplot_export(result, tmp_path)
        names = sorted(p.name for p in written)
        assert names == [
            "dims_fiesta_locations.csv",
            "dims_fiesta_profile.csv",
            "original.csv",
            "remainder.csv",
            "seasonal_daily.csv",
            "seasonal_weekly.csv",
            "trend.csv",
        ]
        total = (
            self.read_column(tmp_path / "trend.csv")
            + self.read_column(tmp_path / "seasonal_daily.csv")
            + self.read_column(tmp_path / "seasonal_weekly.csv")
            + self.read_column(tmp_path / "remainder.csv")
        )
        profile = self.read_column(tmp_path / "dims_fiesta_profile.csv")
        total[occ[0]:occ[0] + 24] += profile
        original = self.read_column(tmp_path / "original.csv")
        np.testing.assert_allclose(total, original, rtol=0, atol=1e-9)
        with open(tmp_path / "dims_fiesta_locations.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["start_timestamp"] == ts.timestamp_at(occ[0]).isoformat()

    def test_no_dims_files_without_dims(self, tmp_path):
        result = mstl(sinusoid_fixture())
        written = stlplot_export(result, tmp_path)
        assert sorted(p.name for p in written) == [
            "original.csv", "remainder.csv", "seasonal_daily.csv", "trend.csv",
        ]
