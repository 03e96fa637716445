"""Seasonal-trend decomposition: reconstruction identity, component quality,
moving-seasonality profiles, plot-data export."""

from __future__ import annotations

import csv
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hwdims.decompose as decompose
from hwdims import (
    DataError,
    DimsSpec,
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


def fit_point(y: np.ndarray, x0: float, window: int,
              excluded: np.ndarray | None = None) -> float:
    """Weighted degree-1 fit at coordinate ``x0`` over the nearest grid points:
    the scalar reference every smoother route is tested against."""
    n = len(y)
    if window >= n:
        lo, hi = 0, n
    else:
        half = (window - 1) // 2
        lo = min(max(int(math.floor(x0)) - half, 0), n - window)
        hi = lo + window
    idx = np.arange(lo, hi)
    if excluded is not None:
        kept = idx[~excluded[lo:hi]]
        if kept.size == 0:
            # the nearest `window` kept points lie within `window` of x0's
            # insertion point among them
            kept = np.flatnonzero(~excluded)
            p = int(np.searchsorted(kept, x0))
            kept = kept[max(p - window, 0):p + window]
            order = np.argsort(np.abs(kept - x0), kind="stable")
            kept = kept[order[:window]]
        # nothing unmasked anywhere: fit from what exists
        idx = kept if kept.size else idx
    vals = y[idx]
    dist = np.abs(idx - x0)
    h = dist.max()
    if h <= 0:
        return float(vals[0])
    u = dist / h
    wts = np.clip(1.0 - u ** 3, 0.0, None) ** 3
    sw = wts.sum()
    if sw <= 0.0:
        return float(vals.mean())
    xb = float((wts * idx).sum() / sw)
    yb = float((wts * vals).sum() / sw)
    sxx = float((wts * (idx - xb) ** 2).sum())
    if sxx <= 1e-12 * max(h * h, 1.0):
        return yb
    slope = float((wts * (idx - xb) * (vals - yb)).sum() / sxx)
    return yb + slope * (x0 - xb)


def scalar_loess(y, window, excluded=None):
    """:func:`loess_smooth`'s contract, one :func:`fit_point` call per position."""
    w = decompose._odd_at_least(window)
    return np.array([fit_point(y, float(i), w, excluded) for i in range(len(y))])


def scalar_subseries(u, s, window, excluded=None):
    """:func:`_subseries_smooth_extended`'s contract: each cycle-subseries fitted
    by :func:`fit_point` at -1..m, unmasked when every point of it is excluded."""
    w = decompose._odd_at_least(window)
    ext = np.empty(len(u) + 2 * s)
    for q in range(s):
        sub = u[q::s]
        mask = None if excluded is None or excluded[q::s].all() else excluded[q::s]
        ext[q::s] = [fit_point(sub, float(x0), w, mask)
                     for x0 in range(-1, len(sub) + 1)]
    return ext


def other_mask(excluded, shift):
    """A different mask of the same shape: ``excluded`` rolled, of the same
    kept count when some point is kept (a mask that keeps none gets its
    first point kept)."""
    other = np.roll(excluded, shift)
    if (other == excluded).all():
        other[np.flatnonzero(excluded)[0]] = False
        if not excluded.all():
            other[np.flatnonzero(~excluded)[0]] = True
    return other


@st.composite
def masked_series(draw):
    n = draw(st.integers(3, 200))
    window = draw(st.integers(3, 61))
    offset = draw(st.sampled_from([0.0, 1e3, 1e6]))
    y = offset + np.array(draw(st.lists(
        st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n,
    )))
    excluded = np.zeros(n, bool)
    for start, length in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, 2 * window)), min_size=1, max_size=3,
    )):
        excluded[start:start + length] = True
    return y, window, excluded


def masked_example(n, window, *blocks):
    t = np.arange(n)
    y = 500.0 + 2.0 * t + 30.0 * np.sin(t / 3.0) + np.random.default_rng(n).normal(0, 5.0, n)
    excluded = np.zeros(n, bool)
    for start, stop in blocks:
        excluded[start:stop] = True
    return y, window, excluded


class TestLoess:
    @given(masked_series())
    # a block shorter than the window: the windows over its ends keep an end
    # point, so every masked interior window takes the moment fit
    @example(masked_example(60, 13, (24, 30)))
    # a block longer than the window: next to it the windows keep a few
    # points on one side only and fail the conditioning guard (16-20, 46-50)
    @example(masked_example(60, 13, (15, 52)))
    # windows inside a block keep no point at all (the nearest-points fallback)
    @example(masked_example(48, 9, (10, 40)))
    # every point excluded: the series is smoothed unmasked
    @example(masked_example(30, 7, (0, 30)))
    @settings(max_examples=300, deadline=None)
    def test_masked_equals_scalar_fit_point(self, case):
        y, window, excluded = case
        got = loess_smooth(y, window, excluded)
        want = scalar_loess(y, window, excluded)
        np.testing.assert_allclose(
            got, want, rtol=0, atol=1e-10 * max(1.0, float(np.max(np.abs(y))))
        )

    @given(masked_series(), st.integers(1, 1000))
    # blocks over both series ends, one wider than the window
    @example(masked_example(50, 9, (0, 4), (38, 50)), 17)
    @settings(max_examples=100, deadline=None)
    def test_plan_reuse_equals_scalar_fit_point(self, case, shift):
        # The plan of a (length, window, mask) is built on the first call and
        # reused: by a call on other values with the same mask, but not by a
        # call with another mask of the same length and window.
        y, window, excluded = case
        other = other_mask(excluded, shift)
        values = y[::-1] + 1.0
        atol = 1e-10 * max(1.0, float(np.max(np.abs(values))))
        decompose._plan.cache_clear()
        for vals, mask in ((y, excluded), (values, excluded), (y, other), (values, excluded)):
            np.testing.assert_allclose(loess_smooth(vals, window, mask),
                                       scalar_loess(vals, window, mask), rtol=0, atol=atol)

    def test_masked_trend_smooth_fits_only_edges_and_guarded_windows_exactly(self):
        # Eight weeks hourly with six one-day holidays and a four-day block,
        # smoothed with the daily (43) and weekly (281) trend windows.
        t = np.arange(24 * 7 * 8)
        n = len(t)
        y = (1000.0 + 0.05 * t + 150.0 * np.sin(2 * np.pi * t / 24)
             + 60.0 * np.cos(2 * np.pi * t / 168)
             + np.random.default_rng(11).normal(0.0, 10.0, n))
        excluded = np.zeros(n, bool)
        for day in (4, 12, 19, 27, 33, 50):
            excluded[24 * day:24 * day + 24] = True
        excluded[24 * 40:24 * 44] = True
        for window, guarded in ((43, 32), (281, 0)):
            # one row and no extension: the exact fits' flat positions are
            # their positions in the series
            sent = decompose._plan((1, n), window, 0, excluded.tobytes()).exact_at.tolist()
            got = loess_smooth(y, window, excluded)
            half = window // 2
            interior = [p for p in sent if half <= p < n - half]
            assert sorted(set(sent) - set(interior)) == [*range(half), *range(n - half, n)]
            # exact fits inside the four-day block only: its middle windows
            # exclude both end points, the next ones fail the guard
            assert all(24 * 40 <= p < 24 * 44 for p in interior)
            d = np.arange(-half, half + 1)
            kernel = np.clip(1.0 - (np.abs(d) / half) ** 3, 0.0, None) ** 3
            guard = []
            for p in interior:
                window_excluded = excluded[p - half:p + half + 1]
                if window_excluded[0] and window_excluded[-1]:
                    continue
                wts = kernel * ~window_excluded
                s0, s1, s2 = wts.sum(), (wts * d).sum(), (wts * d * d).sum()
                assert s0 <= 0.0 or s2 - s1 * s1 / s0 <= 0.1 * s2, p
                guard.append(p)
            assert len(guard) == guarded
            np.testing.assert_allclose(got, scalar_loess(y, window, excluded),
                                       rtol=0, atol=1e-10 * float(np.max(np.abs(y))))

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


def fit_grid(Y, window, excluded=None):
    """The fits of every row of ``Y`` at -1..n by one plan of the odd ``window``."""
    mask = np.zeros(Y.shape, bool) if excluded is None else excluded
    return decompose._plan(Y.shape, window, 1, mask.tobytes()).fit(Y)


def scalar_fit_grid(Y, x0s, window, excluded=None):
    """The batched kernel's contract, one :func:`fit_point` call per fit."""
    return np.array([
        [fit_point(row, float(x0), window,
                              None if excluded is None else excluded[r])
         for x0 in x0s]
        for r, row in enumerate(Y)
    ])


@st.composite
def fit_grid_cases(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 30))
    window = 2 * draw(st.integers(1, n // 2 + 4)) + 1   # odd, >= 3, includes window > n
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
        got = fit_grid(y, window, excluded)
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
        got = fit_point(y, x0, window, excluded)
        assert abs(got - want) <= 1e-12 * abs(want)

    @given(st.integers(2, 30), st.integers(2, 30), st.integers(0, 29), st.integers(3, 25),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_subseries_smoother_equals_scalar_fit_point(self, s, cycles, extra, window, data):
        # every route (convolution, moments, exact, nearest kept points) of the
        # subseries plan, fresh, reused on other values, and for another mask
        n = s * cycles + extra % s
        rng = np.random.default_rng(n * window)
        u = 100.0 + rng.normal(0.0, 10.0, n)
        excluded = np.zeros(n, bool)
        for start, length in data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, 3 * window * s)), max_size=3,
        )):
            excluded[start:start + length] = True
        none = np.zeros(n, bool)
        other = other_mask(excluded, data.draw(st.integers(1, n))) if excluded.any() else none
        decompose._plan.cache_clear()
        for vals, mask in ((u, excluded), (u[::-1] - 50.0, excluded), (u, other), (u, none)):
            np.testing.assert_allclose(
                decompose._subseries_smooth_extended(vals, s, window, mask),
                scalar_subseries(vals, s, window, mask), rtol=0, atol=1e-10 * 200.0)

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
        monkeypatch.setattr(decompose, "_OUTER_ITERATIONS", 3)
        batched = mstl(ts)
        # every fit of loess_smooth and of the subseries smoother (convolution,
        # moments, exact) goes through fit_point
        monkeypatch.setattr(decompose, "_subseries_smooth_extended", scalar_subseries)
        monkeypatch.setattr(decompose, "loess_smooth", scalar_loess)
        scalar = mstl(ts)
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

    def test_every_step_in_a_block_decomposes_unmasked(self):
        # No step is left outside the blocks, so every smoother row of the
        # regular components keeps no point and is fitted unmasked: trend and
        # seasonals are those of the series without moving seasonalities.
        rng = np.random.default_rng(23)
        t = np.arange(24 * 7 * 3)
        y = (500 + 40 * np.sin(2 * np.pi * t / 24) + 20 * np.cos(2 * np.pi * t / 168)
             + rng.normal(0, 3.0, len(t)))
        seasons = [SeasonSpec("daily", 24, mode="additive"),
                   SeasonSpec("weekly", 168, mode="additive")]
        weeks = DimsSpec("weeks", "additive", 168, occurrences=(0, 168, 336))
        masked = mstl(hourly_series(y, seasons=seasons, dims=[weeks]))
        plain = mstl(hourly_series(y, seasons=seasons))
        np.testing.assert_array_equal(masked.trend, plain.trend)
        for sid in ("daily", "weekly"):
            np.testing.assert_array_equal(masked.seasonals[sid], plain.seasonals[sid])
        assert_identity(masked)

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

    def test_outer_iteration_count_is_exact(self, monkeypatch):
        rng = np.random.default_rng(21)
        t = np.arange(24 * 7 * 3)
        y = (100 + 15 * np.sin(2 * np.pi * t / 24)
             + 10 * np.cos(2 * np.pi * t / 168) + rng.normal(0, 2.0, len(t)))
        ts = hourly_series(y, seasons=[
            SeasonSpec("daily", 24, mode="additive"),
            SeasonSpec("weekly", 168, mode="additive"),
        ])
        cycles = []
        real = decompose._extract_seasonal

        def recording(u, s, *args, **kwargs):
            cycles.append(s)
            return real(u, s, *args, **kwargs)

        monkeypatch.setattr(decompose, "_extract_seasonal", recording)
        result = mstl(ts)
        assert result.iterations == decompose._OUTER_ITERATIONS == 2
        assert cycles == [24, 168] * 2
        assert result.converged  # always: the schedule is fixed
        assert_identity(result)
        cycles.clear()
        monkeypatch.setattr(decompose, "_OUTER_ITERATIONS", 3)
        assert mstl(ts).iterations == 3
        assert cycles == [24, 168] * 3

    @pytest.mark.parametrize("outer", [None, 3])
    def test_single_cycle_runs_one_outer_pass(self, monkeypatch, outer):
        # MSTL with one period: a second pass would re-extract from the same input
        if outer is not None:
            monkeypatch.setattr(decompose, "_OUTER_ITERATIONS", outer)
        cycles = []
        real = decompose._extract_seasonal

        def recording(u, s, *args, **kwargs):
            cycles.append(s)
            return real(u, s, *args, **kwargs)

        monkeypatch.setattr(decompose, "_extract_seasonal", recording)
        assert mstl(sinusoid_fixture()).iterations == 1
        assert cycles == [24]
        cycles.clear()
        two = sinusoid_fixture(cycles=14).add_season(SeasonSpec("weekly", 168, mode="additive"))
        assert stl(two, "weekly").iterations == 1
        assert cycles == [168]


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

    def test_seasonal_windows_follow_cycle_rank(self, monkeypatch):
        # MSTL: the i-th shortest cycle is smoothed with window 7 + 4 i, and
        # its trend window follows from it; the final trend takes the
        # weekly one (281). Low-pass windows are the cycles (25, 169). Each
        # extraction smooths a trend only between its two passes.
        subseries, smooths = [], []
        real_subseries, real_loess = decompose._subseries_smooth_extended, decompose.loess_smooth

        def record_subseries(u, s, window, *args):
            subseries.append((s, window))
            return real_subseries(u, s, window, *args)

        def record_loess(y, window, *args, **kwargs):
            smooths.append(window)
            return real_loess(y, window, *args, **kwargs)

        monkeypatch.setattr(decompose, "_subseries_smooth_extended", record_subseries)
        monkeypatch.setattr(decompose, "loess_smooth", record_loess)
        mstl(self.fixture())
        inner = decompose._INNER_ITERATIONS
        assert subseries == ([(24, 11)] * inner + [(168, 15)] * inner) * 2
        assert sorted(set(smooths)) == [25, 43, 169, 281]
        assert smooths[-1] == 281
        assert smooths == [25, 43, 25, 169, 281, 169] * 2 + [281]

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

    @given(st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=72, max_size=72),
           st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_regular_components_are_event_blind(self, block_values, weekly):
        # Whatever the values inside the occurrence blocks, trend and
        # seasonals are the same to the last bit.
        ts = bump_fixture(noise=0.5, seed=7)
        if weekly:
            ts = ts.add_season(SeasonSpec("weekly", 168, mode="additive"))
        active = ts.recurrence("holiday") >= 0
        y = ts.values.copy()
        y[active] = block_values
        rewritten = hourly_series(y, seasons=ts.seasons, dims=ts.dims)
        want, got = mstl(ts), mstl(rewritten)
        np.testing.assert_array_equal(got.trend, want.trend)
        assert got.seasonals.keys() == want.seasonals.keys()
        for sid in want.seasonals:
            np.testing.assert_array_equal(got.seasonals[sid], want.seasonals[sid])
        assert_identity(got, atol=1e-9 * max(1.0, float(np.max(np.abs(y)))))

    def test_noiseless_components_recovered_exactly(self):
        result = mstl(bump_fixture())
        t = np.arange(len(result.series))
        np.testing.assert_allclose(result.trend, 100.0 + 0.01 * t, rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.seasonals["daily"], 8.0 * np.sin(2 * np.pi * t / 24),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.remainder, 0.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.dims_profiles["holiday"], 10.0, rtol=0, atol=1e-9)

    def test_one_pass_with_dims(self, monkeypatch):
        # The regular components are extracted once, masked, and the final
        # trend is smoothed once.
        rng = np.random.default_rng(5)
        t = np.arange(24 * 7 * 4)
        y = (300 + 20 * np.sin(2 * np.pi * t / 24)
             + 8 * np.cos(2 * np.pi * t / 168) + rng.normal(0, 1.0, len(t)))
        occurrences = (24 * 6, 24 * 17)
        for occ in occurrences:
            y[occ:occ + 24] -= 40.0
        ts = hourly_series(y, seasons=[
            SeasonSpec("daily", 24, mode="additive"),
            SeasonSpec("weekly", 168, mode="additive"),
        ], dims=[DimsSpec("holiday", "additive", 24, occurrences=occurrences)])
        cycles, masks, trend_smooths = [], [], []
        real_extract, real_loess = decompose._extract_seasonal, decompose.loess_smooth
        extracting = []

        def record_extract(u, s, window, excluded=None):
            cycles.append(s)
            masks.append(excluded)
            extracting.append(s)
            try:
                return real_extract(u, s, window, excluded)
            finally:
                extracting.pop()

        def record_loess(values, window, excluded=None):
            # the weekly inner loop smooths with 281 too; count mstl's own calls
            if not extracting:
                trend_smooths.append((window, excluded))
            return real_loess(values, window, excluded)

        monkeypatch.setattr(decompose, "_extract_seasonal", record_extract)
        monkeypatch.setattr(decompose, "loess_smooth", record_loess)
        mstl(ts)
        assert cycles == [24, 168] * 2
        ((window, trend_mask),) = trend_smooths
        assert window == 281
        blocks = ts.recurrence("holiday") >= 0
        for mask in masks + [trend_mask]:
            np.testing.assert_array_equal(mask, blocks)

    @pytest.mark.parametrize("dims", [(), (DimsSpec("never", "additive", 24),)])
    def test_without_blocks_nothing_is_masked(self, dims):
        # No registered moving seasonality (or one with no occurrence): the
        # plain unmasked MSTL, bit for bit.
        rng = np.random.default_rng(6)
        t = np.arange(24 * 7 * 3)
        y = 80 + 6 * np.sin(2 * np.pi * t / 24) + 3 * np.cos(2 * np.pi * t / 168) \
            + rng.normal(0, 0.5, len(t))
        seasons = [SeasonSpec("weekly", 168, mode="additive"),
                   SeasonSpec("daily", 24, mode="additive")]
        result = mstl(hourly_series(y, seasons=seasons, dims=dims))
        plain = decompose._extract_all_seasonals(y, seasons[::-1], 2, np.zeros(len(y), bool))
        seasonal_sum = plain["daily"] + plain["weekly"]
        trend = decompose.loess_smooth(y - seasonal_sum, 281)
        np.testing.assert_array_equal(result.trend, trend)
        for sid in ("daily", "weekly"):
            np.testing.assert_array_equal(result.seasonals[sid], plain[sid])
        np.testing.assert_array_equal(result.remainder, y - trend - seasonal_sum)

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
        result = mstl(ts)
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
        assert rows[0]["start_timestamp"] == (ts.start + occ[0] * ts.step).isoformat()

    def test_text_of_every_file(self, tmp_path):
        t = np.arange(24 * 7 * 3)
        y = 50 + 3 * np.sin(2 * np.pi * t / 24) + np.random.default_rng(2).normal(0, 0.7, len(t))
        ts = hourly_series(y, seasons=[SeasonSpec("daily", 24, mode="additive")],
                           dims=[DimsSpec("bridge day", "additive", 30, occurrences=(50, 300))])
        result = mstl(ts)
        stlplot_export(result, tmp_path)

        def text(*rows):
            return "".join(",".join(row) + "\n" for row in rows)

        stamps = [(ts.start + i * ts.step).isoformat() for i in range(len(ts))]
        panels = {"original": y, "trend": result.trend,
                  "seasonal_daily": result.seasonals["daily"], "remainder": result.remainder}
        for name, values in panels.items():
            assert (tmp_path / f"{name}.csv").read_text() == text(
                ["timestamp", "value"], *([s, f"{float(v)!r}"] for s, v in zip(stamps, values))
            ), name
        profile = result.dims_profiles["bridge day"]
        assert (tmp_path / "dims_bridge_day_profile.csv").read_text() == text(
            ["slot", "value"], *([str(q), f"{float(v)!r}"] for q, v in enumerate(profile))
        )
        assert (tmp_path / "dims_bridge_day_locations.csv").read_text() == text(
            ["start_timestamp", "end_timestamp"],
            [stamps[50], stamps[80]], [stamps[300], stamps[330]],
        )

    @pytest.mark.parametrize("kind", ["seasons", "dims"])
    def test_clashing_file_names_rejected_before_any_file(self, tmp_path, kind):
        # "a/b" and "a_b" both become "..._a_b.csv": one panel would be lost
        t = np.arange(24 * 7 * 3)
        y = 50 + 3 * np.sin(2 * np.pi * t / 24) + np.cos(2 * np.pi * t / 168)
        if kind == "seasons":
            ts = hourly_series(y, seasons=[SeasonSpec("a/b", 24, mode="additive"),
                                           SeasonSpec("a_b", 168, mode="additive")])
            message = "ids 'a/b' and 'a_b' would both be exported as 'seasonal_a_b'"
        else:
            ts = hourly_series(y, seasons=[SeasonSpec("daily", 24, mode="additive")], dims=[
                DimsSpec("a/b", "additive", 24, occurrences=(48,)),
                DimsSpec("a_b", "additive", 24, occurrences=(200,)),
            ])
            message = "ids 'a/b' and 'a_b' would both be exported as 'dims_a_b'"
        result = mstl(ts)
        with pytest.raises(ValueError, match=re.escape(message)):
            stlplot_export(result, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_no_dims_files_without_dims(self, tmp_path):
        result = mstl(sinusoid_fixture())
        written = stlplot_export(result, tmp_path)
        assert sorted(p.name for p in written) == [
            "original.csv", "remainder.csv", "seasonal_daily.csv", "trend.csv",
        ]
