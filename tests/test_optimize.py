"""Seed initialization and derivative-free parameter search."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import hwdims.optimize
from hwdims import (
    DataError,
    DimsSpec,
    FitInfeasibleError,
    ModelSpec,
    OptimConfig,
    SeasonSpec,
    default_bounds,
    find_params,
    init_values,
    mape,
    mstl,
    nelder_mead,
    parameter_names,
    params_to_vector,
)
from hwdims.optimize import ALGORITHMS

from helpers import hourly_series, simulate_double_seasonal


class TestInitValues:
    def test_exact_repeating_multiplicative(self):
        ts = hourly_series([10, 20, 30, 40, 10, 20, 30, 40],
                           seasons=[SeasonSpec("q", 4)])
        seeds = init_values(ts, ModelSpec.for_series(ts))
        assert seeds.level == pytest.approx(25.0, abs=1e-12)
        assert seeds.trend == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(seeds.seasonal["q"], [0.4, 0.8, 1.2, 1.6], atol=1e-12)

    def test_exact_repeating_additive(self):
        ts = hourly_series([10, 20, 30, 40, 10, 20, 30, 40],
                           seasons=[SeasonSpec("q", 4, mode="additive")])
        seeds = init_values(ts, ModelSpec.for_series(ts))
        np.testing.assert_allclose(seeds.seasonal["q"], [-15, -5, 5, 15], atol=1e-12)

    def test_constant_series_is_neutral(self):
        ts = hourly_series(np.full(16, 7.0), seasons=[SeasonSpec("q", 4)])
        seeds = init_values(ts, ModelSpec.for_series(ts))
        assert seeds.trend == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(seeds.seasonal["q"], np.ones(4), atol=1e-12)

    def test_constant_series_multiplicative_trend(self):
        ts = hourly_series(np.full(16, 7.0), seasons=[SeasonSpec("q", 4)])
        seeds = init_values(ts, ModelSpec.for_series(ts, trend="multiplicative"))
        assert seeds.trend == pytest.approx(1.0, abs=1e-12)

    def test_too_short_series_rejected(self):
        ts = hourly_series(np.arange(30.0), seasons=[SeasonSpec("d", 24)])
        with pytest.raises(DataError, match="48"):
            init_values(ts, ModelSpec.for_series(ts))

    def test_nested_cycles_do_not_double_count(self):
        # Exact product of a 4-pattern and an 8-pattern. Seeding each cycle
        # against the working series with shorter cycles removed keeps the
        # composite reconstruction tight; seeding both against the raw
        # series would bake the 4-pattern into the 8-ring a second time
        # (reconstruction off by the square of the inner pattern).
        inner = np.array([0.8, 1.0, 1.2, 1.0])
        outer = np.array([1.1, 1.1, 1.1, 1.1, 0.9, 0.9, 0.9, 0.9])
        t = np.arange(64)
        y = 100.0 * inner[t % 4] * outer[t % 8]
        ts = hourly_series(y, seasons=[SeasonSpec("in", 4), SeasonSpec("out", 8)])
        seeds = init_values(ts, ModelSpec.for_series(ts))
        recon = seeds.level * np.resize(seeds.seasonal["in"], 64) \
            * np.resize(seeds.seasonal["out"], 64)
        np.testing.assert_allclose(recon, y, rtol=1e-2)
        # The outer ring must not contain the inner pattern.
        np.testing.assert_allclose(seeds.seasonal["out"], outer, rtol=1e-2)

    def test_neutral_dims_seeds(self):
        ts = hourly_series(np.full(64, 5.0), seasons=[SeasonSpec("q", 4)]).add_dims(
            DimsSpec("ev", "multiplicative", 6, occurrences=(10, 40))
        )
        seeds = init_values(ts, ModelSpec.for_series(ts))
        np.testing.assert_allclose(seeds.dims["ev"], np.ones(6))

    def test_stl_based_dims_seeds_capture_bump(self):
        t = np.arange(24 * 20)
        y = 100.0 + 10 * np.sin(2 * np.pi * t / 24)
        occurrences = (24 * 5, 24 * 12)
        for occ in occurrences:
            y[occ:occ + 24] *= 0.8
        ts = hourly_series(y, seasons=[SeasonSpec("d", 24)]).add_dims(
            DimsSpec("hol", "multiplicative", 24, occurrences=occurrences,
                     init_method="stl_based")
        )
        seeds = init_values(ts, ModelSpec.for_series(ts))
        assert seeds.dims["hol"].mean() == pytest.approx(0.8, abs=0.04)

    def test_stl_based_dims_seeds_are_occurrence_means(self):
        t = np.arange(24 * 20)
        rng = np.random.default_rng(4)
        y = 100.0 + 10 * np.sin(2 * np.pi * t / 24) + rng.normal(0.0, 1.0, len(t))
        occurrences = (24 * 3, 24 * 7, 24 * 12, 24 * 16)
        for occ in occurrences:
            y[occ:occ + 24] *= 0.8
        ts = hourly_series(y, seasons=[SeasonSpec("d", 24)]).add_dims(
            DimsSpec("hol", "multiplicative", 24, occurrences=occurrences,
                     init_method="stl_based")
        )
        seeds = init_values(ts, ModelSpec.for_series(ts))
        result = mstl(ts)
        base = result.trend + result.seasonals["d"]
        profile = result.dims_profiles["hol"]
        want = [np.mean([(base[o + q] + profile[q]) / base[o + q] for o in occurrences])
                for q in range(24)]
        np.testing.assert_allclose(seeds.dims["hol"], want, rtol=1e-12)

    def test_stl_based_season_seeds(self):
        t = np.arange(24 * 10)
        y = 50.0 + 5 * np.sin(2 * np.pi * t / 24)
        ts = hourly_series(y, seasons=[SeasonSpec("d", 24, init_method="stl_based")])
        seeds = init_values(ts, ModelSpec.for_series(ts))
        ring = seeds.seasonal["d"]
        assert ring.mean() == pytest.approx(1.0, abs=1e-9)
        assert np.corrcoef(ring, 1 + 0.1 * np.sin(2 * np.pi * np.arange(24) / 24))[0, 1] > 0.99


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from([3, 4, 6, 8]))
@settings(max_examples=40, deadline=None)
def test_init_renormalization_is_exact(seed, cycle):
    rng = np.random.default_rng(seed)
    y = rng.uniform(10.0, 100.0, size=6 * cycle)
    ts_mult = hourly_series(y, seasons=[SeasonSpec("c", cycle)])
    seeds = init_values(ts_mult, ModelSpec.for_series(ts_mult))
    assert abs(seeds.seasonal["c"].mean() - 1.0) <= 1e-12
    ts_add = hourly_series(y, seasons=[SeasonSpec("c", cycle, mode="additive")])
    seeds = init_values(ts_add, ModelSpec.for_series(ts_add))
    assert abs(seeds.seasonal["c"].mean()) <= 1e-12


class TestNelderMead:
    def test_one_dimensional_quadratic(self):
        result = nelder_mead(lambda x: x[0] ** 2, [3.0], OptimConfig(tolerance=1e-10))
        assert abs(result.x[0]) < 1e-6

    def test_rosenbrock(self):
        def rosen(x):
            return (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

        result = nelder_mead(rosen, [-1.2, 1.0],
                             OptimConfig(max_evals=5000, tolerance=1e-12))
        assert result.evals <= 5000
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-4)

    def test_penalty_bounded_boundary_optimum(self):
        def f(x):
            v = float(x[0])
            if not 0.0 <= v <= 1.0:
                return 1e12 + (v - max(0.0, min(v, 1.0))) ** 2
            return (v - 2.0) ** 2

        result = nelder_mead(f, [0.5], OptimConfig(tolerance=1e-10))
        assert result.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_straddled_quadratic_reaches_the_optimum(self):
        # The simplex from 3.0 straddles 0 at about -0.3 and 0.3 with an
        # objective spread of about 1e-15, far below tolerance * |f_best|;
        # only the centroid probe carries it on to 0.
        result = nelder_mead(lambda x: x[0] ** 2, [3.0], OptimConfig())
        assert result.converged
        assert abs(result.x[0]) < 1e-6

    def test_relative_stop_is_scale_free(self):
        def f(x):
            return 1.0 + (x[0] - 1.0) ** 2 + 2.0 * (x[1] + 0.5) ** 2 + 0.5 * x[0] * x[1]

        results = [nelder_mead(lambda x, c=c: c * f(x), [3.0, 2.0], OptimConfig())
                   for c in (1e-3, 1.0, 1e6)]
        assert all(r.converged for r in results)
        assert len({r.evals for r in results}) == 1
        assert results[0].evals < OptimConfig().max_evals
        for r in results[1:]:
            np.testing.assert_array_equal(r.x, results[0].x)

    def test_unit_step_simplex(self):
        seen = []

        def f(x):
            seen.append(x.copy())
            return float(x @ x)

        nelder_mead(f, [0.5, -2.0], OptimConfig(max_evals=3), step=1.0)
        np.testing.assert_array_equal(seen, [[0.5, -2.0], [1.5, -2.0], [0.5, -1.0]])

    def test_best_value_history_is_monotone(self):
        def rosen(x):
            return (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

        result = nelder_mead(rosen, [-1.2, 1.0], OptimConfig(max_evals=2000))
        history = np.array(result.f_history)
        assert (np.diff(history) <= 0).all()


class TestFindParams:
    def make_series(self, n=480, seed=5):
        rng = np.random.default_rng(seed)
        y = simulate_double_seasonal(
            n, alpha=0.2, gamma=0.02, deltas=(0.3, 0.1), sigma=0.4, rng=rng,
            daily=1 + 0.25 * np.sin(2 * np.pi * np.arange(8) / 8),
            weekly=1 + 0.10 * np.sin(2 * np.pi * np.arange(24) / 24),
        )
        return hourly_series(y, seasons=[SeasonSpec("a", 8), SeasonSpec("b", 24)])

    def test_perfectly_seasonal_series_fits_to_zero(self):
        y = np.resize([10.0, 20, 30, 40], 40)
        ts = hourly_series(y, seasons=[SeasonSpec("q", 4)])
        spec = ModelSpec.for_series(ts)
        params, fit = find_params(ts, spec, OptimConfig(max_evals=200))
        assert fit.objective < 1e-8

    def test_parameters_respect_bounds(self):
        ts = self.make_series()
        spec = ModelSpec.for_series(ts)
        config = OptimConfig(max_evals=150)
        params, _ = find_params(ts, spec, config)
        for value in (params.alpha, params.gamma, *params.deltas):
            assert 0.0 <= value <= 1.0

    def test_custom_bounds_intersected_and_respected(self):
        ts = self.make_series()
        spec = ModelSpec.for_series(ts)
        bounds = ((0.05, 0.4), (0.0, 0.2), (0.1, 0.9), (0.0, 0.5))
        params, _ = find_params(ts, spec, OptimConfig(max_evals=150, bounds=bounds))
        assert 0.05 <= params.alpha <= 0.4
        assert params.gamma <= 0.2

    def test_deterministic_given_seed(self):
        ts = self.make_series()
        spec = ModelSpec.for_series(ts)
        config = OptimConfig(algorithm="random_restart_nelder_mead",
                             max_evals=300, restarts=3, rng_seed=42)
        p1, f1 = find_params(ts, spec, config)
        p2, f2 = find_params(ts, spec, config)
        assert p1 == p2
        assert f1.objective == f2.objective

    def test_one_restart_is_nelder_mead(self):
        ts = self.make_series()
        spec = ModelSpec.for_series(ts)
        p1, f1 = find_params(ts, spec, OptimConfig(max_evals=150))
        p2, f2 = find_params(ts, spec, OptimConfig(algorithm="random_restart_nelder_mead",
                                                   max_evals=150, restarts=1))
        assert p1 == p2
        assert f1.objective == f2.objective

    def test_one_start_search_does_not_load_numpy_random(self):
        # numpy loads numpy.random on first use, at ~6 MB of resident memory;
        # only a second start draws from it. A fresh interpreter, since the
        # test runner has loaded it already.
        script = (
            "import sys\n"
            "from datetime import datetime, timedelta\n"
            "import numpy as np\n"
            "from hwdims import ModelSpec, OptimConfig, SeasonSpec, TimeSeries, find_params\n"
            "ts = TimeSeries(values=10.0 + np.sin(np.arange(96) * np.pi / 4),\n"
            "                step=timedelta(hours=1), start=datetime(2020, 1, 1),\n"
            "                seasons=(SeasonSpec('a', 8),))\n"
            "find_params(ts, ModelSpec.for_series(ts), OptimConfig(max_evals=30))\n"
            "sys.exit('numpy.random' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(hwdims.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr or "numpy.random was loaded"

    def test_mape_objective_scale_free_selection(self):
        ts = self.make_series()
        spec = ModelSpec.for_series(ts)
        config = OptimConfig(objective="mape", max_evals=150)
        p1, _ = find_params(ts, spec, config)
        scaled = hourly_series(ts.values * 2.0, seasons=ts.seasons)
        p2, _ = find_params(scaled, spec, config)
        assert p1 == p2

    def test_parameter_recovery_on_synthetic_process(self):
        rng = np.random.default_rng(17)
        sigma = 0.5
        y = simulate_double_seasonal(
            1000, alpha=0.2, gamma=0.01, deltas=(0.3, 0.15), sigma=sigma, rng=rng,
            daily=1 + 0.3 * np.sin(2 * np.pi * np.arange(12) / 12),
            weekly=1 + 0.1 * np.cos(2 * np.pi * np.arange(48) / 48),
        )
        ts = hourly_series(y, seasons=[SeasonSpec("a", 12), SeasonSpec("b", 48)])
        spec = ModelSpec.for_series(ts)
        params, fit = find_params(ts, spec, OptimConfig(max_evals=500, tolerance=1e-7))
        assert fit.objective <= 1.1 * sigma

    def test_infeasible_everywhere_raises(self):
        # A sign-flipping series cannot keep a multiplicative index positive
        # at any smoothing weight once alpha is pinned high.
        y = np.resize([100.0, -100.0], 24)
        ts = hourly_series(y, seasons=[SeasonSpec("pair", 2)])
        spec = ModelSpec.for_series(ts)
        bounds = ((0.9, 1.0), (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(FitInfeasibleError):
            find_params(ts, spec, OptimConfig(max_evals=40, bounds=bounds))

    # (1.5, 2.0) is [1.5, 1.0] after the intersection with the hard box
    @pytest.mark.parametrize("bad", [(1.5, 2.0), (float("nan"), 0.5), (0.0, float("nan"))])
    @pytest.mark.parametrize("position, name", [(0, "alpha"), (3, "delta_b")])
    def test_empty_or_nonfinite_bounds_fail_before_any_work(self, monkeypatch, bad, position,
                                                           name):
        ts = self.make_series()
        spec = ModelSpec.for_series(ts)

        def no_work(*_args, **_kwargs):
            raise AssertionError("work done before the bounds were checked")

        monkeypatch.setattr(hwdims.optimize, "init_values", no_work)
        monkeypatch.setattr(hwdims.optimize, "smooth_pass", no_work)
        bounds = [(0.0, 1.0)] * 4
        bounds[position] = bad
        with pytest.raises(ValueError, match=f"bounds of {name} resolve to"):
            find_params(ts, spec, OptimConfig(bounds=tuple(bounds)))

    def test_parameter_names_layout(self):
        ts = self.make_series().add_dims(DimsSpec("ev", "multiplicative", 4))
        spec = ModelSpec.for_series(ts, damping_enabled=True, ar_adjustment_enabled=True)
        names = parameter_names(ts, spec)
        assert names == ["alpha", "gamma", "delta_a", "delta_b",
                         "delta_dims_ev", "phi", "ar1"]
        assert len(default_bounds(ts, spec)) == len(names)
        assert default_bounds(ts, spec)[-1][0] == pytest.approx(-0.999)


@st.composite
def bounded_searches(draw):
    """A short series, a model, user bounds inside the hard box (some of them
    a single point), a finite start inside, on an edge of or outside those
    bounds, and an algorithm."""
    cycle = draw(st.sampled_from([4, 6]))
    y = np.array(draw(st.lists(st.floats(50.0, 150.0), min_size=6 * cycle,
                               max_size=6 * cycle)))
    seasons = [SeasonSpec("c", cycle, mode=draw(st.sampled_from(["multiplicative",
                                                                  "additive"])))]
    ts = hourly_series(y, seasons=seasons)
    spec = ModelSpec.for_series(ts, trend=draw(st.sampled_from(["additive", "none",
                                                                "multiplicative"])),
                                damping_enabled=draw(st.booleans()),
                                ar_adjustment_enabled=draw(st.booleans()))
    bounds, start = [], []
    for lo, hi in default_bounds(ts, spec):
        a = draw(st.floats(lo, hi))
        b = draw(st.one_of(st.just(a), st.floats(a, hi)))
        bounds.append((a, b))
        start.append(draw(st.one_of(st.floats(a, b), st.sampled_from([a, b]),
                                    st.floats(-10.0, 10.0))))
    config = OptimConfig(algorithm=draw(st.sampled_from(ALGORITHMS)),
                         max_evals=draw(st.integers(1, 40)), bounds=tuple(bounds),
                         restarts=2, rng_seed=draw(st.integers(0, 2 ** 31)))
    return ts, spec, config, np.array(start)


@given(bounded_searches())
@settings(max_examples=150, deadline=None)
def test_find_params_stays_inside_the_bounds(case):
    ts, spec, config, start = case
    try:
        params, _ = find_params(ts, spec, config, start=start)
    except FitInfeasibleError:  # no point it tried fits, so none is returned
        reject()
    for value, (lo, hi) in zip(params_to_vector(params, spec), config.bounds, strict=True):
        assert lo <= value <= hi
