"""Seed initialization and derivative-free parameter search."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
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
    nelder_mead,
    parameter_names,
    params_to_vector,
)
from hwdims.optimize import ALGORITHMS, COARSE, INFEASIBLE_PENALTY, default_start

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
                     init_method="ratio_to_ma")
        )
        seeds = init_values(ts, ModelSpec.for_series(ts))
        assert seeds.dims["hol"].mean() == pytest.approx(0.8, abs=0.04)

    def test_ratio_to_ma_dims_seeds_follow_the_masked_average(self):
        # Noisy daily series, blocks lowered by 20 %: one at the start and
        # one running past the end, which no whole window reaches, and two on
        # consecutive days, whose windows keep under half their weight in
        # places. The seeds are the per-offset means of the work series (the
        # daily ring divided out) over a 2x72-step average of the steps
        # outside every block, computed here one position at a time.
        t = np.arange(24 * 20)
        rng = np.random.default_rng(4)
        y = 100.0 + 10 * np.sin(2 * np.pi * t / 24) + rng.normal(0.0, 1.0, len(t))
        occurrences = (0, 24 * 3 + 5, 24 * 7, 24 * 8, 24 * 12, 24 * 16 + 5, 24 * 20 - 10)
        for occ in occurrences:
            y[occ:occ + 24] *= 0.8
        ts = hourly_series(y, seasons=[SeasonSpec("d", 24)]).add_dims(
            DimsSpec("hol", "multiplicative", 24, occurrences=occurrences,
                     init_method="ratio_to_ma")
        )
        seeds = init_values(ts, ModelSpec.for_series(ts))
        work = y / np.resize(seeds.seasonal["d"], len(y))
        slots = ts.recurrence("hol")
        kept = slots < 0
        kernel = np.full(73, 1.0 / 72)
        kernel[0] = kernel[-1] = 0.5 / 72
        ratios, skipped = [[] for _ in range(24)], 0
        for pos in range(36, len(y) - 36):
            if slots[pos] < 0:
                continue
            window = slice(pos - 36, pos + 37)
            weight = np.sum(kernel * kept[window])
            if weight >= 0.5:
                average = np.sum(kernel * kept[window] * work[window]) / weight
                ratios[slots[pos]].append(work[pos] / average)
            else:
                skipped += 1
        assert skipped > 0 and min(map(len, ratios)) >= 2
        want = [np.mean(r) for r in ratios]
        np.testing.assert_allclose(seeds.dims["hol"], want, rtol=1e-12)
        np.testing.assert_allclose(seeds.dims["hol"], 0.8, atol=0.03)

    def test_difference_to_ma_dims_seeds_recover_a_noiseless_dip(self):
        # A daily sine and 24 six-step dips of one profile, one starting at
        # each hour of the day: every hour slot holds the whole profile once,
        # so the additive daily ring is the sine, and the dims seeds are the
        # dip, offset by offset.
        t = np.arange(24 * 52)
        y = 100.0 + 10.0 * np.sin(2 * np.pi * t / 24)
        dip = np.array([-5.0, -20.0, -12.5, 3.0, -8.0, -1.0])
        occurrences = tuple(30 + 49 * k for k in range(24))
        for occ in occurrences:
            y[occ:occ + 6] += dip
        ts = hourly_series(y, seasons=[SeasonSpec("d", 24, mode="additive")]).add_dims(
            DimsSpec("hol", "additive", 6, occurrences=occurrences,
                     init_method="difference_to_ma"))
        seeds = init_values(ts, ModelSpec.for_series(ts, trend="none"))
        np.testing.assert_allclose(seeds.seasonal["d"],
                                   10.0 * np.sin(2 * np.pi * np.arange(24) / 24),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(seeds.dims["hol"], dip, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("level, seasons", [(100.0, [SeasonSpec("w", 168)]), (-100.0, [])],
                             ids=["window-past-the-series", "average-not-positive"])
    def test_multiplicative_dims_seeds_stay_neutral_without_a_baseline(self, level, seasons):
        # Two weekly cycles are too short for the three-week window that a
        # one-day block under a weekly cycle needs, and a ratio to an average
        # that is not positive is no index: either way the seeds stay neutral.
        y = level + np.arange(336) % 7
        y[100:124] *= 0.8
        ts = hourly_series(y, seasons=seasons).add_dims(
            DimsSpec("hol", "multiplicative", 24, occurrences=(100,),
                     init_method="ratio_to_ma"))
        seeds = init_values(ts, ModelSpec.for_series(ts))
        np.testing.assert_array_equal(seeds.dims["hol"], np.ones(24))


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

    @pytest.mark.parametrize("max_evals", range(1, 31))
    def test_budget_caps_every_evaluation(self, max_evals):
        # The three evaluations of the first simplex count, and a run whose
        # budget ends within a step stops there: it never evaluates past
        # max_evals, and returns the best point it evaluated.
        seen = []

        def rosen(x):
            seen.append((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)
            return seen[-1]

        result = nelder_mead(rosen, [-1.2, 1.0], OptimConfig(max_evals=max_evals), step=1.0)
        assert len(seen) == result.evals <= max_evals
        assert result.fun == min(seen) == rosen(result.x)

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

    @pytest.mark.parametrize("max_evals", [10, 40])
    def test_restarts_stay_within_the_budget(self, monkeypatch, max_evals):
        # Each start's first simplex costs k + 1 = 4 passes whatever its share
        # of the budget, so 20 starts alone would make 80.
        t = np.arange(24 * 7 * 4)
        ts = hourly_series(100.0 + 10.0 * np.sin(2 * np.pi * t / 24),
                           seasons=[SeasonSpec("d", 24, mode="additive")])
        spec = ModelSpec.for_series(ts, trend="additive")
        assert len(parameter_names(ts, spec)) == 3
        real_pass, passes = hwdims.optimize.smooth_pass, []

        def counted(*args):
            passes.append(1)
            return real_pass(*args)

        monkeypatch.setattr(hwdims.optimize, "smooth_pass", counted)
        find_params(ts, spec, OptimConfig(algorithm="random_restart_nelder_mead",
                                          max_evals=max_evals, restarts=20))
        assert len(passes) <= 2 * max_evals

    @staticmethod
    def recorded_stops(monkeypatch):
        """The observations each of the search's passes reads, one entry per
        pass, in order."""
        real_pass, stops = hwdims.optimize.smooth_pass, []

        def recorded(ts, spec, params, seeds, pass_stops=None):
            stops.append(len(ts) if pass_stops is None else pass_stops[-1])
            return real_pass(ts, spec, params, seeds, pass_stops)

        monkeypatch.setattr(hwdims.optimize, "smooth_pass", recorded)
        return stops

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("max_evals", [1, 3, 7, 8, 9, 10, 12, 40])
    def test_two_stage_search_stays_within_the_budget(self, monkeypatch, algorithm, max_evals):
        # k = 3, so the coarse stage runs only for budgets above 2 * (k + 1) = 8,
        # and it leaves the full stage at least one first simplex.
        t = np.arange(24 * 7 * 4)
        ts = hourly_series(100.0 + 10.0 * np.sin(2 * np.pi * t / 24) + 0.01 * t,
                           seasons=[SeasonSpec("d", 24, mode="additive")])
        spec = ModelSpec.for_series(ts, trend="additive")
        n, k = len(ts), len(parameter_names(ts, spec))
        stops = self.recorded_stops(monkeypatch)
        _, fit = find_params(ts, spec, OptimConfig(algorithm=algorithm, max_evals=max_evals,
                                                   restarts=3))
        assert len(stops) <= max_evals
        assert set(stops) == ({n // COARSE, n} if max_evals > 2 * (k + 1) else {n})
        assert stops.count(n) >= min(max_evals, k + 1)
        assert len(fit.fitted) == n and fit.final_state.position == n

    def test_given_start_makes_only_full_passes(self, monkeypatch):
        ts = self.make_series()
        spec = ModelSpec.for_series(ts)
        stops = self.recorded_stops(monkeypatch)
        _, fit = find_params(ts, spec, OptimConfig(max_evals=150),
                             start=default_start(ts, spec))
        assert stops and set(stops) == {len(ts)}
        assert len(fit.fitted) == len(ts) and fit.final_state.position == len(ts)

    @pytest.mark.parametrize("n, coarse", [(192, False), (196, True)])
    def test_coarse_stage_needs_twice_the_warmup(self, monkeypatch, n, coarse):
        # Cycles of 8 and 24: a warm-up of 24, so a coarse pass must read
        # more than 48 observations.
        ts = self.make_series(n=n)
        spec = ModelSpec.for_series(ts)
        stops = self.recorded_stops(monkeypatch)
        _, fit = find_params(ts, spec, OptimConfig(max_evals=150))
        assert set(stops) == ({n // COARSE, n} if coarse else {n})
        assert len(fit.fitted) == n and fit.final_state.position == n

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

    @pytest.mark.parametrize("failure", [ZeroDivisionError, OverflowError, "nan", "inf"])
    def test_failed_or_nonfinite_evaluations_are_penalized(self, monkeypatch, failure):
        # Passes at alpha above 0.3 raise, or score a non-finite objective:
        # the search sees the penalty for them and returns the best of the
        # others. Each evaluation is one pass, so the two records pair up.
        ts = self.make_series()
        spec = ModelSpec.for_series(ts)
        real_pass, real_search = hwdims.optimize.smooth_pass, hwdims.optimize.nelder_mead
        failed, seen = [], []

        def flaky(ts, spec, params, seeds, stops=None):
            fit = real_pass(ts, spec, params, seeds, stops)
            failed.append(params.alpha > 0.3)
            if not failed[-1]:
                return fit
            if isinstance(failure, str):
                return replace(fit, objective=float(failure))
            raise failure

        def watched(f, x0, config, step=None):
            def recorded(z):
                seen.append(f(z))
                return seen[-1]
            return real_search(recorded, x0, config, step)

        monkeypatch.setattr(hwdims.optimize, "smooth_pass", flaky)
        monkeypatch.setattr(hwdims.optimize, "nelder_mead", watched)
        params, fit = find_params(ts, spec, OptimConfig(max_evals=80))
        assert any(failed) and len(seen) == len(failed)
        assert all((value == INFEASIBLE_PENALTY) == bad for value, bad in zip(seen, failed))
        assert params.alpha <= 0.3 and math.isfinite(fit.objective)

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
def bounded_searches(draw, cycles=6, max_evals=40):
    """A series of ``cycles`` cycles, a model, user bounds inside the hard box
    (some of them a single point), a finite start inside, on an edge of or
    outside those bounds, an algorithm and a budget of up to ``max_evals``."""
    cycle = draw(st.sampled_from([4, 6]))
    y = np.array(draw(st.lists(st.floats(50.0, 150.0), min_size=cycles * cycle,
                               max_size=cycles * cycle)))
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
                         max_evals=draw(st.integers(1, max_evals)), bounds=tuple(bounds),
                         restarts=2, rng_seed=draw(st.integers(0, 2 ** 31)))
    return ts, spec, config, np.array(start)


def _subnormal_ar_box():
    # A start far outside an ar1 box of subnormal width: its place in the
    # box, (4 - lo) / (hi - lo), overflows unless the start is clipped first.
    ts = hourly_series(np.full(24, 50.0), seasons=[SeasonSpec("c", 4)])
    spec = ModelSpec.for_series(ts, trend="additive", damping_enabled=True,
                                ar_adjustment_enabled=True)
    bounds = ((0.0, 0.0),) * 4 + ((-2.2250738585072014e-308, 0.0),)
    config = OptimConfig(max_evals=1, bounds=bounds, restarts=2)
    return ts, spec, config, np.array([0.0, 0.0, 0.0, 0.0, 4.0])


def _assert_inside_the_bounds(case, start):
    ts, spec, config, _ = case
    try:
        params, _ = find_params(ts, spec, config, start=start)
    except FitInfeasibleError:  # no point it tried fits, so none is returned
        reject()
    for value, (lo, hi) in zip(params_to_vector(params, spec), config.bounds, strict=True):
        assert lo <= value <= hi


@given(bounded_searches())
@example(_subnormal_ar_box())
@settings(max_examples=150, deadline=None)
def test_find_params_stays_inside_the_bounds(case):
    _assert_inside_the_bounds(case, case[3])


# Twelve cycles: a quarter of the series is three cycles, past twice the
# warm-up, so budgets above 2 * (k + 1) run the coarse stage.
@given(bounded_searches(cycles=12, max_evals=60))
@settings(max_examples=100, deadline=None)
def test_two_stage_search_stays_inside_the_bounds(case):
    _assert_inside_the_bounds(case, None)
