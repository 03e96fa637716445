"""Acceptance suite.

Each test prints one PASS line once its criterion holds; a pytest failure is
the corresponding FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria:
 1. Classic-method equivalence: the generalized engine configured as one
    multiplicative seasonality (s=24, undamped, no AR) matches an
    independently coded classic recursion on 336 fitted points and 24
    forecasts to 1e-9 relative, in under a second.
 2. Neutral moving seasonality with zero weight changes nothing, exactly.
 3. Parameter recovery on a generated two-seasonal process (known weights,
    known noise): post-warm-up RMSE within 1.1 sigma, 24-ahead MAPE within
    3x the in-sample MAPE, under 60 s.
 4. Moving-seasonality efficacy on two years of shocked hourly data:
    special-day 24-ahead MAPE at least 30% below the same model without the
    moving index, and below 5% absolute, under 5 min.
 5. Decomposition reconstruction identity to 1e-9 on all fixtures, and an
    injected bump profile recovered within 5%.
 6. Optimizer: Rosenbrock to (1,1) within 1e-4 in at most 5000 evaluations;
    1000 randomized searches never return out-of-bounds parameters.
 7. Accuracy metrics match hand-computed values to 1e-12.
 8. CLI determinism (byte-identical reruns) and exact fit/save/forecast
    round-trip to 1e-12 relative.
"""

from __future__ import annotations

import math
import time

import numpy as np

from hwdims import (
    DimsSpec,
    ModelSpec,
    OptimConfig,
    SeasonSpec,
    SmoothingParams,
    accuracy,
    aic,
    ape,
    default_bounds,
    find_params,
    forecast,
    init_values,
    mape,
    mstl,
    nelder_mead,
    project_dims,
    rmse,
    smooth_pass,
)

from helpers import (
    classic_hw,
    classic_hw_seeds,
    hourly_series,
    shocked_two_year_series,
    simulate_double_seasonal,
)


def report(n, label):
    print(f"\nACCEPTANCE PASS: criterion {n} - {label}")


def test_criterion_1_classic_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    t = np.arange(336)
    y = (60 + 0.01 * t) * (1 + 0.25 * np.sin(2 * np.pi * t / 24)) \
        + rng.normal(0, 0.4, 336)
    ts = hourly_series(y, seasons=[SeasonSpec("daily", 24)])
    spec = ModelSpec.for_series(ts)  # additive trend, phi forced 1, no AR
    seeds = init_values(ts, spec)
    params = SmoothingParams(alpha=0.35, gamma=0.04, deltas=(0.25,))
    fit = smooth_pass(ts, spec, params, seeds)
    fc = forecast(fit.final_state, spec, params, 24)

    level0, trend0, ring0 = classic_hw_seeds(y, 24)
    oracle_fit, _, oracle_fc, *_ = classic_hw(
        y, 24, 0.35, 0.04, 0.25, level0, trend0, ring0, horizon=24
    )
    rel_fit = np.max(np.abs(fit.fitted - oracle_fit) / np.abs(oracle_fit))
    rel_fc = np.max(np.abs(fc - oracle_fc) / np.abs(oracle_fc))
    elapsed = time.perf_counter() - started
    assert rel_fit <= 1e-9, f"fitted values deviate by {rel_fit}"
    assert rel_fc <= 1e-9, f"forecasts deviate by {rel_fc}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"classic equivalence (max rel dev {max(rel_fit, rel_fc):.2e}, "
              f"{elapsed * 1000:.0f} ms)")


def test_criterion_2_neutral_dims_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(43)
    t = np.arange(480)
    y = 100 * (1 + 0.2 * np.sin(2 * np.pi * t / 24)) + rng.normal(0, 1, 480)
    plain = hourly_series(y, seasons=[SeasonSpec("daily", 24)])
    spiked = plain.add_dims(
        DimsSpec("noop", "multiplicative", 24, occurrences=(96, 288))
    )
    seeds = init_values(plain, ModelSpec.for_series(plain))
    seeds_spiked = seeds.copy()
    seeds_spiked.dims["noop"] = np.ones(24)
    fit_plain = smooth_pass(
        plain, ModelSpec.for_series(plain),
        SmoothingParams(alpha=0.3, gamma=0.05, deltas=(0.2,)), seeds,
    )
    fit_spiked = smooth_pass(
        spiked, ModelSpec.for_series(spiked),
        SmoothingParams(alpha=0.3, gamma=0.05, deltas=(0.2,), deltas_dims=(0.0,)),
        seeds_spiked,
    )
    assert (fit_plain.fitted == fit_spiked.fitted).all()
    assert (fit_plain.one_step_errors == fit_spiked.one_step_errors).all()
    assert fit_plain.final_state.level == fit_spiked.final_state.level
    assert fit_plain.final_state.trend == fit_spiked.final_state.trend
    fc_plain = forecast(fit_plain.final_state, ModelSpec.for_series(plain),
                        SmoothingParams(alpha=0.3, gamma=0.05, deltas=(0.2,)), 48)
    fc_spiked = forecast(
        fit_spiked.final_state, ModelSpec.for_series(spiked),
        SmoothingParams(alpha=0.3, gamma=0.05, deltas=(0.2,), deltas_dims=(0.0,)),
        48, project_dims(spiked, 480, 48),
    )
    assert (fc_plain == fc_spiked).all()
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, f"neutral moving seasonality is exactly invisible ({elapsed * 1000:.0f} ms)")


def test_criterion_3_parameter_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(12345)
    sigma = 1.0
    n_fit = 24 * 7 * 8  # 8 weeks hourly
    y = simulate_double_seasonal(
        n_fit + 24, alpha=0.2, gamma=0.05, deltas=(0.3, 0.2), sigma=sigma,
        rng=rng, level0=100.0, trend0=0.002,
    )
    ts = hourly_series(y[:n_fit], seasons=[SeasonSpec("daily", 24),
                                           SeasonSpec("weekly", 168)])
    spec = ModelSpec.for_series(ts)
    params, fit = find_params(ts, spec, OptimConfig(max_evals=400, tolerance=1e-6))
    in_sample = accuracy(fit)
    fc = forecast(fit.final_state, spec, params, 24)
    holdout_mape = mape(y[n_fit:n_fit + 24], fc)
    elapsed = time.perf_counter() - started
    assert fit.objective <= 1.1 * sigma, f"RMSE {fit.objective} > {1.1 * sigma}"
    assert holdout_mape <= 3 * in_sample.mape, (
        f"24-ahead MAPE {holdout_mape} > 3x in-sample {in_sample.mape}"
    )
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(3, f"recovery RMSE {fit.objective:.3f} <= {1.1 * sigma:.2f}, "
              f"24-ahead/in-sample MAPE {holdout_mape / in_sample.mape:.2f}x "
              f"({elapsed:.1f} s)")


def test_criterion_4_dims_efficacy():
    started = time.perf_counter()
    rng = np.random.default_rng(777)
    y, occurrences = shocked_two_year_series(rng, shock=0.85)
    fit_n = 364 * 24
    year2 = [o for o in occurrences if o >= fit_n]
    assert len(year2) == 10
    seasons = [SeasonSpec("daily", 24), SeasonSpec("weekly", 168)]
    with_dims = hourly_series(y, seasons=seasons).add_dims(
        DimsSpec("holidays", "multiplicative", 24,
                 occurrences=tuple(occurrences), init_method="ratio_to_ma")
    )
    without = hourly_series(y, seasons=seasons)
    spec_dims = ModelSpec.for_series(with_dims)
    spec_plain = ModelSpec.for_series(without)
    config = OptimConfig(max_evals=300, tolerance=1e-5)

    seeds_dims = init_values(with_dims.prefix(fit_n), spec_dims)
    params_dims, _ = find_params(with_dims.prefix(fit_n), spec_dims, config,
                                 seeds=seeds_dims)
    seeds_plain = init_values(without.prefix(fit_n), spec_plain)
    params_plain, _ = find_params(without.prefix(fit_n), spec_plain, config,
                                  seeds=seeds_plain)

    def special_day_mape(ts, spec, params, seeds):
        actual, predicted = [], []
        for occ in year2:
            fit = smooth_pass(ts.prefix(occ), spec, params, seeds)
            fc = forecast(fit.final_state, spec, params, 24,
                          project_dims(ts, occ, 24))
            actual.append(ts.values[occ:occ + 24])
            predicted.append(fc)
        return mape(np.concatenate(actual), np.concatenate(predicted))

    mape_dims = special_day_mape(with_dims, spec_dims, params_dims, seeds_dims)
    mape_plain = special_day_mape(without, spec_plain, params_plain, seeds_plain)
    elapsed = time.perf_counter() - started
    assert mape_dims < 5.0, f"special-day MAPE {mape_dims:.2f}% >= 5%"
    assert mape_dims <= 0.7 * mape_plain, (
        f"reduction only {(1 - mape_dims / mape_plain) * 100:.0f}%"
    )
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    report(4, f"special-day MAPE {mape_dims:.2f}% vs {mape_plain:.2f}% without "
              f"({(1 - mape_dims / mape_plain) * 100:.0f}% lower, {elapsed:.0f} s)")


def test_criterion_5_decomposition_identity_and_profile():
    fixtures = []
    # constant
    fixtures.append(hourly_series(np.full(96, 5.0),
                                  seasons=[SeasonSpec("daily", 24, mode="additive")]))
    # sinusoid
    t = np.arange(240)
    fixtures.append(hourly_series(5 * np.sin(2 * np.pi * t / 24),
                                  seasons=[SeasonSpec("daily", 24, mode="additive")]))
    # ramp
    fixtures.append(hourly_series(2 + 0.25 * np.arange(64),
                                  seasons=[SeasonSpec("q", 4, mode="additive")]))
    # two seasonalities + one moving seasonality with an injected bump;
    # occurrence days staggered across weekdays so no weekly slot is
    # starved of event-free cycles
    rng = np.random.default_rng(99)
    t = np.arange(24 * 7 * 10)
    y = (150 + 0.01 * t + 9 * np.sin(2 * np.pi * t / 24)
         + 4 * np.cos(2 * np.pi * t / 168) + rng.normal(0, 0.3, len(t)))
    occurrences = tuple(24 * d for d in (6, 10, 15, 23, 27, 32, 40, 44, 49, 57))
    for occ in occurrences:
        y[occ:occ + 24] += 10.0
    bumped = hourly_series(y, seasons=[
        SeasonSpec("daily", 24, mode="additive"),
        SeasonSpec("weekly", 168, mode="additive"),
    ], dims=[DimsSpec("holiday", "additive", 24, occurrences=occurrences)])
    fixtures.append(bumped)

    worst = 0.0
    for ts in fixtures:
        result = mstl(ts)
        err = np.max(np.abs(result.reconstruction() - ts.values))
        worst = max(worst, err)
        assert err <= 1e-9, f"reconstruction error {err}"
    profile = mstl(bumped).dims_profiles["holiday"]
    assert np.all(np.abs(profile - 10.0) <= 0.5), (
        f"profile range [{profile.min():.3f}, {profile.max():.3f}] outside 10 +/- 5%"
    )
    report(5, f"reconstruction identity (worst {worst:.2e}), bump profile "
              f"[{profile.min():.2f}, {profile.max():.2f}] within 5% of 10")


def test_criterion_6_optimizer_oracle_and_bounds_fuzz():
    def rosenbrock(x):
        return (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

    result = nelder_mead(rosenbrock, [-1.2, 1.0],
                         OptimConfig(max_evals=5000, tolerance=1e-12))
    assert result.evals <= 5000
    assert abs(result.x[0] - 1.0) <= 1e-4 and abs(result.x[1] - 1.0) <= 1e-4

    rng = np.random.default_rng(2024)
    algorithms = ("nelder_mead", "random_restart_nelder_mead")
    checked = 0
    for case in range(1000):
        cycle = int(rng.choice([4, 6, 8]))
        mode = "multiplicative" if rng.random() < 0.7 else "additive"
        n = 6 * cycle
        y = rng.uniform(50.0, 150.0, n)
        seasons = [SeasonSpec("c", cycle, mode=mode)] if rng.random() < 0.85 else []
        ts = hourly_series(y, seasons=seasons)
        spec = ModelSpec.for_series(
            ts,
            trend=str(rng.choice(["additive", "none", "multiplicative"])),
            damping_enabled=bool(rng.random() < 0.3),
            ar_adjustment_enabled=bool(rng.random() < 0.3),
        )
        hard = default_bounds(ts, spec)
        bounds = []
        for lo, hi in hard:
            width = hi - lo
            a = lo + rng.uniform(0.0, 0.45) * width
            b = a + max(0.1 * width, rng.uniform(0.1, 0.55) * width)
            bounds.append((a, min(b, hi)))
        config = OptimConfig(
            algorithm=str(rng.choice(algorithms)),
            objective=str(rng.choice(["rmse", "mape"])),
            max_evals=int(rng.integers(20, 45)),
            tolerance=1e-3,
            bounds=tuple(bounds),
            restarts=2,
            rng_seed=int(rng.integers(0, 2 ** 31)),
        )
        params, _ = find_params(ts, spec, config)
        vector = [params.alpha, params.gamma, *params.deltas, *params.deltas_dims]
        if spec.damping_enabled:
            vector.append(params.phi)
        if spec.ar_adjustment_enabled:
            vector.append(params.ar1)
        for value, (lo, hi) in zip(vector, bounds):
            assert lo - 1e-12 <= value <= hi + 1e-12, (
                f"case {case}: {value} outside [{lo}, {hi}]"
            )
        checked += 1
    assert checked == 1000
    report(6, f"Rosenbrock in {result.evals} evals; {checked} fuzz cases in bounds")


def test_criterion_7_metric_formulas():
    assert rmse([1, 2, 3], [1, 2, 3]) == 0.0
    assert abs(rmse([0, 0], [3, 4]) - math.sqrt(12.5)) <= 1e-12
    assert abs(rmse([2], [5]) - 3.0) <= 1e-12
    assert mape([5.0, 7.0], [5.0, 7.0]) == 0.0
    assert abs(mape([100, 200], [110, 190]) - 7.5) <= 1e-12
    assert abs(mape([50], [75]) - 50.0) <= 1e-12
    assert abs(ape([100], [110])[0] - 10.0) <= 1e-12
    assert (ape([4.0, 5.0], [4.0, 5.0]) == 0.0).all()
    assert abs(aic(sse=4 * math.e ** 2, n=4, k_params=0) - 8.0) <= 1e-12
    assert abs(aic(10.0, 20, 4) - (aic(10.0, 20, 3) + 2.0)) <= 1e-12
    report(7, "metric formulas match hand-computed values to 1e-12")


def test_criterion_8_cli_determinism_and_round_trip(tmp_path):
    from test_cli import demand_fixture, write_fit_config
    from hwdims.cli import main

    demand_fixture(tmp_path, weeks=3)
    cfg = write_fit_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["fit", "--config", str(cfg), "--out", str(out1), "--seed", "7"]) == 0
    assert main(["fit", "--config", str(cfg), "--out", str(out2), "--seed", "7"]) == 0
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("model.json", "accuracy.json")
    )
    assert identical, "repeated fit runs are not byte-identical"

    assert main(["forecast", "--config", str(cfg), "--out", str(out1),
                 "--model", str(out1 / "model.json")]) == 0
    assert main(["forecast", "--config", str(cfg), "--out", str(out2)]) == 0

    import csv
    def read(path):
        with open(path) as fh:
            return np.array([float(r["forecast"]) for r in csv.DictReader(fh)])

    saved = read(out1 / "forecast.csv")
    inline = read(out2 / "forecast.csv")
    rel = np.max(np.abs(saved - inline) / np.abs(inline))
    assert rel <= 1e-12, f"round-trip deviation {rel}"
    report(8, f"byte-identical reruns; save/load round-trip rel dev {rel:.1e}")
