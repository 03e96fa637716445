"""Rejection contracts: every operation's error clause fires as specified."""

from __future__ import annotations

import re
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from hwdims import (
    CalendarEvent,
    DataError,
    DimsSpec,
    FitInfeasibleError,
    ModelSpec,
    ModelState,
    OptimConfig,
    SeasonSpec,
    SmoothingParams,
    TimeSeries,
    aic,
    ape,
    build_dims,
    init_values,
    loess_smooth,
    mape,
    neutral_value,
    reduce_check,
    smooth_pass,
)
from hwdims.cli import load_artifact, main

from helpers import hourly_series


class TestParamValidation:
    @pytest.mark.parametrize("field,value", [
        ("alpha", -0.1), ("alpha", 1.5), ("gamma", 2.0), ("phi", -0.2),
    ])
    def test_weights_outside_unit_interval(self, field, value):
        kwargs = {"alpha": 0.1, field: value}
        with pytest.raises(ValueError, match=field):
            SmoothingParams(**kwargs)

    def test_seasonal_weight_bounds(self):
        with pytest.raises(ValueError, match="deltas"):
            SmoothingParams(alpha=0.1, deltas=(1.2,))
        with pytest.raises(ValueError, match="deltas_dims"):
            SmoothingParams(alpha=0.1, deltas_dims=(-0.5,))

    def test_ar1_open_interval(self):
        with pytest.raises(ValueError, match="ar1"):
            SmoothingParams(alpha=0.1, ar1=1.0)
        SmoothingParams(alpha=0.1, ar1=0.999)  # inside the open interval

    def test_unknown_trend_kind(self):
        with pytest.raises(ValueError, match="trend"):
            ModelSpec(trend="cubic")

    def test_neutral_elements(self):
        assert neutral_value("additive") == 0.0
        assert neutral_value("multiplicative") == 1.0


class TestEngineConsistencyChecks:
    def series(self):
        return hourly_series(100 + np.arange(48.0) % 7,
                             seasons=[SeasonSpec("daily", 24)])

    def test_wrong_delta_count(self):
        ts = self.series()
        spec = ModelSpec.for_series(ts)
        seeds = init_values(ts, spec)
        with pytest.raises(ValueError, match="deltas"):
            smooth_pass(ts, spec, SmoothingParams(alpha=0.1), seeds)

    def test_mode_mismatch(self):
        ts = self.series()
        spec = ModelSpec(trend="additive", season_modes=("additive",))
        seeds = init_values(ts, ModelSpec.for_series(ts))
        with pytest.raises(ValueError, match="mode"):
            smooth_pass(ts, spec, SmoothingParams(alpha=0.1, deltas=(0.1,)), seeds)

    def test_dims_mode_mismatch(self):
        # forecast reads the spec's mode, so a pass in the series' mode
        # would fit one model and forecast another
        ts = self.series().add_dims(DimsSpec("event", "multiplicative", 4, occurrences=(30,)))
        spec = ModelSpec.for_series(ts)
        seeds = init_values(ts, spec)
        wrong = ModelSpec(trend="additive", season_modes=spec.season_modes,
                          dims_modes=("additive",))
        params = SmoothingParams(alpha=0.1, deltas=(0.1,), deltas_dims=(0.1,))
        with pytest.raises(ValueError, match="dims 'event': spec mode 'additive' "
                                             "!= series mode 'multiplicative'"):
            smooth_pass(ts, wrong, params, seeds)

    @pytest.mark.parametrize("change, message", [
        ({"spec": ModelSpec(trend="additive", dims_modes=("multiplicative",))},
         "spec season_modes do not match series seasons"),
        ({"spec": ModelSpec(trend="additive", season_modes=("multiplicative",))},
         "spec dims_modes do not match series dims"),
        ({"params": SmoothingParams(alpha=0.1, deltas=(0.1,))}, "expected 1 dims deltas, got 0"),
        ({"dims": {}}, "state ring for dims 'event' missing or not of shape (4,)"),
        ({"dims": {"event": np.ones(3)}},
         "state ring for dims 'event' missing or not of shape (4,)"),
        ({"seasonal": {"daily": np.ones((24, 1))}},
         "state ring for season 'daily' missing or not of shape (24,)"),
    ], ids=["season-count", "dims-count", "dims-deltas", "dims-seeds", "dims-seed-length",
            "season-seed-shape"])
    def test_component_count_mismatch(self, change, message):
        ts = self.series().add_dims(DimsSpec("event", "multiplicative", 4, occurrences=(30,)))
        spec = ModelSpec.for_series(ts)
        seeds = replace(init_values(ts, spec),
                        **{key: change[key] for key in ("seasonal", "dims") if key in change})
        params = change.get("params", SmoothingParams(alpha=0.1, deltas=(0.1,),
                                                      deltas_dims=(0.1,)))
        with pytest.raises(ValueError, match=re.escape(message)):
            smooth_pass(ts, change.get("spec", spec), params, seeds)

    def test_missing_seed_ring(self):
        ts = self.series()
        spec = ModelSpec.for_series(ts)
        seeds = ModelState(level=100.0, trend=0.0)
        with pytest.raises(ValueError, match="state ring for season 'daily' missing"):
            smooth_pass(ts, spec, SmoothingParams(alpha=0.1, deltas=(0.1,)), seeds)

    def test_nonpositive_seed_level_infeasible(self):
        from hwdims import FitInfeasibleError
        ts = self.series()
        spec = ModelSpec.for_series(ts)
        seeds = ModelState(level=-5.0, trend=0.0, seasonal={"daily": np.ones(24)})
        with pytest.raises(FitInfeasibleError):
            smooth_pass(ts, spec, SmoothingParams(alpha=0.1, deltas=(0.1,)), seeds)

    @pytest.mark.parametrize("trend", [0.0, -1.02])
    def test_nonpositive_multiplicative_trend_seed_infeasible(self, trend):
        ts = self.series()
        spec = ModelSpec.for_series(ts, trend="multiplicative")
        seeds = ModelState(level=100.0, trend=trend, seasonal={"daily": np.ones(24)})
        with pytest.raises(FitInfeasibleError, match="multiplicative trend seed") as err:
            smooth_pass(ts, spec, SmoothingParams(alpha=0.1, deltas=(0.1,)), seeds)
        assert err.value.step == -1

    def test_multiplicative_trend_requires_positive_means(self):
        ts = hourly_series(np.full(16, -3.0),
                           seasons=[SeasonSpec("q", 4, mode="additive")])
        with pytest.raises(DataError, match="positive"):
            init_values(ts, ModelSpec.for_series(ts, trend="multiplicative"))

    def test_triple_seasonal_descriptor(self):
        spec = ModelSpec(trend="additive",
                         season_modes=("multiplicative",) * 3)
        assert "triple-seasonal" in reduce_check(spec)


class TestMetricEdges:
    def test_ape_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            ape([1.0, 2.0], [1.0])

    def test_mape_empty(self):
        with pytest.raises(ValueError, match="empty"):
            mape([], [])

    def test_aic_nonpositive_n(self):
        with pytest.raises(ValueError, match="n"):
            aic(1.0, 0, 1)


class TestOptimizerConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            OptimConfig(algorithm="gradient_descent")

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            OptimConfig(objective="mase")

    def test_nonpositive_budget(self):
        with pytest.raises(ValueError, match="max_evals"):
            OptimConfig(max_evals=0)

    def test_wrong_bounds_length(self):
        from hwdims import find_params
        ts = hourly_series(100 + np.arange(48.0) % 7,
                           seasons=[SeasonSpec("daily", 24)])
        spec = ModelSpec.for_series(ts)
        with pytest.raises(ValueError, match="bound pairs"):
            find_params(ts, spec, OptimConfig(bounds=((0, 1),)))


class TestLoessEdges:
    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            loess_smooth([], 7)

    def test_all_excluded_smooths_unmasked(self):
        # with no point left to fit from, the mask is dropped, as for a
        # cycle-subseries with every point excluded
        y = np.sin(np.arange(10.0)) + 0.3 * np.arange(10.0)
        np.testing.assert_array_equal(loess_smooth(y, 5, excluded=np.ones(10, bool)),
                                      loess_smooth(y, 5))


class TestCalendarValidation:
    def test_span_days_positive(self):
        with pytest.raises(ValueError, match="span_days"):
            CalendarEvent("x", date(2023, 1, 1), 0, "G")

    def test_steps_per_day_positive(self):
        # a step longer than a day leaves no whole step in a day
        ts = TimeSeries(values=np.ones(48), step=timedelta(days=3))
        with pytest.raises(ValueError, match="steps_per_day"):
            build_dims(ts, [])

    def test_event_off_step_grid_rejected(self):
        # 2-hour steps anchored at 01:00: midnights fall between steps.
        from datetime import datetime
        ts = TimeSeries(values=np.ones(48), step=timedelta(hours=2),
                        start=datetime(2023, 1, 2, 1))
        with pytest.raises(ValueError, match="step"):
            build_dims(ts, [CalendarEvent("x", date(2023, 1, 3), 1, "G")])


class TestCliValidation:
    def test_artifact_schema_version_checked(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"schema_version": 99}')
        with pytest.raises(DataError, match="schema version"):
            load_artifact(path)

    def test_dims_without_calendar_is_usage_error(self, tmp_path):
        (tmp_path / "d.csv").write_text(
            "timestamp,value\n2023-01-02T00:00:00,1\n2023-01-02T01:00:00,2\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data = d.csv\ndims = Holidays multiplicative neutral\n")
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_evaluate_requires_first_origin(self, tmp_path):
        (tmp_path / "d.csv").write_text(
            "timestamp,value\n" + "\n".join(
                f"2023-01-02T{h:02d}:00:00,{100 + h}" for h in range(24)) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data = d.csv\n")
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_calendar_group_with_no_events_is_data_error(self, tmp_path):
        rows = "\n".join(
            f"2023-01-0{2 + d}T{h:02d}:00:00,{100 + h}"
            for d in range(2) for h in range(24)
        )
        (tmp_path / "d.csv").write_text("timestamp,value\n" + rows + "\n")
        (tmp_path / "cal.csv").write_text("event_id,group,date_start,span_days\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "data = d.csv\ncalendar = cal.csv\n"
            "dims = Holidays multiplicative neutral\n"
        )
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_calendar_header_checked(self, tmp_path):
        from hwdims.cli import read_calendar_csv
        path = tmp_path / "cal.csv"
        path.write_text("name,when\n")
        with pytest.raises(DataError, match="header"):
            read_calendar_csv(path)
