"""CSV ingestion, configuration, commands, determinism and round-trips."""

from __future__ import annotations

import csv
import json
import logging
import re
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hwdims import (
    DataError, DimsSpec, ModelSpec, ModelState, SeasonSpec, SmoothingParams, forecast, mape,
    project_dims,
)
from hwdims import cli
from hwdims.cli import (
    _parse_timestamp, cmd_forecast, ingest, load_artifact, main, parse_config, read_calendar_csv,
    save_artifact,
)
from hwdims.hw import TREND_KINDS
from hwdims.timeseries import MODES, TimeSeries, read_csv

from helpers import hourly_series, smooth_daily_pattern


def write_hourly_csv(path, values, start=datetime(2023, 1, 2), skip=(), dup=()):
    """Write an hourly CSV, optionally skipping or duplicating given rows."""
    with open(path, "w") as fh:
        fh.write("timestamp,value\n")
        for i, v in enumerate(values):
            if i in skip:
                continue
            stamp = (start + i * timedelta(hours=1)).isoformat()
            fh.write(f"{stamp},{v}\n")
            if i in dup:
                fh.write(f"{stamp},{v + 2.0}\n")


# The reference logs through the CLI's logger, so its warnings compare one for one.
log = cli.log


def reference_ingest(path) -> TimeSeries:
    """Read a ``timestamp,value`` CSV into a gap-free series.

    Duplicate timestamps (clock-change repeats) are averaged; a single
    missing step is filled by linear interpolation; longer gaps are
    rejected. Timestamps must be ISO-8601 at a fixed nominal step.
    """
    rows: list[tuple[datetime, float]] = []
    for lineno, row in read_csv(path, "timestamp,value"):
        stamp = _parse_timestamp(row[0], lineno)
        try:
            value = float(row[1])
        except ValueError as exc:
            raise DataError(f"row {lineno}: unparseable value {row[1]!r}") from exc
        rows.append((stamp, value))
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows")

    for (prev, _), (cur, _) in zip(rows, rows[1:]):
        if cur < prev:
            raise DataError(f"non-monotone timestamps: {cur.isoformat()} after {prev.isoformat()}")

    # Average duplicate timestamps (daylight-saving fall-back produces them).
    deduped: list[tuple[datetime, float]] = []
    averaged = 0
    i = 0
    while i < len(rows):
        j = i
        total = 0.0
        while j < len(rows) and rows[j][0] == rows[i][0]:
            total += rows[j][1]
            j += 1
        if j - i > 1:
            averaged += 1
        deduped.append((rows[i][0], total / (j - i)))
        i = j

    diffs = [b[0] - a[0] for a, b in zip(deduped, deduped[1:])]
    step = min(diffs)
    if step <= timedelta(0):
        raise DataError("could not infer a positive step")

    values = [deduped[0][1]]
    interpolated = 0
    for (prev_t, prev_v), (cur_t, cur_v) in zip(deduped, deduped[1:]):
        gap = cur_t - prev_t
        steps, rem = divmod(gap, step)
        if rem:
            raise DataError(
                f"timestamp {cur_t.isoformat()} is not a whole number of steps "
                f"after {prev_t.isoformat()} (step {step})"
            )
        if steps > 2:
            raise DataError(
                f"gap of {steps - 1} missing steps between {prev_t.isoformat()} "
                f"and {cur_t.isoformat()}; at most one consecutive missing step is filled"
            )
        if steps == 2:
            values.append((prev_v + cur_v) / 2.0)
            interpolated += 1
            log.warning(
                "missing step at %s interpolated as %s",
                (prev_t + step).isoformat(), (prev_v + cur_v) / 2.0,
            )
        values.append(cur_v)
    if averaged:
        log.warning("averaged %d duplicated timestamp(s)", averaged)
    if interpolated:
        log.warning("interpolated %d missing step(s)", interpolated)
    return TimeSeries(values=np.array(values), step=step, start=deduped[0][0])


def ingest_outcome(reader, path):
    """What ``reader`` makes of ``path`` (the value bits, step and start, or
    the :class:`DataError` message) and the warnings it logs, in order."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    cli.log.addHandler(handler)
    try:
        ts = reader(path)
        result = (ts.values.tobytes(), ts.step, ts.start)
    except DataError as exc:
        result = str(exc)
    finally:
        cli.log.removeHandler(handler)
    return result, [r.getMessage() for r in records]


@st.composite
def hourly_files(draw):
    """Data lines of an hourly file on the grid from 2023-01-02: repeated
    timestamps (repeated rows and -0.0 among them), single and adjacent
    missing hours, stamps in UTC with ``Z``, ``+01:00`` or no suffix, and
    at times two neighbouring rows swapped. At most a third of the gaps are
    longer than an hour, so the most common gap is the shortest one."""
    n = draw(st.integers(2, 40))
    holes = draw(st.sets(st.integers(1, n - 2), max_size=(n - 1) // 3)) if n > 2 else set()
    value = st.one_of(st.sampled_from([0.0, -0.0, 2.5]), st.floats(-1e6, 1e6))
    lines = []
    for i in sorted(set(range(n)) - holes):
        stamp = datetime(2023, 1, 2) + timedelta(hours=i)
        for v in draw(st.lists(value, min_size=1, max_size=3)):
            suffix = draw(st.sampled_from(["", "Z", "+01:00"]))
            local = stamp + timedelta(hours=1) if suffix == "+01:00" else stamp
            lines.append(f"{local.isoformat()}{suffix},{v!r}")
    if draw(st.integers(0, 3)) == 0:
        j = draw(st.integers(0, len(lines) - 2))
        lines[j], lines[j + 1] = lines[j + 1], lines[j]
    return lines


class TestIngest:
    @given(hourly_files())
    @example(["2023-01-02T00:00:00,-0.0", "2023-01-02T01:00:00,1.0"])
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_row_loop(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("ingest") / "d.csv"
        path.write_text("timestamp,value\n" + "".join(line + "\n" for line in lines))
        assert ingest_outcome(ingest, path) == ingest_outcome(reference_ingest, path)

    def test_off_grid_row_is_a_data_error(self, tmp_path, capsys):
        # One half-hour row among hourly ones must not halve the step.
        path = tmp_path / "d.csv"
        write_hourly_csv(path, np.arange(48.0))
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(12, "2023-01-02T10:30:00,10.5\n")  # after 10:00
        path.write_text("".join(lines))
        message = ("timestamp 2023-01-02T10:30:00 is not a whole number of steps "
                   "after 2023-01-02T10:00:00 (step 1:00:00)")
        with pytest.raises(DataError, match=re.escape(message)):
            ingest(path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data = d.csv\nseason = 24 multiplicative ratio_to_ma\n")
        assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_step_is_the_shortest_of_equally_common_gaps(self, tmp_path):
        path = tmp_path / "d.csv"
        write_hourly_csv(path, [1.0, 2.0, 3.0, 4.0], skip=(2,))  # gaps of 1 h and 2 h
        ts = ingest(path)
        assert ts.step == timedelta(hours=1)
        assert ts.values.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_one_distinct_timestamp_is_a_data_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("timestamp,value\n" + "2023-01-02T00:00:00,1\n" * 3)
        with pytest.raises(DataError, match="need at least 2 distinct timestamps"):
            ingest(path)

    def test_clean_series(self, tmp_path):
        path = tmp_path / "d.csv"
        write_hourly_csv(path, np.arange(48.0))
        ts = ingest(path)
        assert len(ts) == 48
        assert ts.step == timedelta(hours=1)
        assert ts.values[10] == 10.0

    def test_single_missing_step_interpolated(self, tmp_path):
        path = tmp_path / "d.csv"
        values = [100.0, 100, 100, 100, 104, 100, 100, 100]
        write_hourly_csv(path, values, skip=(3,))
        # neighbours of the hole are 100 (index 2) and 104 (index 4)
        ts = ingest(path)
        assert len(ts) == 8
        assert ts.values[3] == pytest.approx(102.0)

    def test_two_consecutive_missing_steps_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_hourly_csv(path, np.arange(10.0), skip=(4, 5))
        with pytest.raises(DataError, match="2 missing steps"):
            ingest(path)

    def test_duplicate_timestamps_averaged(self, tmp_path):
        path = tmp_path / "d.csv"
        write_hourly_csv(path, np.full(6, 10.0), dup=(2,))
        ts = ingest(path)
        assert len(ts) == 6
        assert ts.values[2] == pytest.approx(11.0)

    def test_non_monotone_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        with open(path, "w") as fh:
            fh.write("timestamp,value\n")
            fh.write("2023-01-02T01:00:00,1\n")
            fh.write("2023-01-02T00:00:00,2\n")
        with pytest.raises(DataError, match="non-monotone"):
            ingest(path)

    def test_unparseable_row_reported_with_number(self, tmp_path):
        path = tmp_path / "d.csv"
        with open(path, "w") as fh:
            fh.write("timestamp,value\n")
            fh.write("2023-01-02T00:00:00,1\n")
            fh.write("not-a-date,2\n")
        with pytest.raises(DataError, match="row 3"):
            ingest(path)

    def test_bad_value_reported_with_number(self, tmp_path):
        path = tmp_path / "d.csv"
        with open(path, "w") as fh:
            fh.write("timestamp,value\n")
            fh.write("2023-01-02T00:00:00,1\n")
            fh.write("2023-01-02T01:00:00,oops\n")
        with pytest.raises(DataError, match="row 3"):
            ingest(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "d.csv"
        with open(path, "w") as fh:
            fh.write("time,load\n2023-01-02T00:00:00,1\n")
        with pytest.raises(DataError, match="header"):
            ingest(path)

    def test_utc_suffix_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        with open(path, "w") as fh:
            fh.write("timestamp,value\n")
            fh.write("2023-01-02T00:00:00Z,1\n")
            fh.write("2023-01-02T01:00:00Z,2\n")
        assert len(ingest(path)) == 2


class TestCalendarCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cal.csv"
        with open(path, "w") as fh:
            fh.write("event_id,group,date_start,span_days\n")
            fh.write("easter-2023,Easter,2023-04-06,4\n")
            fh.write("mayday,Holidays,2023-05-01,1\n")
        events = read_calendar_csv(path)
        assert len(events) == 2
        assert events[0].recurrence_group == "Easter"
        assert events[0].span_days == 4

    def test_bad_date_rejected(self, tmp_path):
        path = tmp_path / "cal.csv"
        with open(path, "w") as fh:
            fh.write("event_id,group,date_start,span_days\n")
            fh.write("x,G,June 1st,1\n")
        with pytest.raises(DataError, match="row 2"):
            read_calendar_csv(path)


# reader, header, two valid data rows
READERS = {
    "ingest": (ingest, "timestamp,value",
               ["2023-01-02T00:00:00,1", "2023-01-02T01:00:00,2"]),
    "calendar": (read_calendar_csv, "event_id,group,date_start,span_days",
                 ["a,G,2023-01-02,1", "b,G,2023-01-09,1"]),
}


@pytest.mark.parametrize("name", sorted(READERS))
class TestCsvReaders:
    def write(self, tmp_path, lines):
        path = tmp_path / "in.csv"
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def test_wrong_header_rejected(self, tmp_path, name):
        reader, header, rows = READERS[name]
        path = self.write(tmp_path, ["bogus,header,x,y", *rows])
        with pytest.raises(DataError, match=f"expected header '{header}'"):
            reader(path)

    def test_blank_lines_skipped(self, tmp_path, name):
        reader, header, rows = READERS[name]
        path = self.write(tmp_path, [header, rows[0], "", "   ", rows[1], ""])
        assert len(reader(path)) == 2

    def test_short_row_reported_with_number(self, tmp_path, name):
        reader, header, rows = READERS[name]
        path = self.write(tmp_path, [header, rows[0], "", "lonely"])
        columns = len(header.split(","))
        with pytest.raises(DataError, match=f"row 4: expected {columns} columns, got 1"):
            reader(path)


class TestConfig:
    def test_full_parse(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "# demand model\n"
            "data = demand.csv\n"
            "calendar = events.csv\n"
            "season = 24 multiplicative ratio_to_ma daily\n"
            "season = 168 multiplicative ratio_to_ma weekly\n"
            "dims = Holidays multiplicative neutral\n"
            "trend = additive\n"
            "damping = off\n"
            "ar = on\n"
            "objective = rmse\n"
            "max_evals = 500\n"
            "horizon = 24\n"
            "first_origin = 336\n"
        )
        cfg = parse_config(cfg_path)
        assert cfg.data == (tmp_path / "demand.csv").resolve()
        assert [s.id for s in cfg.seasons] == ["daily", "weekly"]
        assert cfg.dims[0].group == "Holidays"
        assert cfg.ar is True and cfg.damping is False
        assert cfg.optim.max_evals == 500
        assert cfg.first_origin == 336

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("data = d.csv\nwat = 7\n")
        from hwdims.cli import UsageError
        with pytest.raises(UsageError, match="wat"):
            parse_config(cfg_path)

    def test_missing_data_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("horizon = 4\n")
        from hwdims.cli import UsageError
        with pytest.raises(UsageError, match="data"):
            parse_config(cfg_path)

    BAD_VALUES = [
        ("policy = bogus", "policy", "bogus"),
        ("trend = bogus", "trend", "bogus"),
        ("algorithm = bogus", "algorithm", "bogus"),
        ("algorithm = pattern_search", "algorithm", "pattern_search"),
        ("objective = bogus", "objective", "bogus"),
        ("season = 168 bogus ratio_to_ma", "season", "bogus"),
        ("season = 168 multiplicative bogus", "season", "bogus"),
        ("dims = Holidays bogus neutral", "dims", "bogus"),
        ("dims = Holidays multiplicative bogus", "dims", "bogus"),
    ]

    @pytest.mark.parametrize("line, key, value", BAD_VALUES,
                             ids=[f"{line}-{key}" for line, key, _ in BAD_VALUES])
    def test_bad_enumerated_value_is_a_config_error(self, tmp_path, capsys, line, key, value):
        # The data file does not exist: exit 1 shows the value is checked
        # while the config is parsed, before any data is read (that is exit 2).
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "data = missing.csv\ncalendar = missing_events.csv\n"
            "season = 24 multiplicative ratio_to_ma\nfirst_origin = 48\n" + line + "\n"
        )
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and f"'{key}'" in err and f"'{value}'" in err

    @pytest.mark.parametrize("command", ["fit", "forecast", "decompose", "evaluate"])
    @pytest.mark.parametrize("key", ["max_evals", "horizon", "first_origin", "origin_step",
                                     "restarts", "rng_seed", "tolerance", "--seed"])
    def test_count_below_one_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                               key, command):
        # Also every other out-of-range search setting, as a config key or
        # as the --seed override.
        monkeypatch.setattr(cli, "ingest", lambda path: pytest.fail("data was read"))
        bad = {"restarts": ["0", "-4"], "rng_seed": ["-1"], "tolerance": ["nan", "-1"],
               "--seed": ["-1"]}.get(key, ["0"])
        for value in bad:
            settings = {"first_origin": "48"}
            argv = [command, "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "o")]
            if key == "--seed":
                argv += [key, value]
            else:
                settings[key] = value
            (tmp_path / "run.cfg").write_text(
                "data = demand.csv\nseason = 24 multiplicative ratio_to_ma\n"
                "algorithm = random_restart_nelder_mead\n"
                + "".join(f"{k} = {v}\n" for k, v in settings.items()))
            assert main(argv) == 1, value
            err = capsys.readouterr().err
            name = "rng_seed" if key == "--seed" else key
            assert "usage error" in err and f"{name} must be" in err, value

    @pytest.mark.parametrize("command", ["fit", "forecast", "decompose", "evaluate"])
    @pytest.mark.parametrize("line, message", [
        ("season = 24 additive difference_to_ma other", "duplicate season 'other' / cycle 24"),
        ("season = 168 multiplicative ratio_to_ma s24", "duplicate season 's24' / cycle 168"),
        ("dims = Holidays additive neutral", "duplicate dims group 'Holidays'"),
    ], ids=["cycle", "id", "dims"])
    def test_duplicate_declaration_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                     line, message, command):
        monkeypatch.setattr(cli, "ingest", lambda path: pytest.fail("data was read"))
        (tmp_path / "run.cfg").write_text(
            "data = demand.csv\ncalendar = events.csv\nfirst_origin = 48\n"
            "season = 24 multiplicative ratio_to_ma\n"
            "dims = Holidays multiplicative neutral\n" + line + "\n")
        argv = [command, "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and f"run.cfg:6: {message}" in err

    def test_evaluate_checks_first_origin_before_reading_data(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("data = missing.csv\nseason = 24 multiplicative ratio_to_ma\n")
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "first_origin" in capsys.readouterr().err


def demand_fixture(tmp_path, weeks=4, dips=()):
    n = 24 * 7 * weeks
    t = np.arange(n)
    rng = np.random.default_rng(5)
    daily = smooth_daily_pattern(amplitude=0.2)
    y = 100.0 * daily[t % 24] * (1 + 0.02 * np.sin(2 * np.pi * t / 168))
    y = y * (1 + rng.normal(0, 0.002, n))
    start = datetime(2023, 1, 2)
    for day in dips:
        y[day * 24:(day + 1) * 24] *= 0.85
    write_hourly_csv(tmp_path / "demand.csv", y, start=start)
    return y, start


def write_fit_config(tmp_path, extra=""):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "data = demand.csv\n"
        "season = 24 multiplicative ratio_to_ma daily\n"
        "trend = additive\n"
        "max_evals = 120\n"
        "tolerance = 1e-6\n"
        "horizon = 24\n"
        + extra
    )
    return cfg


class TestCommands:
    def test_fit_writes_artifact_and_accuracy(self, tmp_path):
        demand_fixture(tmp_path, weeks=2)
        cfg = write_fit_config(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        model = json.loads((out / "model.json").read_text())
        assert model["schema_version"] == 1
        for key in ("alpha", "gamma", "deltas", "deltas_dims", "phi", "ar1"):
            assert key in model["params"]
        assert len(model["state"]["seasonal"]["daily"]) == 24
        report = json.loads((out / "accuracy.json").read_text())
        assert report["mape"] < 1.0
        assert report["model"] == "classic multiplicative Holt-Winters"

    def test_fit_then_forecast_equals_inline(self, tmp_path):
        demand_fixture(tmp_path, weeks=2)
        cfg = write_fit_config(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["fit", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["forecast", "--config", str(cfg), "--out", str(out1),
                     "--model", str(out1 / "model.json")]) == 0
        assert main(["forecast", "--config", str(cfg), "--out", str(out2)]) == 0
        def read(path):
            with open(path) as fh:
                return [(r["timestamp"], float(r["forecast"]))
                        for r in csv.DictReader(fh)]
        saved = read(out1 / "forecast.csv")
        inline = read(out2 / "forecast.csv")
        assert [s for s, _ in saved] == [s for s, _ in inline]
        for (_, a), (_, b) in zip(saved, inline):
            assert a == pytest.approx(b, rel=1e-12)

    def test_forecast_from_model_reads_no_data(self, tmp_path):
        # a saved model carries its own state and calendar: the data file is
        # not read, so forecasting works without it
        demand_fixture(tmp_path, weeks=2)
        cfg = write_fit_config(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        model = ["--model", str(out / "model.json")]
        assert main(["forecast", "--config", str(cfg), "--out", str(tmp_path / "a"), *model]) == 0
        (tmp_path / "demand.csv").unlink()
        assert main(["forecast", "--config", str(cfg), "--out", str(tmp_path / "b"), *model]) == 0
        assert (tmp_path / "b" / "forecast.csv").read_text() == \
            (tmp_path / "a" / "forecast.csv").read_text()

    def test_forecast_applies_the_holiday_after_the_data(self, tmp_path):
        # The data end at the midnight before a holiday that the calendar
        # lists: the forecast of that day applies the holiday index seeded
        # from the four before it, inline and from the saved model alike.
        holidays = (2, 9, 16, 23, 28)
        y, start = demand_fixture(tmp_path, weeks=5, dips=holidays)
        cut = 28 * 24
        write_hourly_csv(tmp_path / "demand.csv", y[:cut], start=start)
        base = write_fit_config(tmp_path).read_text()

        def run(name, days):
            (tmp_path / f"{name}.csv").write_text("event_id,group,date_start,span_days\n" + "".join(
                f"d{d},Holidays,{(start + timedelta(days=d)).date()},1\n" for d in days))
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(base + f"calendar = {name}.csv\ndims = Holidays multiplicative stl_based\n")
            out = tmp_path / name
            assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
            assert main(["forecast", "--config", str(cfg), "--out", str(out),
                         "--model", str(out / "model.json")]) == 0
            assert main(["forecast", "--config", str(cfg), "--out", str(out / "inline")]) == 0
            saved = (out / "forecast.csv").read_text()
            assert (out / "inline" / "forecast.csv").read_text() == saved
            with open(out / "forecast.csv") as fh:
                values = np.array([float(r["forecast"]) for r in csv.DictReader(fh)])
            return json.loads((out / "model.json").read_text()), values

        model, with_holiday = run("with", holidays)
        model_without, without = run("without", holidays[:-1])
        # the block after the data changes no fitted number, only the forecast
        assert (model["params"], model["state"]) == (model_without["params"], model_without["state"])
        assert model["dims"][0]["occurrences"][-1] == cut
        assert not np.array_equal(with_holiday, without)
        truth = y[cut:cut + 24]
        assert mape(truth, with_holiday) < mape(truth, without)

    def test_forecast_csv_text(self, tmp_path):
        _, start = demand_fixture(tmp_path, weeks=2)
        cfg = write_fit_config(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["forecast", "--config", str(cfg), "--out", str(out),
                     "--model", str(out / "model.json")]) == 0
        spec, params, state, dims, _ = load_artifact(out / "model.json")
        values = forecast(state, spec, params, 24, project_dims(tuple(dims), state.position, 24))
        lines = ["timestamp,forecast"] + [
            f"{(start + timedelta(hours=state.position + k)).isoformat()},{float(v)!r}"
            for k, v in enumerate(values)
        ]
        assert (out / "forecast.csv").read_text() == "".join(line + "\n" for line in lines)

    def test_artifact_round_trip_is_exact(self, tmp_path):
        demand_fixture(tmp_path, weeks=2)
        cfg = write_fit_config(tmp_path)
        out = tmp_path / "out"
        main(["fit", "--config", str(cfg), "--out", str(out)])
        spec, params, state, dims, doc = load_artifact(out / "model.json")
        reloaded = json.loads((out / "model.json").read_text())
        assert reloaded["state"]["level"] == state.level
        assert reloaded["params"]["alpha"] == params.alpha

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_saved_artifact_forecasts_bit_for_bit(self, tmp_path_factory, data):
        # Season ids in reverse alphabetical order, one moving seasonality,
        # every trend kind, mode, damping and autocorrelation setting.
        draw = data.draw
        modes = [draw(st.sampled_from(MODES)) for _ in range(3)]
        length = draw(st.integers(1, 30))
        occurrences = tuple(sorted(draw(st.sets(st.integers(0, 10), max_size=4))))
        ts = hourly_series(np.full(24 * 20, 100.0),
                           seasons=[SeasonSpec("zz_daily", 24, mode=modes[0]),
                                    SeasonSpec("aa_week_part", 6, mode=modes[1])],
                           dims=[DimsSpec("event", modes[2], length,
                                          occurrences=tuple(40 * k for k in occurrences))])
        spec = ModelSpec.for_series(ts, trend=draw(st.sampled_from(TREND_KINDS)),
                                    damping_enabled=draw(st.booleans()),
                                    ar_adjustment_enabled=draw(st.booleans()))
        unit = st.floats(0.0, 1.0)
        params = SmoothingParams(alpha=draw(unit), gamma=draw(unit),
                                 deltas=(draw(unit), draw(unit)), deltas_dims=(draw(unit),),
                                 phi=draw(unit), ar1=draw(st.floats(-0.99, 0.99)))

        def index(size, mode):
            bounds = (0.1, 3.0) if mode == "multiplicative" else (-30.0, 30.0)
            return np.array(draw(st.lists(st.floats(*bounds), min_size=size, max_size=size)))

        state = ModelState(
            level=draw(st.floats(1.0, 1e4)),
            trend=draw(st.floats(0.5, 2.0) if spec.trend == "multiplicative"
                       else st.floats(-5.0, 5.0)),
            seasonal={"zz_daily": index(24, modes[0]), "aa_week_part": index(6, modes[1])},
            dims={"event": index(length, modes[2])},
            last_residual=draw(st.floats(-50.0, 50.0)),
            position=draw(st.integers(0, len(ts))),
        )
        horizon = draw(st.integers(1, 200))
        expected = forecast(state, spec, params, horizon,
                            project_dims(ts, state.position, horizon))
        path = tmp_path_factory.mktemp("artifact") / "model.json"
        save_artifact(path, ts, spec, params, state, 1.0)
        spec2, params2, state2, dims2, _doc = load_artifact(path)
        got = forecast(state2, spec2, params2, horizon,
                       project_dims(dims2, state2.position, horizon))
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("key, sid, size", [("seasonal", "daily", 24), ("dims", "event", 4)])
    def test_artifact_ring_of_wrong_length_is_a_data_error(self, tmp_path, key, sid, size):
        # A ring that does not match its declared cycle or block length
        # would otherwise forecast with the wrong cycle.
        ts = hourly_series(np.full(96, 100.0), seasons=[SeasonSpec("daily", 24)],
                           dims=[DimsSpec("event", "additive", 4, occurrences=(30,))])
        state = ModelState(level=100.0, trend=0.0, seasonal={"daily": np.ones(24)},
                           dims={"event": np.zeros(4)})
        params = SmoothingParams(alpha=0.5, deltas=(0.1,), deltas_dims=(0.1,))
        path = tmp_path / "model.json"
        save_artifact(path, ts, ModelSpec.for_series(ts), params, state, 1.0)
        doc = json.loads(path.read_text())
        for ring in ([1.0] * (size - 1), [1.0] * (size + 1), [[1.0] * size]):
            doc["state"][key][sid] = ring
            path.write_text(json.dumps(doc))
            with pytest.raises(DataError,
                               match=f"artifact state {key} {sid} must be a list of {size} numbers"):
                load_artifact(path)

    @pytest.mark.parametrize("key", ["season_modes", "dims_modes"])
    def test_artifact_spec_modes_must_match_its_components(self, tmp_path, key):
        # forecast reads the spec's modes; they must be the ones the state was fitted in
        ts = hourly_series(np.full(96, 100.0),
                           seasons=[SeasonSpec("daily", 24, mode="multiplicative")],
                           dims=[DimsSpec("event", "multiplicative", 4, occurrences=(30,))])
        state = ModelState(level=100.0, trend=0.0, seasonal={"daily": np.ones(24)},
                           dims={"event": np.ones(4)})
        params = SmoothingParams(alpha=0.5, deltas=(0.1,), deltas_dims=(0.1,))
        path = tmp_path / "model.json"
        save_artifact(path, ts, ModelSpec.for_series(ts), params, state, 1.0)
        doc = json.loads(path.read_text())
        for modes in (["additive"], ["multiplicative"] * 2, []):
            doc["spec"][key] = modes
            path.write_text(json.dumps(doc))
            with pytest.raises(DataError, match="artifact spec modes do not match"):
                load_artifact(path)

    def test_artifact_preserves_mixed_mode_season_order(self, tmp_path):
        # Ids chosen so alphabetical order inverts declaration order; with
        # one additive and one multiplicative ring, any reordering on load
        # would pair rings with the wrong modes.
        from hwdims import init_values, smooth_pass

        t = np.arange(24 * 7 * 3)
        y = 100 * (1 + 0.2 * np.sin(2 * np.pi * t / 24)) \
            + 5 * np.cos(2 * np.pi * t / 168)
        ts = hourly_series(y, seasons=[
            SeasonSpec("zz_daily", 24, mode="multiplicative"),
            SeasonSpec("aa_weekly", 168, mode="additive"),
        ])
        spec = ModelSpec.for_series(ts)
        params = SmoothingParams(alpha=0.2, gamma=0.01, deltas=(0.1, 0.1))
        fit = smooth_pass(ts, spec, params, init_values(ts, spec))
        expected = forecast(fit.final_state, spec, params, 48)
        path = tmp_path / "model.json"
        save_artifact(path, ts, spec, params, fit.final_state, fit.objective)
        spec2, params2, state2, _dims, _doc = load_artifact(path)
        assert list(state2.seasonal) == ["zz_daily", "aa_weekly"]
        got = forecast(state2, spec2, params2, 48)
        np.testing.assert_array_equal(got, expected)

    def test_decompose_writes_panels(self, tmp_path):
        demand_fixture(tmp_path, weeks=4, dips=(8, 15))
        cal = tmp_path / "events.csv"
        with open(cal, "w") as fh:
            fh.write("event_id,group,date_start,span_days\n")
            fh.write("d1,Holidays,2023-01-10,1\n")
            fh.write("d2,Holidays,2023-01-17,1\n")
        cfg = write_fit_config(
            tmp_path, extra="calendar = events.csv\ndims = Holidays multiplicative neutral\n"
        )
        out = tmp_path / "out"
        assert main(["decompose", "--config", str(cfg), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "dims_Holidays_locations.csv",
            "dims_Holidays_profile.csv",
            "original.csv",
            "remainder.csv",
            "seasonal_daily.csv",
            "trend.csv",
        ]

    @pytest.mark.parametrize("lines, names", [
        ("season = 24 multiplicative ratio_to_ma a/b\n"
         "season = 168 multiplicative ratio_to_ma a_b\n", "'seasonal_a_b'"),
        ("season = 24 multiplicative ratio_to_ma daily\ncalendar = events.csv\n"
         "dims = a/b multiplicative neutral\ndims = a_b multiplicative neutral\n", "'dims_a_b'"),
    ], ids=["seasons", "dims"])
    def test_decompose_clashing_panel_names_are_a_config_error(self, tmp_path, monkeypatch,
                                                                capsys, lines, names):
        # one panel file would overwrite the other; nothing is read or written
        monkeypatch.setattr(cli, "ingest", lambda path: pytest.fail("data was read"))
        (tmp_path / "run.cfg").write_text("data = demand.csv\n" + lines)
        out = tmp_path / "o"
        assert main(["decompose", "--config", str(tmp_path / "run.cfg"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "'a/b' and 'a_b'" in err and names in err
        assert list(out.iterdir()) == []

    def test_decompose_nested_cycles_log_no_warning(self, tmp_path, caplog):
        # 24 inside 168 never settles; the fixed MSTL schedule has no cap to hit
        demand_fixture(tmp_path, weeks=4)
        cfg = write_fit_config(tmp_path, extra="season = 168 multiplicative ratio_to_ma weekly\n")
        with caplog.at_level("WARNING"):
            assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []

    def test_evaluate_grid_shape(self, tmp_path):
        demand_fixture(tmp_path, weeks=2)  # 336 points
        cfg = write_fit_config(tmp_path, extra="first_origin = 168\norigin_step = 24\n")
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "grid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7 * 24  # origins 168..312
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["per_origin"]) == 7
        assert len(summary["per_horizon"]) == 24
        assert summary["grand_mape"] < 2.0

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        demand_fixture(tmp_path, weeks=2)
        cfg = write_fit_config(tmp_path, extra="first_origin = 168\n")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for command in ("fit", "forecast", "decompose", "evaluate"):
            assert main([command, "--config", str(cfg), "--out", str(out1),
                         "--seed", "9"]) == 0
            assert main([command, "--config", str(cfg), "--out", str(out2),
                         "--seed", "9"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_evaluate_with_refit_policy(self, tmp_path):
        demand_fixture(tmp_path, weeks=2)
        cfg = write_fit_config(
            tmp_path,
            extra="first_origin = 168\norigin_step = 84\npolicy = refit_per_origin\n",
        )
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["grand_mape"] < 2.0

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys
        result = subprocess.run(
            [sys.executable, "-m", "hwdims", "fit",
             "--config", str(tmp_path / "nope.cfg")],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert "usage error" in result.stderr

    def test_exit_codes(self, tmp_path):
        # usage error: missing config file
        assert main(["fit", "--config", str(tmp_path / "nope.cfg")]) == 1
        # data error: unreadable data path
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data = missing.csv\nseason = 24 multiplicative ratio_to_ma\n")
        assert main(["fit", "--config", str(cfg)]) == 2
        # usage error: unknown command is an argparse failure
        assert main(["frobnicate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_data_is_a_data_error(self, tmp_path, capsys, bad):
        y, _ = demand_fixture(tmp_path, weeks=2)
        write_hourly_csv(tmp_path / "demand.csv", [bad if i == 50 else v
                                                   for i, v in enumerate(y)])
        cfg = write_fit_config(tmp_path)
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_infeasible_fit_exit_code(self, tmp_path):
        n = 96
        y = np.resize([100.0, -100.0], n)  # sign flips break multiplicative fits
        write_hourly_csv(tmp_path / "demand.csv", y)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "data = demand.csv\n"
            "season = 24 multiplicative ratio_to_ma daily\n"
            "max_evals = 60\n"
        )
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    def test_seed_infeasibility_stops_the_search_at_once(self, tmp_path, capsys, monkeypatch):
        import hwdims.optimize as optimize

        calls = []
        real = optimize.smooth_pass

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimize, "smooth_pass", counted)
        write_hourly_csv(tmp_path / "demand.csv", np.resize([100.0, -100.0], 96))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "data = demand.csv\n"
            "season = 24 multiplicative ratio_to_ma daily\n"
            "max_evals = 200\n"
        )
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "seed level" in capsys.readouterr().err
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["fit", "forecast", "evaluate"])
    @pytest.mark.parametrize("bad", [0.0, -3.0])
    def test_nonpositive_observation_in_multiplicative_model_stops_at_once(
            self, tmp_path, capsys, monkeypatch, command, bad):
        import hwdims.optimize as optimize

        calls = []
        real = optimize.smooth_pass

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimize, "smooth_pass", counted)
        y, _ = demand_fixture(tmp_path, weeks=3)
        y[200] = bad
        write_hourly_csv(tmp_path / "demand.csv", y)
        cfg = write_fit_config(tmp_path, "first_origin = 336\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "positive observations" in err and "observation 200" in err
        # evaluate checks the series before its search; fit and forecast stop
        # at the search's first pass
        assert len(calls) == (0 if command == "evaluate" else 1)

    @pytest.mark.parametrize("policy", ["fixed", "refit_per_origin"])
    def test_nonpositive_reading_after_first_origin_stops_evaluate_before_search(
            self, tmp_path, capsys, monkeypatch, policy):
        # The fixed policy searches the first origin's window alone, which
        # is clean; the reading at 400 lies between the first and the last
        # origin (336 and 480).
        import hwdims.optimize as optimize

        calls = []
        real = optimize.smooth_pass

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimize, "smooth_pass", counted)
        y, _ = demand_fixture(tmp_path, weeks=3)
        y[400] = 0.0
        write_hourly_csv(tmp_path / "demand.csv", y)
        cfg = write_fit_config(tmp_path, f"first_origin = 336\npolicy = {policy}\n")
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "positive observations" in err and "observation 400 is 0.0" in err
        assert calls == []

    @pytest.mark.parametrize("key", [
        "alpha", "phi", "[]", "null", "state=5",
        "seasons=5", "dims={}", "state.seasonal=5", "state.dims=[]", "state.seasonal.daily",
        "state.seasonal.daily=5", "state.seasonal.daily=[1.0]", 'state.level="abc"',
        "state.trend=null",
        "state.last_residual=[]", "state.position=1.5", "state.position=true",
        "series=5", "series.start=5", "series.step_seconds=null",
    ])
    def test_artifact_missing_params_key_is_a_data_error(self, tmp_path, key):
        # Also well-formed JSON that is not an object where one is expected,
        # a missing ring and a field of the wrong JSON type below the top level.
        demand_fixture(tmp_path, weeks=2)
        cfg = write_fit_config(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        model = out / "model.json"
        doc = json.loads(model.read_text())
        if key in ("alpha", "phi"):
            del doc["params"][key]
            match = key
        elif key == "state.seasonal.daily":
            del doc["state"]["seasonal"]["daily"]
            match = "state seasonal daily must be a JSON list, not NoneType"
        elif "=" in key:
            path, value = key.split("=")
            *parents, leaf = path.split(".")
            node = doc
            for name in parents:
                node = node[name]
            node[leaf] = json.loads(value)
            match = f"artifact {path.replace('.', ' ')} must be a"
        else:
            doc = json.loads(key)
            match = "artifact must be a JSON object"
        model.write_text(json.dumps(doc))
        if key.startswith("series"):  # read by the forecast command
            with pytest.raises(DataError, match=match):
                cmd_forecast(parse_config(cfg), out, model)
        else:
            with pytest.raises(DataError, match=match):
                load_artifact(model)
        assert main(["forecast", "--config", str(cfg), "--out", str(out),
                     "--model", str(model)]) == 2
