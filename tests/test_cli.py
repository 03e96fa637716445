"""CSV ingestion, configuration, commands, determinism and round-trips."""

from __future__ import annotations

import copy
import csv
import functools
import json
import logging
import re
import tempfile
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hwdims.evaluate
import hwdims.timeseries
from hwdims import (
    DataError, DimsSpec, ModelSpec, ModelState, SeasonSpec, SmoothingParams, forecast, mape,
    project_dims,
)
from hwdims import cli
from hwdims.cli import (
    _parse_timestamp, ingest, load_artifact, main, parse_config, read_calendar_csv,
    save_artifact,
)
from hwdims.hw import TREND_KINDS
from hwdims.timeseries import MODES, TimeSeries, read_csv

from helpers import HOUR, hourly_series, smooth_daily_pattern


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

    def test_one_row_is_a_data_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("timestamp,value\n2023-01-02T00:00:00,1\n")
        with pytest.raises(DataError, match="need at least 2 data rows"):
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
        ("season = 168 multiplicative stl_based", "season", "stl_based"),
        ("dims = Holidays multiplicative stl_based", "dims", "stl_based"),
        ("dims = Holidays additive ratio_to_ma", "dims", "ratio_to_ma"),
        ("max_evals = lots", "max_evals", "lots"),
        ("damping = maybe", "damping", "maybe"),
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

    @pytest.mark.parametrize("command", ["fit", "forecast", "decompose", "evaluate"])
    def test_dims_without_calendar_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                     command):
        monkeypatch.setattr(cli, "ingest", lambda path: pytest.fail("data was read"))
        (tmp_path / "run.cfg").write_text(
            "data = nothere.csv\nfirst_origin = 48\n"
            "season = 24 multiplicative ratio_to_ma\n"
            "dims = Holidays multiplicative neutral\n")
        argv = [command, "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "dims declared but no calendar" in err

    def test_evaluate_checks_first_origin_before_reading_data(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("data = missing.csv\nseason = 24 multiplicative ratio_to_ma\n")
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "first_origin" in capsys.readouterr().err

    @pytest.mark.parametrize("first_origin", [200, 300, 335])
    def test_first_origin_below_two_longest_cycles_is_a_config_error(
            self, tmp_path, monkeypatch, capsys, first_origin):
        # The seeds of the first origin's window need two cycles of the
        # longest season; the config alone says whether it has them.
        monkeypatch.setattr(cli, "ingest", lambda path: pytest.fail("data was read"))
        (tmp_path / "run.cfg").write_text(
            "data = missing.csv\nseason = 24 multiplicative ratio_to_ma\n"
            f"season = 168 multiplicative ratio_to_ma\nfirst_origin = {first_origin}\n")
        argv = ["evaluate", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and f"first_origin {first_origin} is below two cycles " \
            "of the longest season (336)" in err

    def test_first_origin_of_two_longest_cycles_reads_the_data(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text(
            "data = missing.csv\nseason = 168 multiplicative ratio_to_ma\nfirst_origin = 336\n")
        argv = ["evaluate", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "missing.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("season 24 multiplicative ratio_to_ma", "expected 'key = value'"),
        ("season = 24 multiplicative", "season needs 'cycle mode init_method [id]'"),
        ("season = daily multiplicative ratio_to_ma", "bad cycle length 'daily'"),
        ("dims = Holidays multiplicative", "dims needs 'group mode init_method'"),
        ("horizon = 12", "duplicate key 'horizon'"),
    ], ids=["no-equals", "season-fields", "season-cycle", "dims-fields", "duplicate-key"])
    def test_syntax_error_names_its_line(self, tmp_path, monkeypatch, capsys, line, message):
        monkeypatch.setattr(cli, "ingest", lambda path: pytest.fail("data was read"))
        (tmp_path / "run.cfg").write_text("data = demand.csv\nhorizon = 24\n" + line + "\n")
        argv = ["fit", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and f"run.cfg:3: {message}" in err


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


@functools.cache
def property_model_doc() -> dict:
    """The ``model.json`` of the artifact property: a damped model with AR(1)
    term, a daily season and a moving seasonality whose block at 100 falls
    inside the 48 steps after position 96."""
    ts = hourly_series(np.full(96, 100.0), seasons=[SeasonSpec("daily", 24)],
                       dims=[DimsSpec("event", "multiplicative", 4, occurrences=(30, 100))])
    state = ModelState(level=100.0, trend=0.5, seasonal={"daily": np.linspace(0.8, 1.2, 24)},
                       dims={"event": np.full(4, 0.9)}, last_residual=1.5, position=96)
    params = SmoothingParams(alpha=0.5, gamma=0.1, deltas=(0.1,), deltas_dims=(0.2,),
                             phi=0.9, ar1=0.3)
    spec = ModelSpec.for_series(ts, damping_enabled=True, ar_adjustment_enabled=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_artifact(path, ts, spec, params, state, 1.0)
        return json.loads(path.read_text())


def json_fields(node, prefix=()):
    """The path of every field of a JSON document, at any depth."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from json_fields(child, prefix + (key,))


_NUMBER = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
_SCALAR = st.none() | st.booleans() | st.text(max_size=8) | _NUMBER
_JSON_KINDS = {
    type(None): st.none(), bool: st.booleans(), str: st.text(max_size=8),
    float: _NUMBER, list: st.lists(_SCALAR, max_size=30),
    dict: st.dictionaries(st.text(max_size=8), _SCALAR, max_size=4),
}


@st.composite
def field_edits(draw):
    """A field of :func:`property_model_doc` and a JSON value of another kind
    for it: where an integer is stored, a number written with a fraction
    (``4.0`` for ``4``) counts as one."""
    doc = property_model_doc()
    path = draw(st.sampled_from(list(json_fields(doc))))
    old = doc
    for key in path:
        old = old[key]
    kind = float if type(old) is int else type(old)
    others = [strategy for k, strategy in _JSON_KINDS.items() if k is not kind]
    if type(old) is int:
        others.append(st.floats(allow_nan=False, allow_infinity=False)
                      | st.integers(-100, 100).map(float))
    return path, draw(st.one_of(others))


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
            cfg.write_text(base + f"calendar = {name}.csv\ndims = Holidays multiplicative ratio_to_ma\n")
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
        spec, params, state, dims, (start, step) = load_artifact(out / "model.json")
        assert (start, step) == (datetime(2023, 1, 2), timedelta(hours=1))
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
        spec2, params2, state2, dims2, _clock = load_artifact(path)
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
        kind = "season" if key == "seasonal" else "dims"
        for ring in ([1.0] * (size - 1), [1.0] * (size + 1), [[1.0] * size]):
            doc["state"][key][sid] = ring
            path.write_text(json.dumps(doc))
            with pytest.raises(DataError, match=f"malformed artifact: state ring for {kind} "
                                                f"'{sid}' missing or not of shape \\({size},\\)"):
                load_artifact(path)

    @pytest.mark.parametrize("path, value, match", [
        ("spec.bogus", 1, "malformed artifact ModelSpec"),
        ("params.alpha", "high", "malformed artifact SmoothingParams"),
        ("params.deltas", 5, "malformed artifact SmoothingParams"),
        ("state.seasonal.daily", ["x"] * 24,
         "malformed artifact: could not convert string to float: 'x'"),
        ("state.dims.event", [[1.0], 2.0, 3.0, 4.0],
         "malformed artifact: setting an array element with a sequence"),
        ("spec.trend", "bogus", "malformed artifact ModelSpec: unknown trend kind 'bogus'"),
        ("params.alpha", 2.0, r"malformed artifact SmoothingParams: alpha=2.0 outside \[0, 1\]"),
        ("seasons.0.id", ["daily"], "malformed artifact SeasonSpec: season id must be a string, "
                                    "not list"),
        ("dims.0.length", 4.0, "malformed artifact DimsSpec: dims 'event': length must be an "
                               "integer, not float"),
        ("params.deltas", [0.1, 0.1], "malformed artifact: expected 1 seasonal deltas, got 2"),
        ("dims.0.occurrences", [30.7], "malformed artifact DimsSpec: dims 'event': occurrence "
                                       "start must be an integer, not float"),
        ("dims.0.occurrences", ["30"], "occurrence start must be an integer, not str"),
        ("dims.0.occurrences", [True], "occurrence start must be an integer, not bool"),
        ("spec.damping_enabled", [], "malformed artifact ModelSpec: damping_enabled must be a "
                                     "bool, not list"),
        ("spec.ar_adjustment_enabled", 1, "ar_adjustment_enabled must be a bool, not int"),
        ("seasons.0.init_method", "stl_based",
         "malformed artifact SeasonSpec: season 'daily': unknown init_method 'stl_based'"),
        ("dims.0.init_method", "stl_based",
         "malformed artifact DimsSpec: dims 'event': unknown init_method 'stl_based'"),
        ("series.step_seconds", 1e300, "malformed artifact: Python int too large"),
        ("series.step_seconds", -3600, "malformed artifact: step must be a positive duration, "
                                       "not -1 day, 23:00:00"),
        ("series.step_seconds", 0, "malformed artifact: step must be a positive duration"),
        ("series.start", "2023-01-02T00:00:00+01:00",
         r"malformed artifact: start 2023-01-02T00:00:00\+01:00 must be naive"),
        ("series.start", "tomorrow", "malformed artifact: Invalid isoformat string"),
    ], ids=["spec-field", "params-type", "params-deltas", "ring-text", "ring-ragged",
            "spec-trend", "params-range", "season-id", "dims-length", "delta-count",
            "dims-start-float", "dims-start-text", "dims-start-bool", "spec-damping",
            "spec-ar", "season-stl-based", "dims-stl-based", "step-overflow", "step-negative",
            "step-zero", "start-aware", "start-text"])
    def test_artifact_field_of_wrong_kind_is_a_data_error(self, tmp_path, capsys, path, value,
                                                          match):
        ts = hourly_series(np.full(96, 100.0), seasons=[SeasonSpec("daily", 24)],
                           dims=[DimsSpec("event", "additive", 4, occurrences=(30,))])
        state = ModelState(level=100.0, trend=0.0, seasonal={"daily": np.ones(24)},
                           dims={"event": np.zeros(4)})
        params = SmoothingParams(alpha=0.5, deltas=(0.1,), deltas_dims=(0.1,))
        model = tmp_path / "model.json"
        save_artifact(model, ts, ModelSpec.for_series(ts), params, state, 1.0)
        doc = json.loads(model.read_text())
        *parents, leaf = [int(name) if name.isdigit() else name for name in path.split(".")]
        node = doc
        for name in parents:
            node = node[name]
        node[leaf] = value
        model.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=match):
            load_artifact(model)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data = missing.csv\n")
        assert main(["forecast", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--model", str(model)]) == 2
        assert "data error: malformed artifact" in capsys.readouterr().err

    @given(field_edits())
    @example((("seasons", 0, "id"), ["daily"]))
    @example((("dims", 0, "length"), 4.0))
    @settings(max_examples=200, deadline=None)
    def test_artifact_with_any_field_of_another_kind_loads_or_is_a_data_error(
            self, tmp_path_factory, edit):
        # The loader rejects the edited model as a data error, or the model
        # it loads forecasts; no other exception escapes.
        (*parents, leaf), value = edit
        doc = copy.deepcopy(property_model_doc())
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = value
        model = tmp_path_factory.mktemp("artifact") / "model.json"
        model.write_text(json.dumps(doc))
        try:
            spec, params, state, dims, _clock = load_artifact(model)
        except DataError:
            return
        forecast(state, spec, params, 48, project_dims(dims, state.position, 48))

    def test_truncated_artifact_is_a_data_error(self, tmp_path, capsys):
        ts = hourly_series(np.full(96, 100.0), seasons=[SeasonSpec("daily", 24)])
        state = ModelState(level=100.0, trend=0.0, seasonal={"daily": np.ones(24)})
        model = tmp_path / "model.json"
        save_artifact(model, ts, ModelSpec.for_series(ts),
                      SmoothingParams(alpha=0.5, deltas=(0.1,)), state, 1.0)
        model.write_text(model.read_text()[:100])
        with pytest.raises(DataError,
                           match=f"malformed artifact {re.escape(str(model))}: Expecting"):
            load_artifact(model)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data = missing.csv\nseason = 24 multiplicative ratio_to_ma daily\n")
        assert main(["forecast", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--model", str(model)]) == 2
        assert "malformed artifact" in capsys.readouterr().err

    @pytest.mark.parametrize("key, component, plural", [
        ("season_modes", "season 'daily'", "seasons"), ("dims_modes", "dims 'event'", "dims"),
    ], ids=["season_modes", "dims_modes"])
    def test_artifact_spec_modes_must_match_its_components(self, tmp_path, key, component,
                                                           plural):
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
        for modes, message in (
                (["additive"], f"{component}: spec mode 'additive' != series mode "
                               "'multiplicative'"),
                (["multiplicative"] * 2, f"spec {key} do not match series {plural}"),
                ([], f"spec {key} do not match series {plural}")):
            doc["spec"][key] = modes
            path.write_text(json.dumps(doc))
            with pytest.raises(DataError, match=f"malformed artifact: {message}"):
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
        spec2, params2, state2, _dims, _clock = load_artifact(path)
        assert list(state2.seasonal) == ["zz_daily", "aa_weekly"]
        got = forecast(state2, spec2, params2, 48)
        np.testing.assert_array_equal(got, expected)

    def test_load_series_builds_the_series_once(self, tmp_path, monkeypatch):
        # The ingested series, then one with every season and event group;
        # no slot table is computed until the engine reads one.
        _, start = demand_fixture(tmp_path, weeks=2)
        (tmp_path / "events.csv").write_text(
            "event_id,group,date_start,span_days\n"
            f"a,Holidays,{(start + timedelta(days=3)).date()},1\n"
            f"b,Easter,{(start + timedelta(days=8)).date()},2\n")
        cfg = write_fit_config(tmp_path, "calendar = events.csv\n"
                               "season = 168 multiplicative ratio_to_ma weekly\n"
                               "dims = Holidays multiplicative neutral\n"
                               "dims = Easter additive neutral\n")
        built, tables = [], []
        post_init = TimeSeries.__post_init__

        def counted(ts):
            built.append((len(ts.seasons), len(ts.dims)))
            post_init(ts)

        monkeypatch.setattr(TimeSeries, "__post_init__", counted)
        monkeypatch.setattr(hwdims.timeseries, "compute_recurrence",
                            lambda spec, n: tables.append(spec.id))
        ts = cli.load_series(parse_config(cfg))
        assert built == [(0, 0), (2, 2)] and tables == []
        assert [s.id for s in ts.seasons] == ["daily", "weekly"]
        assert [(d.id, d.mode, d.length) for d in ts.dims] == [
            ("Easter", "additive", 48), ("Holidays", "multiplicative", 24)]

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

    def test_decompose_with_every_step_in_a_block(self, tmp_path):
        # Trend and seasonals are fitted unmasked, as without the calendar;
        # the event profile takes what they leave.
        demand_fixture(tmp_path, weeks=2)
        (tmp_path / "events.csv").write_text(
            "event_id,group,date_start,span_days\nall,Everything,2023-01-02,14\n")
        cfg = write_fit_config(tmp_path)
        out = tmp_path / "out"
        assert main(["decompose", "--config", str(cfg), "--out", str(out / "plain")]) == 0
        cfg.write_text(cfg.read_text()
                       + "calendar = events.csv\ndims = Everything additive neutral\n")
        assert main(["decompose", "--config", str(cfg), "--out", str(out / "blocked")]) == 0
        for name in ("trend.csv", "seasonal_daily.csv"):
            assert (out / "blocked" / name).read_text() == (out / "plain" / name).read_text()
        assert (out / "blocked" / "dims_Everything_profile.csv").exists()

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
        assert len(calls) == 0

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
        # every command checks the series before its search's first pass
        assert len(calls) == 0

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

    @pytest.mark.parametrize("policy", ["fixed", "refit_per_origin"])
    @pytest.mark.parametrize("at, code", [(400, 2), (500, 2), (470, 0)])
    def test_zero_actual_stops_evaluate_before_search(self, tmp_path, capsys, monkeypatch,
                                                      policy, at, code):
        # An additive model fits a zero reading, but a forecast cannot be
        # scored on it: a zero in a forecast window (origins 336, 384, 432 and
        # 480 with horizon 24; the last window ends at 504) is a data error
        # before any search. One between the windows is never scored.
        calls = []
        real = cli.find_params

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "find_params", spy)
        monkeypatch.setattr(hwdims.evaluate, "find_params", spy)
        y, _ = demand_fixture(tmp_path, weeks=3)
        y[at] = 0.0
        write_hourly_csv(tmp_path / "demand.csv", y)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data = demand.csv\nseason = 24 additive difference_to_ma daily\n"
                       "horizon = 24\nfirst_origin = 336\norigin_step = 48\n"
                       f"policy = {policy}\n")
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        if code:
            assert (f"a percentage error needs a nonzero actual; observation {at} is 0.0"
                    in capsys.readouterr().err)
        assert bool(calls) == (code == 0)

    @pytest.mark.parametrize("years, match", [
        (40, "malformed artifact: date value out of range"),
        (23, "359 steps of 8400 days, 18:00:00 from 2023-01-02T00:00:00 run past the year 9999"),
    ], ids=["at-the-position", "in-the-horizon"])
    def test_clock_past_the_year_9999_is_a_data_error(self, tmp_path, capsys, years, match):
        # With a step of years, the 336-step model's position (40) or the
        # last forecast stamp (23) lies past the year 9999.
        demand_fixture(tmp_path, weeks=2)
        cfg = write_fit_config(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "model.json").read_text())
        doc["series"]["step_seconds"] = years * 365.25 * 86400
        (out / "model.json").write_text(json.dumps(doc))
        assert main(["forecast", "--config", str(cfg), "--out", str(out),
                     "--model", str(out / "model.json")]) == 2
        assert re.search(match, capsys.readouterr().err)
        assert not (out / "forecast.csv").exists()

    @pytest.mark.parametrize("key", [
        "alpha", "phi", "[]", "null", "state=5",
        "seasons=5", "dims={}", "state.seasonal=5", "state.dims=[]", "state.seasonal.daily",
        "state.seasonal.daily=5", "state.seasonal.daily=[1.0]", 'state.level="abc"',
        "state.trend=null",
        "state.last_residual=[]", "state.position=1.5", "state.position=true",
        "series=5", "series.start=5", "series.step_seconds=null",
        "state.level=NaN", "state.seasonal.daily.5=Infinity",
    ])
    def test_artifact_missing_params_key_is_a_data_error(self, tmp_path, key):
        # Also well-formed JSON that is not an object where one is expected,
        # a missing ring, a field of the wrong JSON type below the top level
        # and state that is not finite (Python's json reads NaN and Infinity).
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
        elif "=" in key:
            path, value = key.split("=")
            *parents, leaf = path.split(".")
            node = doc
            for name in parents:
                node = node[name]
            node[int(leaf) if isinstance(node, list) else leaf] = json.loads(value)
            match = f"artifact {path.replace('.', ' ')} must be a"
        else:
            doc = json.loads(key)
            match = "artifact must be a JSON object"
        if key.startswith("state.seasonal.daily"):  # a ring the model check rejects
            match = r"state ring for season 'daily' missing or not of shape \(24,\)"
        if key.endswith(("NaN", "Infinity")):
            match = r"malformed artifact: state (level|ring for season 'daily') is not finite"
        model.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=match):
            load_artifact(model)
        assert main(["forecast", "--config", str(cfg), "--out", str(out),
                     "--model", str(model)]) == 2


# ---------------------------------------------------------------------------
# The command line as a whole: every run ends in one of the four exit codes
# ---------------------------------------------------------------------------

# Fields no reader accepts: bytes that are not UTF-8, a NUL byte, a field
# longer than the csv module's limit, and UTC-offset stamps that leave the
# range of datetime in UTC.
BYTE_FAULTS = [b"caf\xe9", b"1\x00", b"1" * 131_073]
EDGE_STAMPS = [b"0001-01-01T00:00:00+01:00", b"9999-12-31T23:00:00-01:00"]


@st.composite
def csv_file(draw, rows, faults):
    """A CSV file of ``rows``, the header first, as bytes; a third of the
    time with one or two rows spoilt: a field replaced by one of ``faults``
    for its column or by a byte-level fault, a row dropped, repeated, swapped
    with the next or cut to one field."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["field", "bytes", "drop", "repeat", "swap", "short"]))
        if kind in ("field", "bytes"):
            col = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][col] = draw(st.sampled_from(faults[col] if kind == "field" else BYTE_FAULTS))
        elif kind == "drop" and len(rows) > 1:
            del rows[i]
        elif kind == "repeat":
            rows.insert(i, rows[i])
        elif kind == "swap" and i + 1 < len(rows):
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
        elif kind == "short":
            rows[i] = rows[i][:1]
    return b"".join(b",".join(row) + b"\n" for row in rows)


@st.composite
def cli_inputs(draw):
    """An hourly data file of 2 to 120 rows, from 2023-01-02 or ending in the
    last hour of the year 9999, at one of five scales (the largest makes
    readings near the float limit), and a calendar of two to six events on
    distinct days around its start, all of one day or all of a span no
    series can hold."""
    n = draw(st.integers(2, 120))
    start = draw(st.sampled_from([datetime(2023, 1, 2)] * 3
                                 + [datetime(9999, 12, 31, 23) - (n - 1) * HOUR]))
    scale = draw(st.sampled_from([1.0] * 3 + [1e-300, 1e300, 1e306, -1.0]))
    t = np.arange(n)
    values = scale * (100.0 + 20.0 * np.sin(2 * np.pi * t / 24) + np.cos(t))
    data = [[(start + i * HOUR).isoformat().encode(), repr(v).encode()]
            for i, v in zip(t.tolist(), values.tolist())]
    half_hour = (start + HOUR / 2).isoformat().encode()
    data = draw(csv_file([[b"timestamp", b"value"], *data],
                         [[*EDGE_STAMPS, b"tomorrow", half_hour, b""],
                          [b"0", b"-5", b"nan", b"inf", b"1e400", b"x", b""]]))
    first_day = start.date().toordinal()
    days = draw(st.lists(st.integers(-1, 5), unique=True, min_size=2, max_size=6))
    span = draw(st.sampled_from([b"1"] * 5 + [b"10000000000000"]))
    events = [[b"e%d" % i, draw(st.sampled_from([b"Holidays", b"Easter"] * 3 + [b"Other"])),
               date.fromordinal(min(first_day + d, date.max.toordinal())).isoformat().encode(),
               span] for i, d in enumerate(days)]
    calendar = draw(csv_file([[b"event_id", b"group", b"date_start", b"span_days"], *events],
                             [[b""], [b""], [b"June 1st", b"2023-02-30"],
                              [b"2", b"0", b"-1", b"x", b"9" * 5000]]))
    return data, calendar


# Config values no command accepts, per key.
BAD_CONFIG_VALUES = {
    "trend": ["bogus", ""], "damping": ["maybe", "2"], "ar": ["yes"],
    "algorithm": ["pattern_search"], "objective": ["mae"], "max_evals": ["0", "-1", "x"],
    "tolerance": ["nan", "inf", "-1", "x"], "restarts": ["0", "1.5"], "rng_seed": ["-1"],
    "horizon": ["0", "-24", ""], "first_origin": ["0", "x"], "origin_step": ["0"],
    "policy": ["sometimes"],
}
BAD_CONFIG_LINES = [
    "horizon 24", "wat = 7", "season = 24 multiplicative", "season = daily additive neutral",
    "season = 1 multiplicative ratio_to_ma", "season = 24 additive ratio_to_ma",
    "season = 24 multiplicative stl_based", "dims = Holidays multiplicative",
    "dims = Holidays additive ratio_to_ma", "dims = Holidays bogus neutral",
    "season = 4 multiplicative ratio_to_ma a/b\nseason = 6 additive difference_to_ma a_b",
    "# caf\udce9",
]


@st.composite
def cli_configs(draw, command):
    """A run config in the README grammar for ``command``, as bytes, and
    whether every value in it is valid: valid ones are declared consistently
    (distinct seasons and groups, a calendar for every ``dims`` line, a
    ``first_origin`` of two longest cycles for ``evaluate``), and an invalid
    one has up to two values or lines no command accepts."""
    seasons = draw(st.lists(st.sampled_from([2, 3, 4, 6, 24]), unique=True, max_size=2))
    lines = ["data = data.csv"]
    for cycle in seasons:
        mode = draw(st.sampled_from(MODES))
        method = "ratio_to_ma" if mode == "multiplicative" else "difference_to_ma"
        sid = draw(st.sampled_from(["", f" c{cycle}", f" Cycle-{cycle}"]))
        lines.append(f"season = {cycle} {mode} {method}{sid}")
    groups = draw(st.lists(st.sampled_from(["Holidays", "Easter"]), unique=True, max_size=2))
    for group in groups:
        mode = draw(st.sampled_from(MODES))
        method = draw(st.sampled_from(
            ["neutral", "ratio_to_ma" if mode == "multiplicative" else "difference_to_ma"]))
        lines.append(f"dims = {group} {mode} {method}")
    if groups or draw(st.booleans()):
        lines.append("calendar = calendar.csv")
    longest = max(seasons, default=1)
    valid_values = {
        "trend": st.sampled_from(TREND_KINDS), "damping": st.sampled_from(["on", "OFF", "true"]),
        "ar": st.sampled_from(["off", "True"]),
        "algorithm": st.sampled_from(["nelder_mead", "random_restart_nelder_mead"]),
        "objective": st.sampled_from(["rmse", "mape"]), "max_evals": st.integers(1, 40),
        "tolerance": st.sampled_from(["0", "3e-3", "1e-6", "0.5"]),
        "restarts": st.integers(1, 4), "rng_seed": st.integers(0, 2**64),
        "horizon": st.integers(1, 30) | st.sampled_from([10**9, 10**20]),
        "first_origin": st.integers(2 * longest, 2 * longest + 100),
        "origin_step": st.integers(1, 30),
        "policy": st.sampled_from(["fixed", "refit_per_origin"]),
    }
    for key, values in valid_values.items():
        if draw(st.booleans()) or (key == "first_origin" and command == "evaluate"):
            lines.append(f"{key} = {draw(values)}")
    ok = draw(st.sampled_from([True, True, False]))
    if not ok:
        for _ in range(draw(st.integers(1, 2))):
            kind = draw(st.sampled_from(["value", "line", "drop", "repeat", "nul"]))
            i = draw(st.integers(0, len(lines) - 1))
            key = lines[i].partition(" =")[0]
            if kind == "value" and key in BAD_CONFIG_VALUES:
                lines[i] = f"{key} = {draw(st.sampled_from(BAD_CONFIG_VALUES[key]))}"
            elif kind == "line":
                lines.append(draw(st.sampled_from(BAD_CONFIG_LINES)))
            elif kind == "drop":
                del lines[i]
            elif kind == "repeat":
                lines.append(lines[i])
            else:
                lines[i] += "\0"
    lines = draw(st.permutations(lines))
    return "".join(f"{line}\n" for line in lines).encode(errors="surrogateescape"), ok


def run_cli(tmp: Path, command: str, config: bytes, data: bytes | None = None,
            calendar: bytes | None = None, extra=()):
    """``main``'s exit code for ``command`` on the given files, written to
    ``tmp`` (``None`` writes none), and whether it called ``ingest``."""
    for name, content in (("run.cfg", config), ("data.csv", data), ("calendar.csv", calendar)):
        if content is not None:
            (tmp / name).write_bytes(content)
    calls = []

    def spy(path):
        calls.append(path)
        return ingest(path)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "ingest", spy)
        code = main([command, "--config", str(tmp / "run.cfg"), "--out", str(tmp / "out"),
                     *extra])
    return code, bool(calls)


# ``--seed`` arguments, each with whether it is valid.
SEED_ARGS = [((), True)] * 3 + [(("--seed", "7"), True), (("--seed", "-1"), False),
                                (("--seed", "x"), False)]


def hourly_rows(n, start=datetime(2023, 1, 2), zero_at=None):
    """``n`` hourly rows of a daily pattern from ``start``, as bytes."""
    return [b"%s,%r" % ((start + i * HOUR).isoformat().encode(),
                        0.0 if i == zero_at else float(100.0 + 20.0 * np.sin(2 * np.pi * i / 24)))
            for i in range(n)]


def data_csv(rows) -> bytes:
    return b"".join(row + b"\n" for row in [b"timestamp,value", *rows])


CLEAN = data_csv(hourly_rows(48))
LAST_HOURS = hourly_rows(48, start=datetime(9999, 12, 30))  # ends at 9999-12-31T23:00
SEASON = b"data = data.csv\nseason = 24 multiplicative ratio_to_ma\nmax_evals = 10\n"
EVENT = b"event_id,group,date_start,span_days\nnye,Eve,9999-12-31,1\n"
NEAR_LIMIT = [row.split(b",")[0] + b",1.5e308" for row in hourly_rows(48)]

# command, config, data, calendar, exit code, message
FAULT_CASES = {
    "config-not-utf8": ("fit", b"data = data.csv\n# caf\xe9\n", CLEAN, None, 1,
                        "cannot read config"),
    "config-nul-byte": ("fit", b"data = data\0.csv\n", CLEAN, None, 1, "run.cfg:1: NUL byte"),
    "field-over-limit": ("fit", SEASON, data_csv([*hourly_rows(47), b"1" * 131_073]), None, 2,
                         "data.csv: field larger than field limit (131072)"),
    "data-not-utf8": ("fit", SEASON, CLEAN.replace(b",1", b",\xff1", 1), None, 2,
                      "data.csv: 'utf-8' codec can't decode byte 0xff"),
    "calendar-not-utf8": ("fit", SEASON + b"calendar = calendar.csv\n"
                          b"dims = Eve multiplicative neutral\n", CLEAN,
                          EVENT.replace(b"nye", b"caf\xe9"), 2,
                          "calendar.csv: 'utf-8' codec can't decode byte 0xe9"),
    "stamp-year-1": ("fit", SEASON, data_csv([b"0001-01-01T00:00:00+01:00,1",
                                              *hourly_rows(47)]), None, 2,
                     "row 2: unparseable timestamp '0001-01-01T00:00:00+01:00'"),
    "stamp-year-9999": ("fit", SEASON, data_csv([*hourly_rows(47),
                                                 b"9999-12-31T23:00:00-01:00,1"]), None, 2,
                        "row 49: unparseable timestamp '9999-12-31T23:00:00-01:00'"),
    "forecast-after-9999": ("forecast", SEASON, data_csv(LAST_HOURS), None, 2,
                            "71 steps of 1:00:00 from 9999-12-30T00:00:00 run past the year 9999"),
    "block-past-9999": ("decompose", SEASON + b"calendar = calendar.csv\n"
                        b"dims = Eve multiplicative neutral\n", data_csv(LAST_HOURS), EVENT, 2,
                        "48 steps of 1:00:00 from 9999-12-30T00:00:00 run past the year 9999"),
    "block-longer-than-series": ("fit", SEASON + b"calendar = calendar.csv\n"
                                 b"dims = G multiplicative ratio_to_ma\n", CLEAN,
                                 b"event_id,group,date_start,span_days\n"
                                 b"big,G,2023-01-02,10000000000000\n", 2,
                                 "group 'G': a block of 10000000000000 days is "
                                 "240000000000000 steps, longer than the series (48 steps)"),
    "zero-actual-in-fit": ("fit", b"data = data.csv\nseason = 24 additive difference_to_ma\n"
                           b"max_evals = 10\n", data_csv(hourly_rows(48, zero_at=30)), None, 2,
                           "a percentage error needs a nonzero actual; observation 30 is 0.0"),
    "readings-near-the-float-limit": ("fit", SEASON, data_csv(
        [row + b"e306" for row in hourly_rows(48)]), None, 2,
        "the observations sum past the float limit in absolute value"),
    "gap-between-readings-near-the-float-limit": ("fit", SEASON, data_csv(
        [row + b"e306" for i, row in enumerate(hourly_rows(48)) if i != 10]), None, 2,
        "missing step at 2023-01-02T10:00:00: readings 1.1414213562373095e+308 at "
        "2023-01-02T09:00:00 and 1.0517638090205042e+308 at 2023-01-02T11:00:00 sum past "
        "the float limit"),
    "duplicate-readings-near-the-float-limit": ("fit", SEASON, data_csv(
        [*NEAR_LIMIT[:11], b"2023-01-02T10:00:00,1.6e308", *NEAR_LIMIT[11:]]), None, 2,
        "duplicated timestamp 2023-01-02T10:00:00: readings 1.5e+308 and 1.6e+308 sum past "
        "the float limit"),
    "rmse-past-1e154": ("fit", SEASON + b"objective = mape\n",
                        data_csv([row + b"e300" for row in hourly_rows(48)]), None, 0, ""),
}


class TestExitCodes:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_run_ends_in_an_exit_code(self, data):
        # main never raises; a config fault is exit 1 before any data is
        # read, and a config of valid values is never exit 1.
        command = data.draw(st.sampled_from(["fit", "forecast", "decompose", "evaluate"]))
        config, valid = data.draw(cli_configs(command))
        files = data.draw(st.sampled_from([True] * 7 + [False]).flatmap(
            lambda written: cli_inputs() if written else st.just((None, None))))
        extra, seed_ok = data.draw(st.sampled_from(SEED_ARGS))
        with tempfile.TemporaryDirectory() as tmp:
            code, read = run_cli(Path(tmp), command, config, *files, extra=extra)
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert not read and not (valid and seed_ok)

    @pytest.mark.parametrize("name", sorted(FAULT_CASES))
    def test_fault_has_its_exit_code(self, tmp_path, capsys, name):
        # Faults the property once found, or that leaked a traceback; each
        # fails before any search.
        command, config, data, calendar, code, message = FAULT_CASES[name]
        with pytest.MonkeyPatch.context() as mp:
            if code:
                mp.setattr(cli, "find_params", lambda *args: pytest.fail("searched"))
            assert run_cli(tmp_path, command, config, data, calendar) == (code, code != 1)
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("saved", [False, True], ids=["inline", "saved-model"])
    @pytest.mark.parametrize("horizon", [10**9, 10**20])
    def test_horizon_past_9999_fails_before_the_search(self, tmp_path, capsys, horizon, saved):
        # The first would allocate the horizon's forecasts (8 GB) first.
        data = data_csv(hourly_rows(20 * 24))
        extra = ()
        if saved:
            assert run_cli(tmp_path, "fit", SEASON, data)[0] == 0
            extra = ("--model", str(tmp_path / "out" / "model.json"))
        config = SEASON + b"horizon = %d\n" % horizon
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "find_params", lambda *args: pytest.fail("searched"))
            assert run_cli(tmp_path, "forecast", config, data, extra=extra)[0] == 2
        assert f"{479 + horizon} steps of 1:00:00 from 2023-01-02T00:00:00 run past the year 9999" \
            in capsys.readouterr().err
        assert not (tmp_path / "out" / "forecast.csv").exists()
