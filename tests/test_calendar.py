"""Calendar events to moving-seasonality specs."""

from __future__ import annotations

import logging
from datetime import date, timedelta

import numpy as np
import pytest

from hwdims import CalendarEvent, DataError, TimeSeries, build_dims

from helpers import START, hourly_series


def two_year_series():
    n = 2 * 365 * 24
    return hourly_series(100 + 10 * np.sin(2 * np.pi * np.arange(n) / 24))


def test_empty_event_list_gives_empty_spec_list():
    assert build_dims(two_year_series(), []) == []


def test_two_easter_events_make_one_spec():
    ts = two_year_series()
    events = [
        CalendarEvent("easter-2023", date(2023, 4, 6), 4, "Easter"),
        CalendarEvent("easter-2024", date(2024, 3, 28), 4, "Easter"),
    ]
    specs = build_dims(ts, events, mode="multiplicative")
    assert len(specs) == 1
    spec = specs[0]
    assert spec.id == "Easter"
    assert spec.length == 96
    assert len(spec.occurrences) == 2
    # Start indices fall on the exact midnights of the event dates.
    for occ, day in zip(spec.occurrences, (date(2023, 4, 6), date(2024, 3, 28))):
        assert (ts.start + occ * ts.step).date() == day
        assert (ts.start + occ * ts.step).hour == 0


def test_event_before_series_start_dropped_with_warning(caplog):
    ts = two_year_series()
    events = [
        CalendarEvent("old", date(2022, 12, 25), 1, "Holidays"),
        CalendarEvent("kept", date(2023, 5, 1), 1, "Holidays"),
    ]
    with caplog.at_level(logging.WARNING):
        specs = build_dims(ts, events)
    assert len(specs) == 1
    assert len(specs[0].occurrences) == 1
    assert any("dropped" in rec.message for rec in caplog.records)


def test_event_past_series_end_kept(caplog):
    ts = two_year_series()  # ends 2024-12-31 23:00
    events = [CalendarEvent("nye", date(2024, 12, 31), 2, "Holidays"),
              CalendarEvent("mid", date(2024, 6, 1), 2, "Holidays"),
              CalendarEvent("next", date(2025, 1, 6), 2, "Holidays")]
    with caplog.at_level(logging.WARNING):
        specs = build_dims(ts, events)
    assert not caplog.records
    n = len(ts)
    assert specs[0].occurrences[1:] == (n - 24, n + 5 * 24)
    # the slot table stops at the last observation, halfway into "nye"
    ts = ts.add_dims(specs[0])
    assert ts.recurrence("Holidays")[-24:].tolist() == list(range(24))
    assert (ts.recurrence("Holidays") >= 0).sum() == 48 + 24


def test_overlapping_events_in_group_rejected():
    ts = two_year_series()
    events = [
        CalendarEvent("a", date(2023, 4, 6), 4, "Easter"),
        CalendarEvent("b", date(2023, 4, 8), 4, "Easter"),
    ]
    with pytest.raises(ValueError, match="Easter"):
        build_dims(ts, events)


def test_mixed_spans_in_group_rejected():
    ts = two_year_series()
    events = [
        CalendarEvent("a", date(2023, 4, 6), 4, "Easter"),
        CalendarEvent("b", date(2024, 3, 28), 3, "Easter"),
    ]
    with pytest.raises(ValueError, match="span_days"):
        build_dims(ts, events)


def test_order_insensitive_over_event_list():
    ts = two_year_series()
    events = [
        CalendarEvent("may", date(2023, 5, 1), 1, "Holidays"),
        CalendarEvent("easter-2023", date(2023, 4, 6), 4, "Easter"),
        CalendarEvent("xmas", date(2023, 12, 25), 1, "Holidays"),
    ]
    forward = build_dims(ts, events)
    backward = build_dims(ts, list(reversed(events)))
    assert forward == backward
    assert [s.id for s in forward] == ["Easter", "Holidays"]


def test_results_satisfy_container_invariants():
    ts = two_year_series()
    events = [
        CalendarEvent("a", date(2023, 4, 6), 2, "Easter"),
        CalendarEvent("b", date(2024, 3, 28), 2, "Easter"),
    ]
    for spec in build_dims(ts, events):
        ts = ts.add_dims(spec)  # raises if any invariant is broken
    assert (ts.recurrence("Easter") >= 0).sum() == 96


def test_inconsistent_steps_per_day_rejected():
    # a step must divide a day: 7 minutes leaves a remainder, 2 days exceed it
    for step in (timedelta(minutes=7), timedelta(days=2)):
        ts = TimeSeries(values=np.ones(48), step=step)
        with pytest.raises(ValueError, match="does not divide a day"):
            build_dims(ts, [])


def test_block_length_follows_the_step():
    # half-hourly data: 48 steps a day, so a 2-day event spans 96 steps
    ts = TimeSeries(values=np.ones(30 * 48), step=timedelta(minutes=30), start=START)
    (spec,) = build_dims(ts, [CalendarEvent("a", START.date() + timedelta(days=2), 2, "G")])
    assert (spec.length, spec.occurrences) == (96, (2 * 48,))


def test_per_group_modes():
    ts = two_year_series()
    events = [
        CalendarEvent("a", date(2023, 4, 6), 1, "Easter"),
        CalendarEvent("b", date(2023, 5, 1), 1, "Holidays"),
    ]
    specs = build_dims(
        ts, events,
        mode={"Easter": "additive", "Holidays": "multiplicative"},
    )
    assert {s.id: s.mode for s in specs} == {
        "Easter": "additive", "Holidays": "multiplicative",
    }


EASTERS = [CalendarEvent("a", date(2023, 4, 6), 4, "Easter")]


@pytest.mark.parametrize("step, start, events, message", [
    (timedelta(minutes=7), START, [], "does not divide a day"),
    (timedelta(hours=1), START,
     EASTERS + [CalendarEvent("b", date(2024, 3, 28), 3, "Easter")], "span_days"),
    (timedelta(hours=1), START + timedelta(minutes=30), EASTERS, "does not fall on a step"),
    (timedelta(hours=1), START,
     EASTERS + [CalendarEvent("b", date(2023, 4, 8), 4, "Easter")], "overlaps"),
    (timedelta(hours=1), START,
     EASTERS + [CalendarEvent("b", date(2023, 4, 6), 4, "Easter")],
     "dims 'Easter': occurrence starts must be strictly increasing"),
])
def test_calendar_faults_are_data_errors(step, start, events, message):
    ts = TimeSeries(values=np.ones(365 * 24), step=step, start=start)
    with pytest.raises(DataError, match=message):
        build_dims(ts, events)


def test_event_span_below_one_day_is_a_data_error():
    with pytest.raises(DataError, match="span_days must be >= 1"):
        CalendarEvent("a", date(2023, 4, 6), 0, "G")


def test_unknown_mode_is_not_a_data_error():
    # a bad argument of the caller, not a fault of the calendar
    events = [CalendarEvent("a", date(2023, 4, 6), 1, "G")]
    with pytest.raises(ValueError, match="dims 'G': unknown mode 'bogus'") as err:
        build_dims(two_year_series(), events, mode="bogus")
    assert not isinstance(err.value, DataError)
