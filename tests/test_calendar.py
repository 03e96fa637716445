"""Calendar events to moving-seasonality specs."""

from __future__ import annotations

import logging
from datetime import date

import numpy as np
import pytest

from hwdims import CalendarEvent, build_dims

from helpers import hourly_series


def two_year_series():
    n = 2 * 365 * 24
    return hourly_series(100 + 10 * np.sin(2 * np.pi * np.arange(n) / 24))


def test_empty_event_list_gives_empty_spec_list():
    assert build_dims(two_year_series(), [], steps_per_day=24) == []


def test_two_easter_events_make_one_spec():
    ts = two_year_series()
    events = [
        CalendarEvent("easter-2023", date(2023, 4, 6), 4, "Easter"),
        CalendarEvent("easter-2024", date(2024, 3, 28), 4, "Easter"),
    ]
    specs = build_dims(ts, events, steps_per_day=24, mode="multiplicative")
    assert len(specs) == 1
    spec = specs[0]
    assert spec.id == "Easter"
    assert spec.length == 96
    assert len(spec.occurrences) == 2
    # Start indices fall on the exact midnights of the event dates.
    for occ, day in zip(spec.occurrences, (date(2023, 4, 6), date(2024, 3, 28))):
        assert ts.timestamp_at(occ).date() == day
        assert ts.timestamp_at(occ).hour == 0


def test_event_before_series_start_dropped_with_warning(caplog):
    ts = two_year_series()
    events = [
        CalendarEvent("old", date(2022, 12, 25), 1, "Holidays"),
        CalendarEvent("kept", date(2023, 5, 1), 1, "Holidays"),
    ]
    with caplog.at_level(logging.WARNING):
        specs = build_dims(ts, events, steps_per_day=24)
    assert len(specs) == 1
    assert len(specs[0].occurrences) == 1
    assert any("dropped" in rec.message for rec in caplog.records)


def test_event_partially_past_series_end_dropped_not_truncated(caplog):
    ts = two_year_series()  # ends 2024-12-31 23:00
    events = [CalendarEvent("nye", date(2024, 12, 31), 2, "Holidays"),
              CalendarEvent("mid", date(2024, 6, 1), 2, "Holidays")]
    with caplog.at_level(logging.WARNING):
        specs = build_dims(ts, events, steps_per_day=24)
    assert len(specs[0].occurrences) == 1


def test_overlapping_events_in_group_rejected():
    ts = two_year_series()
    events = [
        CalendarEvent("a", date(2023, 4, 6), 4, "Easter"),
        CalendarEvent("b", date(2023, 4, 8), 4, "Easter"),
    ]
    with pytest.raises(ValueError, match="Easter"):
        build_dims(ts, events, steps_per_day=24)


def test_mixed_spans_in_group_rejected():
    ts = two_year_series()
    events = [
        CalendarEvent("a", date(2023, 4, 6), 4, "Easter"),
        CalendarEvent("b", date(2024, 3, 28), 3, "Easter"),
    ]
    with pytest.raises(ValueError, match="span_days"):
        build_dims(ts, events, steps_per_day=24)


def test_order_insensitive_over_event_list():
    ts = two_year_series()
    events = [
        CalendarEvent("may", date(2023, 5, 1), 1, "Holidays"),
        CalendarEvent("easter-2023", date(2023, 4, 6), 4, "Easter"),
        CalendarEvent("xmas", date(2023, 12, 25), 1, "Holidays"),
    ]
    forward = build_dims(ts, events, steps_per_day=24)
    backward = build_dims(ts, list(reversed(events)), steps_per_day=24)
    assert forward == backward
    assert [s.id for s in forward] == ["Easter", "Holidays"]


def test_results_satisfy_container_invariants():
    ts = two_year_series()
    events = [
        CalendarEvent("a", date(2023, 4, 6), 2, "Easter"),
        CalendarEvent("b", date(2024, 3, 28), 2, "Easter"),
    ]
    for spec in build_dims(ts, events, steps_per_day=24):
        ts = ts.add_dims(spec)  # raises if any invariant is broken
    assert (ts.recurrence("Easter") >= 0).sum() == 96


def test_inconsistent_steps_per_day_rejected():
    with pytest.raises(ValueError, match="steps_per_day"):
        build_dims(two_year_series(), [], steps_per_day=48)


def test_per_group_modes():
    ts = two_year_series()
    events = [
        CalendarEvent("a", date(2023, 4, 6), 1, "Easter"),
        CalendarEvent("b", date(2023, 5, 1), 1, "Holidays"),
    ]
    specs = build_dims(
        ts, events, steps_per_day=24,
        mode={"Easter": "additive", "Holidays": "multiplicative"},
    )
    assert {s.id: s.mode for s in specs} == {
        "Easter": "additive", "Holidays": "multiplicative",
    }
