"""Translate an event calendar into moving-seasonality specifications.

Events carrying the same ``recurrence_group`` label share one moving
seasonality: all national holidays typically form a single group, Easter
another. Grouping is the caller's decision; nothing here tries to infer it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date, datetime, timedelta

from .timeseries import DataError, DimsSpec, TimeSeries

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CalendarEvent:
    """One dated event occurrence (a holiday, a bridge day, an Easter week)."""

    event_id: str
    date_start: date
    span_days: int
    recurrence_group: str

    def __post_init__(self):
        if self.span_days < 1:
            raise DataError(f"event {self.event_id!r}: span_days must be >= 1")


def build_dims(
    ts: TimeSeries,
    events: list[CalendarEvent],
    mode: str | dict[str, str] = "multiplicative",
    init_method: str | dict[str, str] = "neutral",
) -> list[DimsSpec]:
    """Build one moving-seasonality spec per recurrence group.

    Block length is ``span_days`` times the steps per day of ``ts.step``,
    which must divide a day. Events that run past the last observation, or
    start after it, are kept: the series' slot tables cut their blocks at its
    end, and forecasts read them. Events that start before the series are
    dropped with a warning. ``mode`` / ``init_method`` apply to every group,
    or per group when given as a mapping. A calendar the series cannot carry,
    a block longer than the series or overlapping events of one group among
    its faults, raises :class:`DataError`; an unknown mode, or an
    ``init_method`` that does not seed it, is a ``ValueError`` of
    :class:`DimsSpec`.
    """
    steps_per_day, rem = divmod(timedelta(days=1), ts.step)
    if rem:
        raise DataError(
            f"series step {ts.step} does not divide a day into whole steps_per_day"
        )
    groups: dict[str, list[CalendarEvent]] = {}
    for ev in sorted(events, key=lambda e: (e.date_start, e.event_id)):
        groups.setdefault(ev.recurrence_group, []).append(ev)

    specs = []
    for group in sorted(groups):
        members = groups[group]
        spans = {ev.span_days for ev in members}
        if len(spans) > 1:
            raise DataError(
                f"group {group!r}: events must share one span_days, got {sorted(spans)}"
            )
        span = spans.pop()
        length = span * steps_per_day
        if length > len(ts):  # no data could seed or update the block's tail
            raise DataError(f"group {group!r}: a block of {span} days is {length} steps, "
                            f"longer than the series ({len(ts)} steps)")
        occurrences = []
        for ev in members:
            start_dt = datetime.combine(ev.date_start, datetime.min.time())
            offset = start_dt - ts.start
            steps, rem = divmod(offset, ts.step)
            if rem:
                raise DataError(
                    f"event {ev.event_id!r} at {ev.date_start}: start does not fall on a step"
                )
            if steps < 0:
                log.warning(
                    "event %r (%s, group %r) starts before the series; dropped",
                    ev.event_id, ev.date_start, group,
                )
                continue
            occurrences.append(int(steps))
        specs.append(DimsSpec(
            id=group,
            mode=mode[group] if isinstance(mode, dict) else mode,
            length=length,
            occurrences=tuple(occurrences),
            init_method=init_method[group] if isinstance(init_method, dict) else init_method,
        ))
    return specs
