"""Seeded synthetic hourly load for the three benchmark workloads.

The generator injects known truth, so accuracy needs no stored reference:

    y[t] = (L0 + b t) * daily[t % 24] * weekly[t % 168] * event[t] + noise[t]

``event[t]`` is 1 outside event blocks and a per-group multiplicative shock
profile inside them. The additive effect of an event at step t is therefore
``(L0 + b t) * daily * weekly * (event - 1)``; its mean over a group's
occurrences is what the decomposition's event profile should recover.
Only the event dates and the noise depend on the seed. The sizes, the
daily and weekly shapes, the event shocks and the noise scale are fixed, so
that accuracy and run time do not swing with a seeded shape or event size.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

START = datetime(2018, 1, 1)  # a Monday, so slot t % 168 == 0 is Monday 00:00
STEP = timedelta(hours=1)
LEVEL = 1000.0
GROWTH_PER_YEAR = 0.03
NOISE_SD = 15.0
# Share of the load lost at the daytime peak on each day of an event block
# (a 4-day block reads as Good Friday to Easter Monday).
EVENT_DEPTH = (0.25, 0.15, 0.30, 0.25)
SPRING = (0.22, 0.32)  # share of the series where a multi-day (Easter-like) block may start
SEASONS = {"daily": 24, "weekly": 168}  # id -> cycle length, both multiplicative
WARMUP = max(SEASONS.values())  # the CLI's warm-up: one cycle of the longest season


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    weeks: int
    groups: tuple[tuple[str, int, int], ...]  # (group, span_days, events)
    extra_config: tuple[str, ...]
    # host-speed sampler parts whose slowdown follows this workload's (speed.py)
    speed_parts: tuple[str, ...] = ("recurrence", "fits")


WORKLOADS = {
    w.name: w
    for w in (
        # Isolates the engine and the search loop: one init_values, ~200
        # smooth_pass runs over one 8,736-step series, no decomposition.
        Workload("fit-search", "fit", 52, (("Holidays", 1, 10),), (
            "dims = Holidays multiplicative neutral",
            "trend = additive",
            "algorithm = nelder_mead",
            "max_evals = 300",
        )),
        # Loess decomposition with two event groups; nested 24-in-168 cycles
        # keep the known non-convergence visible (iteration cap reached).
        Workload("decompose-events", "decompose", 52,
                 (("Holidays", 1, 10), ("Easter", 4, 1)), (
            "dims = Holidays multiplicative neutral",
            "dims = Easter multiplicative neutral",
        ), speed_parts=("fits",)),
        # One parameter vector over 182 growing prefixes: per-origin seeds
        # and full passes, the only workload where prefix() carries weight.
        Workload("evaluate-rolling", "evaluate", 78, (("Holidays", 1, 15),), (
            "dims = Holidays multiplicative neutral",
            "trend = additive",
            "algorithm = nelder_mead",
            "max_evals = 100",
            "horizon = 24",
            "first_origin = 8736",
            "origin_step = 24",
            "policy = fixed",
        )),
    )
}


@dataclass(frozen=True, eq=False)
class Truth:
    values: np.ndarray
    noise: np.ndarray
    occurrences: dict[str, tuple[int, ...]]  # group -> block start steps
    profiles: dict[str, np.ndarray]  # group -> mean additive effect per slot


def _daytime_bump() -> np.ndarray:
    """0 at night, rising to 1 around mid-afternoon."""
    h = np.arange(24)
    return np.clip(np.sin(np.pi * (h - 6) / 16), 0.0, None) * (h >= 6)


def _daily_shape() -> np.ndarray:
    h = np.arange(24)
    shape = (1 + 0.20 * np.cos(2 * np.pi * (h - 15.5) / 24)
             + 0.06 * np.cos(4 * np.pi * (h - 9.5) / 24))
    return shape / shape.mean()


def _weekly_shape() -> np.ndarray:
    day = np.array([1.04, 1.05, 1.05, 1.04, 1.02, 0.90, 0.82])
    # weekends also lose part of their daytime peak
    depth = np.where(np.arange(7) >= 5, 0.075, 0.0)
    shape = (day[:, None] * (1 - depth[:, None] * _daytime_bump()[None, :])).ravel()
    return shape / shape.mean()


def _place_events(rng, n_days: int, groups) -> dict[str, list[int]]:
    """Event start days. One-day events fall one per equal stratum of the
    series, as holidays spread over a calendar year; a multi-day block starts
    on a Friday in spring. Blocks are at least one free day apart and stay out
    of the first two weeks (the seed window) and the last week."""
    taken = np.zeros(n_days, dtype=bool)
    taken[:14] = taken[n_days - 7:] = True
    days: dict[str, list[int]] = {}
    # longest blocks first, so they always find room
    for group, span, count in sorted(groups, key=lambda g: -g[1]):
        if span > 1:
            first, last = (int(share * n_days) for share in SPRING)
        else:
            first, last = 14, n_days - 7 - span
        edges = np.linspace(first, last, count + 1).astype(int)
        chosen = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            while True:
                d = int(rng.integers(lo, hi))
                if span > 1:
                    d -= (d % 7) - 4  # multi-day blocks start on a Friday
                if 0 <= d <= n_days - span and not taken[max(d - 1, 0):d + span + 1].any():
                    break
            taken[max(d - 1, 0):d + span + 1] = True
            chosen.append(d)
        days[group] = sorted(chosen)
    return days


def generate(workload: Workload, seed: int) -> Truth:
    rng = np.random.default_rng([seed % 2**63, zlib.crc32(workload.name.encode())])
    n = workload.weeks * 168
    t = np.arange(n)
    base = (LEVEL + LEVEL * GROWTH_PER_YEAR / 8760 * t) \
        * np.resize(_daily_shape(), n) * np.resize(_weekly_shape(), n)

    event = np.ones(n)
    occurrences, shocks = {}, {}
    bump = _daytime_bump()
    for group, span, _ in workload.groups:
        depth = np.resize(EVENT_DEPTH, span)
        shocks[group] = (1 - (0.3 + 0.7 * bump)[None, :] * depth[:, None]).ravel()
    for group, days in _place_events(rng, n // 24, workload.groups).items():
        starts = tuple(d * 24 for d in days)
        occurrences[group] = starts
        for s in starts:
            event[s:s + len(shocks[group])] = shocks[group]

    noise = rng.normal(0.0, NOISE_SD, size=n)
    values = base * event + noise
    profiles = {
        group: np.mean([base[s:s + len(shocks[group])] * (shocks[group] - 1) for s in starts],
                       axis=0)
        for group, starts in occurrences.items()
    }
    return Truth(values=values, noise=noise, occurrences=occurrences, profiles=profiles)


def write_inputs(workload: Workload, truth: Truth, directory: Path) -> Path:
    """Write demand.csv, events.csv and run.cfg; return the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "demand.csv", "w") as fh:
        fh.write("timestamp,value\n")
        for i, v in enumerate(truth.values.tolist()):
            fh.write(f"{(START + i * STEP).isoformat()},{v!r}\n")
    spans = {group: span for group, span, _ in workload.groups}
    with open(directory / "events.csv", "w") as fh:
        fh.write("event_id,group,date_start,span_days\n")
        for group, starts in sorted(truth.occurrences.items()):
            for k, s in enumerate(starts):
                day = (START + s * STEP).date().isoformat()
                fh.write(f"{group}-{k},{group},{day},{spans[group]}\n")
    config = directory / "run.cfg"
    config.write_text("\n".join((
        "data = demand.csv",
        "calendar = events.csv",
        *(f"season = {cycle} multiplicative ratio_to_ma {sid}" for sid, cycle in SEASONS.items()),
        *workload.extra_config,
        "rng_seed = 0",
    )) + "\n")
    return config
