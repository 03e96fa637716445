"""Multi-seasonal time-series container, forecast accuracy metrics and the
CSV format of every file the command line reads and writes.

The :class:`TimeSeries` container holds an evenly spaced observation vector
together with its regular seasonal cycles and its event-window moving
seasonalities (each defined only on irregularly recurring blocks of steps).
Each moving seasonality gets a slot table: the within-block offset of every
step, -1 outside its blocks. Containers are immutable: every mutating
operation returns a new instance, so series can be shared freely across
concurrent fitting jobs.

CSV files have one header line of column names; :func:`read_csv` checks it
and :func:`write_csv` writes it. Callers format the fields: timestamps as
ISO-8601, floats as ``repr``, which reads back bit-exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from itertools import islice
from pathlib import Path

import numpy as np

MODES = ("additive", "multiplicative")
SEASON_INIT_METHODS = ("ratio_to_ma", "difference_to_ma", "stl_based")
DIMS_INIT_METHODS = ("stl_based", "neutral")


class DataError(ValueError):
    """Input data violates a container or ingestion contract."""


def neutral_value(mode: str) -> float:
    """Neutral index value: 0 leaves an additive term unchanged, 1 a factor."""
    return 1.0 if mode == "multiplicative" else 0.0


@dataclass(frozen=True)
class SeasonSpec:
    """One regular seasonal cycle (e.g. 24 for an hourly daily pattern)."""

    id: str
    cycle_length: int
    mode: str = "multiplicative"
    init_method: str = "auto"

    def __post_init__(self):
        if self.cycle_length < 2:
            raise ValueError(f"season {self.id!r}: cycle_length must be >= 2")
        if self.mode not in MODES:
            raise ValueError(f"season {self.id!r}: unknown mode {self.mode!r}")
        if self.init_method == "auto":
            method = "ratio_to_ma" if self.mode == "multiplicative" else "difference_to_ma"
            object.__setattr__(self, "init_method", method)
        if self.init_method not in SEASON_INIT_METHODS:
            raise ValueError(f"season {self.id!r}: unknown init_method {self.init_method!r}")
        if self.mode == "additive" and self.init_method == "ratio_to_ma":
            raise ValueError(f"season {self.id!r}: ratio_to_ma seeds a multiplicative index")
        if self.mode == "multiplicative" and self.init_method == "difference_to_ma":
            raise ValueError(f"season {self.id!r}: difference_to_ma seeds an additive index")


@dataclass(frozen=True)
class DimsSpec:
    """A moving seasonality: fixed-length blocks at irregular start positions.

    ``occurrences`` are 0-based start indices into the series; each block
    spans ``[start, start + length)``. Blocks of one spec may not overlap,
    but blocks of different specs may (a holiday inside a festival week).
    """

    id: str
    mode: str
    length: int
    occurrences: tuple[int, ...] = ()
    init_method: str = "neutral"

    def __post_init__(self):
        object.__setattr__(self, "occurrences", tuple(int(o) for o in self.occurrences))
        if self.length < 1:
            raise ValueError(f"dims {self.id!r}: length must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"dims {self.id!r}: unknown mode {self.mode!r}")
        if self.init_method not in DIMS_INIT_METHODS:
            raise ValueError(f"dims {self.id!r}: unknown init_method {self.init_method!r}")
        for prev, cur in zip(self.occurrences, self.occurrences[1:]):
            if cur <= prev:
                raise ValueError(
                    f"dims {self.id!r}: occurrence starts must be strictly increasing "
                    f"({prev} then {cur})"
                )
            if cur < prev + self.length:
                raise ValueError(
                    f"dims {self.id!r}: occurrence block at {cur} overlaps block at {prev} "
                    f"(length {self.length})"
                )
        if self.occurrences and self.occurrences[0] < 0:
            raise ValueError(f"dims {self.id!r}: negative occurrence start {self.occurrences[0]}")


def _slot_table(spec: DimsSpec, start: int, stop: int) -> np.ndarray:
    """Within-block offset of each position in ``[start, stop)``, -1 outside
    every occurrence block of ``spec``."""
    slots = np.full(stop - start, -1, dtype=np.int64)
    for occ in spec.occurrences:
        lo, hi = max(occ, start), min(occ + spec.length, stop)
        if lo < hi:
            slots[lo - start:hi - start] = np.arange(lo - occ, hi - occ)
    return slots


def slot_mean(values: np.ndarray, slots: np.ndarray, size: int,
              fallback: float) -> np.ndarray:
    """Mean of ``values`` per slot ``0..size-1`` of a slot table, summed in
    series order; entries at slot -1 are skipped, and a slot that no entry
    reads gets ``fallback``."""
    used = slots >= 0
    counts = np.bincount(slots[used], minlength=size)
    sums = np.bincount(slots[used], weights=values[used], minlength=size)
    return np.divide(sums, counts, out=np.full(size, float(fallback)), where=counts > 0)


def compute_recurrence(spec: DimsSpec, n: int) -> np.ndarray:
    """Slot table of ``spec`` over a series of length ``n``: the block offset
    of each step, -1 outside blocks. Every block must lie inside the series."""
    for start in spec.occurrences:
        if start + spec.length > n:
            raise DataError(
                f"dims {spec.id!r}: occurrence block [{start}, {start + spec.length}) "
                f"exceeds series length {n}"
            )
    return _slot_table(spec, 0, n)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Evenly spaced observations with seasonal structure attached.

    The slot tables of the moving seasonalities are computed when the series
    is built. The plain lists that the smoothing step loop reads (see
    :meth:`step_lists`) are built lazily, on first use, once per series, so
    the passes of a search share them; a derived series (``prefix``,
    ``add_dims`` and the like) builds its own.
    """

    values: np.ndarray
    step: timedelta = timedelta(hours=1)
    start: datetime = datetime(2000, 1, 3)
    seasons: tuple[SeasonSpec, ...] = ()
    dims: tuple[DimsSpec, ...] = ()
    _recurrences: dict[str, np.ndarray] = field(
        init=False, repr=False, default_factory=dict
    )
    _step_lists: tuple[list[float], tuple[list[int], ...]] | None = field(
        init=False, repr=False, default=None
    )

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(-1).copy()
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DataError(
                f"{bad.size} non-finite value(s), first at index {bad[0]}: {values[bad[0]]}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.step <= timedelta(0):
            raise ValueError("step must be a positive duration")
        object.__setattr__(self, "seasons", tuple(self.seasons))
        object.__setattr__(self, "dims", tuple(self.dims))
        n = len(values)
        seen_ids, seen_cycles = set(), set()
        for spec in self.seasons:
            if spec.id in seen_ids or spec.cycle_length in seen_cycles:
                raise ValueError(f"duplicate season {spec.id!r} / cycle {spec.cycle_length}")
            seen_ids.add(spec.id)
            seen_cycles.add(spec.cycle_length)
            if spec.cycle_length > n:
                raise DataError(
                    f"season {spec.id!r}: cycle {spec.cycle_length} exceeds series length {n}"
                )
        recurrences = {}
        dims_ids = set()
        for spec in self.dims:
            if spec.id in dims_ids:
                raise ValueError(f"duplicate dims id {spec.id!r}")
            dims_ids.add(spec.id)
            recurrences[spec.id] = compute_recurrence(spec, n)
        object.__setattr__(self, "_recurrences", recurrences)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def timestamps(self) -> list[datetime]:
        return [self.start + i * self.step for i in range(len(self.values))]

    def timestamp_at(self, index: int) -> datetime:
        return self.start + index * self.step

    def recurrence(self, dims_id: str) -> np.ndarray:
        """Slot table of one moving seasonality (see :func:`compute_recurrence`)."""
        try:
            return self._recurrences[dims_id]
        except KeyError:
            raise KeyError(f"unknown dims id {dims_id!r}") from None

    def step_lists(self) -> tuple[list[float], tuple[list[int], ...]]:
        """The observations and the slot table of every index component
        (regular cycles, ``t % cycle_length``, then moving seasonalities) as
        plain lists over the whole series: the form the smoothing step loop
        reads. Built on first use and kept; callers must not modify them."""
        if self._step_lists is None:
            positions = np.arange(len(self.values))
            slots = [(positions % s.cycle_length).tolist() for s in self.seasons] \
                + [self._recurrences[d.id].tolist() for d in self.dims]
            object.__setattr__(self, "_step_lists", (self.values.tolist(), tuple(slots)))
        return self._step_lists

    def add_season(self, spec: SeasonSpec) -> TimeSeries:
        return replace(self, seasons=self.seasons + (spec,))

    def add_dims(self, spec: DimsSpec) -> TimeSeries:
        """Register a moving seasonality; its slot table is computed eagerly."""
        return replace(self, dims=self.dims + (spec,))

    def remove_dims(self, dims_id: str) -> TimeSeries:
        kept = tuple(d for d in self.dims if d.id != dims_id)
        if len(kept) == len(self.dims):
            raise KeyError(f"unknown dims id {dims_id!r}")
        return replace(self, dims=kept)

    def prefix(self, n: int) -> TimeSeries:
        """First ``n`` observations; moving-seasonality blocks that are not
        wholly inside the window are dropped (never truncated)."""
        if not 0 < n <= len(self.values):
            raise ValueError(f"prefix length {n} outside 1..{len(self.values)}")
        dims = tuple(
            replace(d, occurrences=tuple(o for o in d.occurrences if o + d.length <= n))
            for d in self.dims
        )
        return replace(self, values=self.values[:n], dims=dims)


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------

def read_csv(path, header: str):
    """Yield ``(line number, fields)`` for each non-blank row of a CSV file whose
    first line starts with the column names ``header`` (case and spaces ignored).
    A row with fewer fields than ``header`` names is a :class:`DataError`."""
    names = header.split(",")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [c.strip().lower() for c in first[:len(names)]] != names:
            raise DataError(f"{path}: expected header '{header}'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < len(names):
                raise DataError(f"row {lineno}: expected {len(names)} columns, got {len(row)}")
            yield lineno, row


# Rows joined per write in write_csv: one join per block of rows is as fast
# as one per file, and the joined text stays near 100 kB however long the file.
_CSV_BLOCK_ROWS = 1024


def iso_stamps(start: datetime, step: timedelta, count: int) -> list[str]:
    """``(start + i * step).isoformat()`` for every ``i < count``.

    A naive ``start`` is formatted by numpy, one call per block of rows (one
    call for the whole series would hold a wide fixed-width string array),
    and the ``.000000`` that ``isoformat`` leaves out is stripped. An aware
    one, whose offset numpy cannot show, goes through ``isoformat``.
    """
    if start.tzinfo is not None:
        return [(start + i * step).isoformat() for i in range(count)]
    first, delta = np.datetime64(start, "us"), np.timedelta64(step, "us")
    stamps = []
    for a in range(0, count, _CSV_BLOCK_ROWS):
        block = first + delta * np.arange(a, min(a + _CSV_BLOCK_ROWS, count))
        stamps += [s.removesuffix(".000000")
                   for s in np.datetime_as_string(block, unit="us").tolist()]
    return stamps


def write_csv(path, header: str, *columns) -> Path:
    """Write ``header``, then one comma-joined row per position of the equally
    long ``columns`` of formatted fields; returns the path."""
    path = Path(path)
    rows = map(",".join, zip(*columns, strict=True))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        while block := list(islice(rows, _CSV_BLOCK_ROWS)):
            block.append("")
            fh.write("\n".join(block))
    return path


# ---------------------------------------------------------------------------
# Accuracy metrics
# ---------------------------------------------------------------------------

def _paired(actual, forecast) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=float).reshape(-1)
    f = np.asarray(forecast, dtype=float).reshape(-1)
    if len(a) == 0:
        raise ValueError("empty input")
    if len(a) != len(f):
        raise ValueError(f"length mismatch: {len(a)} vs {len(f)}")
    return a, f


def rmse(actual, forecast) -> float:
    """Root mean squared error between two equally long sequences."""
    a, f = _paired(actual, forecast)
    return math.sqrt(float(np.mean((a - f) ** 2)))


def ape(actual, forecast) -> np.ndarray:
    """Per-point absolute percentage errors (in percent)."""
    a, f = _paired(actual, forecast)
    if np.any(a == 0.0):
        raise ValueError("actual contains zeros; percentage error undefined")
    return 100.0 * np.abs(a - f) / np.abs(a)


def mape(actual, forecast) -> float:
    """Mean absolute percentage error (percent). Rejects zero actuals
    rather than skipping them, so competing models stay comparable."""
    return float(np.mean(ape(actual, forecast)))


def aic(sse: float, n: int, k_params: int) -> float:
    """Gaussian-likelihood information criterion, n*ln(sse/n) + 2k.

    Only comparable between fits produced by this library.
    """
    if sse <= 0:
        raise ValueError("sse must be positive")
    if n <= 0:
        raise ValueError("n must be positive")
    return n * math.log(sse / n) + 2 * k_params
