"""Multi-seasonal time-series container, forecast accuracy metrics and the
CSV format of every file the command line reads and writes.

The :class:`TimeSeries` container holds an evenly spaced observation vector
together with its regular seasonal cycles and its event-window moving
seasonalities (each defined only on irregularly recurring blocks of steps).
Each moving seasonality gets a slot table: the within-block offset of every
step, -1 outside its blocks. Containers are immutable: every mutating
operation returns a new instance, so series can be shared freely across
concurrent fitting jobs.

CSV files are UTF-8 under any locale, with one header line of column names;
:func:`read_csv` skips a byte-order mark and checks the header, and
:func:`write_csv` writes the header and no mark. Callers format the fields:
timestamps as ISO-8601, floats as ``repr``, which reads back bit-exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np

MODES = ("additive", "multiplicative")
SEASON_INIT_METHODS = ("ratio_to_ma", "difference_to_ma")
DIMS_INIT_METHODS = ("ratio_to_ma", "difference_to_ma", "neutral")


class DataError(ValueError):
    """Input data violates a container or ingestion contract."""


def neutral_value(mode: str) -> float:
    """Neutral index value: 0 leaves an additive term unchanged, 1 a factor."""
    return 1.0 if mode == "multiplicative" else 0.0


def _as_int(value, what: str) -> int:
    """``value`` as an ``int`` if it is an integer (a numpy integer too, a
    bool not), else a :class:`TypeError` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, not {type(value).__name__}")
    return int(value)


def _check_id_and_size(spec, kind: str, size: str) -> None:
    """Raise :class:`TypeError` unless ``spec.id`` is a string and its
    ``size`` field an integer (stored as ``int``)."""
    if not isinstance(spec.id, str):
        raise TypeError(f"{kind} id must be a string, not {type(spec.id).__name__}")
    object.__setattr__(spec, size, _as_int(getattr(spec, size), f"{kind} {spec.id!r}: {size}"))


def check_init_method(kind: str, spec_id: str, mode: str, method: str,
                      methods: tuple[str, ...]) -> None:
    """Raise ``ValueError`` unless ``mode`` is known and ``method`` is one of
    ``methods`` that seeds it: ``ratio_to_ma`` a multiplicative index,
    ``difference_to_ma`` an additive one."""
    if mode not in MODES:
        raise ValueError(f"{kind} {spec_id!r}: unknown mode {mode!r}")
    if method not in methods:
        raise ValueError(f"{kind} {spec_id!r}: unknown init_method {method!r}")
    seeded = {"ratio_to_ma": "multiplicative", "difference_to_ma": "additive"}.get(method, mode)
    if seeded != mode:
        raise ValueError(f"{kind} {spec_id!r}: init_method {method!r} seeds {seeded} "
                         f"indices, not {mode}")


@dataclass(frozen=True)
class SeasonSpec:
    """One regular seasonal cycle (e.g. 24 for an hourly daily pattern)."""

    id: str
    cycle_length: int
    mode: str = "multiplicative"
    init_method: str = "auto"

    def __post_init__(self):
        _check_id_and_size(self, "season", "cycle_length")
        if self.cycle_length < 2:
            raise ValueError(f"season {self.id!r}: cycle_length must be >= 2")
        if self.init_method == "auto":
            method = "ratio_to_ma" if self.mode == "multiplicative" else "difference_to_ma"
            object.__setattr__(self, "init_method", method)
        check_init_method("season", self.id, self.mode, self.init_method, SEASON_INIT_METHODS)


@dataclass(frozen=True)
class DimsSpec:
    """A moving seasonality: fixed-length blocks at irregular start positions.

    ``occurrences`` are 0-based start indices into the series; each block
    spans ``[start, start + length)`` and may run past the series end or
    start after it, so the spec also holds the calendar to forecast from.
    Blocks of one spec may not overlap, but blocks of different specs may (a
    holiday inside a festival week). Starts that are negative, out of order
    or overlapping are a :class:`DataError`; a start or a length that is no
    integer a ``TypeError``; a length below 1, an unknown mode or an
    ``init_method`` that does not seed it a plain ``ValueError``.
    """

    id: str
    mode: str
    length: int
    occurrences: tuple[int, ...] = ()
    init_method: str = "neutral"

    def __post_init__(self):
        _check_id_and_size(self, "dims", "length")
        object.__setattr__(self, "occurrences", tuple(
            _as_int(o, f"dims {self.id!r}: occurrence start") for o in self.occurrences))
        if self.length < 1:
            raise ValueError(f"dims {self.id!r}: length must be >= 1")
        check_init_method("dims", self.id, self.mode, self.init_method, DIMS_INIT_METHODS)
        for prev, cur in zip(self.occurrences, self.occurrences[1:]):
            if cur <= prev:
                raise DataError(
                    f"dims {self.id!r}: occurrence starts must be strictly increasing "
                    f"({prev} then {cur})"
                )
            if cur < prev + self.length:
                raise DataError(
                    f"dims {self.id!r}: occurrence block at {cur} overlaps block at {prev} "
                    f"(length {self.length})"
                )
        if self.occurrences and self.occurrences[0] < 0:
            raise DataError(f"dims {self.id!r}: negative occurrence start {self.occurrences[0]}")


def check_clock(start: datetime, step: timedelta) -> None:
    """Raise ``ValueError`` unless ``start`` is naive and ``step`` positive."""
    if start.tzinfo is not None:
        raise ValueError(f"start {start.isoformat()} must be naive, without a UTC offset")
    if step <= timedelta(0):
        raise ValueError(f"step must be a positive duration, not {step}")


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
    of each step, -1 outside blocks. A block that runs past the series end is
    cut there, and one that starts after it leaves no entry; both stay in
    ``spec`` for :func:`~hwdims.hw.project_dims` to read."""
    return _slot_table(spec, 0, n)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Evenly spaced observations with seasonal structure attached.

    The engine tables (the slot tables of the moving seasonalities behind
    :meth:`recurrence`, and the plain lists and the run table that the
    smoothing step loop reads, :attr:`step_lists` and :attr:`step_runs`) are
    built on first use, once per series, so the passes of a search share
    them; a derived series (``prefix``, ``add_dims`` and the like) builds its
    own.
    """

    values: np.ndarray
    step: timedelta = timedelta(hours=1)
    start: datetime = datetime(2000, 1, 3)
    seasons: tuple[SeasonSpec, ...] = ()
    dims: tuple[DimsSpec, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(-1).copy()
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DataError(
                f"{bad.size} non-finite value(s), first at index {bad[0]}: {values[bad[0]]}"
            )
        with np.errstate(over="ignore"):  # then no sum of the observations overflows
            if not np.isfinite(np.abs(values).sum()):
                raise DataError("the observations sum past the float limit in absolute value")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        check_clock(self.start, self.step)
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
        dims_ids = set()
        for spec in self.dims:
            if spec.id in dims_ids:
                raise ValueError(f"duplicate dims id {spec.id!r}")
            dims_ids.add(spec.id)

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def _recurrences(self) -> dict[str, np.ndarray]:
        return {spec.id: compute_recurrence(spec, len(self.values)) for spec in self.dims}

    def recurrence(self, dims_id: str) -> np.ndarray:
        """Slot table of one moving seasonality (see :func:`compute_recurrence`)."""
        try:
            return self._recurrences[dims_id]
        except KeyError:
            raise KeyError(f"unknown dims id {dims_id!r}") from None

    @cached_property
    def step_lists(self) -> tuple[list[float], tuple[list[int], ...]]:
        """The observations and the slot table of every index component
        (regular cycles, ``t % cycle_length``, then moving seasonalities) as
        plain lists over the whole series: the form the smoothing step loop
        reads. Built on first use and kept; callers must not modify them."""
        positions = np.arange(len(self.values))
        slots = [(positions % s.cycle_length).tolist() for s in self.seasons] \
            + [self._recurrences[d.id].tolist() for d in self.dims]
        return self.values.tolist(), tuple(slots)

    @cached_property
    def step_runs(self) -> tuple[tuple[tuple[int, ...], ...], list[tuple[int, int, int]]]:
        """The series cut into runs for the smoothing step loop, as ``(kinds,
        runs)``. A run is a maximal stretch of steps over which the set of
        active moving seasonalities stays the same; its kind is the tuple of
        their indices in ``dims``, ``()`` outside every block. ``kinds`` holds
        each kind that occurs, sorted; ``runs`` holds one ``(start, stop,
        kind)`` per run in series order, ``kind`` an index into ``kinds``.
        Built on first use and kept; callers must not modify them."""
        n = len(self.values)
        active = np.array([self._recurrences[d.id] >= 0 for d in self.dims],
                          dtype=bool).reshape(len(self.dims), n)
        edges = (np.flatnonzero((active[:, 1:] != active[:, :-1]).any(axis=0)) + 1).tolist()
        starts = [0, *edges] if n else []
        members = [tuple(np.flatnonzero(active[:, a]).tolist()) for a in starts]
        kinds = tuple(sorted(set(members)))
        return kinds, [(a, b, kinds.index(k)) for a, b, k in zip(starts, edges + [n], members)]

    def add_season(self, spec: SeasonSpec) -> TimeSeries:
        return replace(self, seasons=self.seasons + (spec,))

    def add_dims(self, spec: DimsSpec) -> TimeSeries:
        """Register a moving seasonality."""
        return replace(self, dims=self.dims + (spec,))

    def prefix(self, n: int) -> TimeSeries:
        """First ``n`` observations with every moving-seasonality block kept:
        its slot tables are the first ``n`` entries of this series' own, so a
        pass over the prefix is the full pass stopped at ``n``."""
        if not 0 < n <= len(self.values):
            raise ValueError(f"prefix length {n} outside 1..{len(self.values)}")
        return replace(self, values=self.values[:n])


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------

def read_csv(path, header: str):
    """Yield ``(line number, fields)`` for each non-blank row of a CSV file whose
    first line starts with the column names ``header`` (case and spaces ignored).
    A row with fewer fields than ``header`` names, bytes that are not UTF-8
    and a row the ``csv`` module cannot split are a :class:`DataError`."""
    names = header.split(",")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None or [c.strip().lower() for c in first[:len(names)]] != names:
                raise DataError(f"{path}: expected header '{header}'")
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < len(names):
                    raise DataError(f"row {lineno}: expected {len(names)} columns, got {len(row)}")
                yield lineno, row
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}: {exc}") from exc


# Rows joined per write in write_csv: one join per block of rows is as fast
# as one per file, and the joined text stays near 100 kB however long the file.
_CSV_BLOCK_ROWS = 1024


def iso_stamps(start: datetime, step: timedelta, positions) -> list[str]:
    """``(start + i * step).isoformat()`` for each ``i`` of the ascending step
    ``positions`` (a ``range``, list or int array) from a naive ``start``; the
    last position past the year 9999 is a :class:`DataError` before any array
    is built. numpy formats one block of rows per call (one call for a whole
    series would hold a wide fixed-width string array); the ``.000000`` that
    ``isoformat`` leaves out is stripped.
    """
    last = int(max(positions[-1:], default=0))  # len() of a huge range overflows
    try:
        start + last * step
    except OverflowError:
        raise DataError(f"{last} steps of {step} from {start.isoformat()} run past "
                        f"the year 9999") from None
    first, delta = np.datetime64(start, "us"), np.timedelta64(step, "us")
    stamps = []
    for a in range(0, len(positions), _CSV_BLOCK_ROWS):
        block = first + delta * np.asarray(positions[a:a + _CSV_BLOCK_ROWS], dtype=np.int64)
        stamps += [s.removesuffix(".000000")
                   for s in np.datetime_as_string(block, unit="us").tolist()]
    return stamps


def write_csv(path, header: str, *columns) -> Path:
    """Write ``header``, then one comma-joined row per position of the equally
    long ``columns`` of formatted fields; returns the path."""
    path = Path(path)
    rows = map(",".join, zip(*columns, strict=True))
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
        raise DataError("actual contains zeros; percentage error undefined")
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
