"""Loess-based seasonal-trend decomposition with moving-seasonality extraction.

The decomposition is additive throughout: trend + one component per regular
seasonality + one component per moving seasonality + remainder reconstructs
the input exactly (the remainder closes the identity by construction).
Regular components follow MSTL (Bandara, Hyndman & Bergmeir 2021): a fixed
number of outer passes (two, one for a single cycle) re-extracts each
seasonality, the i-th shortest cycle with seasonal window 7 + 4·i, in two
STL passes (Cleveland et al. 1990). The decomposition is event-blind:
every smoother of the regular components skips the moving-seasonality
occurrence blocks, so trend and seasonals do not depend on the values inside
them, unless a smoother row has every point inside a block: such a row (a
cycle slot's subseries, or the whole series) is smoothed unmasked. Each
moving-seasonality component is then the residual those components leave,
averaged per within-block offset; without registered moving seasonalities
nothing is masked. A mask is always a bool array: "no mask" is one that
keeps every point.

Each regular component is recentered over every complete cycle, so a full
cycle of a component sums to (numerically) zero. Callers wanting a
multiplicative decomposition should log-transform first.

Every smoother is a degree-1 Loess fit with tricube weights. What a
smoother needs that depends only on its shape, window and mask (the route
of each fit, the mask's kernel moments, the nearest kept points of windows
that keep none) is its one plan, built by :func:`_plan` from one running
count of the kept points and kept in a small memo, so the passes of one
decomposition, which repeat each smoother with one mask, reuse it; the plan
runs every fit of the smoother, the exact ones included. The trend and
low-pass smoothers are plans over one row; the cycle-subseries smoother is
one plan over the stacked subseries, fitted one point past both ends.
Interior windows that touch no excluded point are a single convolution.
Interior windows that touch an excluded block but keep one of their end
points keep the full bandwidth, so they are fitted from the correlations of
the kept values with the kernel and its first moment, and two coefficients
per window from the kept mask's moments, behind a conditioning guard. All
other fits (the row ends, windows whose end points are both excluded,
windows the guard turns away) are exact weighted fits, with the nearest
kept points standing in for a window that keeps none. Every route computes
the same weighted fit over the nearest ``window`` grid points; the test
suite keeps it as a scalar reference, one call per point, and checks every
route against it.
"""

from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .timeseries import DataError, TimeSeries, iso_stamps, slot_mean, write_csv


# STL inner-loop passes per seasonal extraction (Cleveland et al. 1990).
_INNER_ITERATIONS = 2
# MSTL outer passes with two or more regular cycles; one cycle gets a single
# pass, since a second would re-extract it from the same input.
_OUTER_ITERATIONS = 2


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Components of :func:`mstl` after ``iterations`` outer passes (0 without
    regular seasonalities). ``converged`` is always ``True``: the fixed
    schedule has no cap to hit, and the field stays for its readers."""

    series: TimeSeries
    trend: np.ndarray
    seasonals: dict[str, np.ndarray]
    dims_components: dict[str, np.ndarray]
    dims_profiles: dict[str, np.ndarray]
    remainder: np.ndarray
    converged: bool
    iterations: int

    def reconstruction(self) -> np.ndarray:
        total = self.trend + self.remainder
        for comp in self.seasonals.values():
            total = total + comp
        for comp in self.dims_components.values():
            total = total + comp
        return total


# ---------------------------------------------------------------------------
# Loess primitives (degree-1 local regression, tricube weights)
# ---------------------------------------------------------------------------

def _odd_at_least(x: float) -> int:
    w = max(3, int(math.ceil(x)))
    return w if w % 2 == 1 else w + 1


# Elements of one gathered (fits, window) block of exact fits. At 64 KiB per
# float array the block's temporaries stay near 0.5 MB, while the per-block
# numpy overhead stays small next to the arithmetic.
_GATHER_BLOCK = 1 << 13

# Smoother plans kept by _plan; one mstl uses six (two trend windows, two
# cycle-subseries smoothers and two low-pass windows).
_PLANS = 16


def _tricube_weights(d: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Weights of the exact fit at offset 0 from points at the signed
    offsets ``d`` (b, w), of which ``kept`` marks those that count (each row
    keeps at least one): the fit is the dot product of a row of weights with
    the values at those points.

    The bandwidth is the largest kept distance. A single kept point at
    offset 0 gives its value, zero total weight the mean of the kept values,
    and a flat design the weighted mean.
    """
    dist = np.abs(d)
    h = np.where(kept, dist, 0.0).max(axis=1)
    # tricube weights (1 - u^3)^3, zero beyond the bandwidth and off the mask
    u = dist / np.where(h > 0.0, h, 1.0)[:, None]
    wts = u * u
    wts *= u
    np.subtract(1.0, wts, out=wts)
    np.maximum(wts, 0.0, out=wts)
    np.multiply(wts, wts, out=u)
    wts *= u
    wts *= kept
    sw = wts.sum(axis=1)
    unweighted = sw <= 0.0
    if unweighted.any():
        wts[unweighted] = kept[unweighted]
        sw = wts.sum(axis=1)
    # fit = yb - db * sxy / sxx, with yb and sxy linear in the values
    db = np.einsum("bw,bw->b", wts, d) / sw
    dc = d - db[:, None]
    sxx = np.einsum("bw,bw,bw->b", wts, dc, dc)
    flat = (sxx <= 1e-12 * np.maximum(h * h, 1.0)) | unweighted
    slope = np.divide(db, sxx, out=np.zeros_like(sxx), where=~flat)
    dc *= slope[:, None]
    np.subtract((1.0 / sw)[:, None], dc, out=dc)
    wts *= dc
    return wts


# A masked window's moment fit is kept only when the centred second moment
# sxx = S2 - S1^2/S0 keeps this share of S2, so that its cancellation costs at
# most a factor 10 in precision; thinner windows (few kept points, or all on
# one side) take the exact fit.
_MOMENT_GUARD = 0.1


def _correlate(rows: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Valid correlations of each row of the (k, L) ``rows`` with each column
    of the (w, c) ``kernels``, as a (c, k, L - w + 1) array."""
    if len(rows) == 1:
        # one long row: numpy's correlate, since the windowed product below
        # would copy its L x w windows
        out = np.empty((kernels.shape[1], 1, rows.shape[1] - len(kernels) + 1))
        for v, o in zip(kernels.T, out):
            o[0] = np.correlate(rows[0], v, "valid")
        return out
    windows = np.lib.stride_tricks.sliding_window_view(rows, len(kernels), axis=1)
    return np.moveaxis(windows @ kernels, -1, 0).copy()


@dataclass(frozen=True, eq=False)
class _Plan:
    """What a Loess smoother of one window over a (k, L) matrix, fitted at the
    coordinates -ext..L-1+ext of each row, needs that depends only on the
    shape, the window and the mask (see :func:`_plan`). Positions are flat.

    The interior columns ``half..L-1-half`` are the correlations of the kept
    values with ``kernels``: the tricube kernel K, and with a mask also K·d
    (d the offset). There a window that keeps every point is the first
    correlation T0 (the convolution), and each interior position in
    ``moment_at`` is ``A·T0 - B·T1`` with (A, B) from ``moment_coef``. Every
    other output (``exact_at``) is an exact fit at the coordinate ``x0``:
    first the near fits, over the window from each ``start`` with ``kept``
    marking the points that count, then the far fits, whose window keeps no
    point, over the nearest kept points of the row, ``far_idx`` (padded to
    the window; ``far_kept`` marks the real entries).
    """

    ext: int
    half: int
    kernels: np.ndarray | None
    kept: np.ndarray
    moment_at: np.ndarray
    moment_coef: np.ndarray
    exact_at: np.ndarray
    x0: np.ndarray
    start: np.ndarray
    far_idx: np.ndarray
    far_kept: np.ndarray

    def fit(self, Y: np.ndarray) -> np.ndarray:
        """The smoothed (k, L + 2·ext) values of the (k, L) ``Y``."""
        k, n = Y.shape
        out = np.empty((k, n + 2 * self.ext))
        if self.kernels is not None:
            t = _correlate(np.where(self.kept, Y, 0.0), self.kernels)
            if len(self.moment_at):
                at = self.moment_at
                a, b = self.moment_coef
                t0 = t[0].reshape(-1)
                t0[at] = a * t0[at] - b * t[1].reshape(-1)[at]
            out[:, self.ext + self.half:self.ext + n - self.half] = t[0]
        flat, values, kept = out.reshape(-1), Y.reshape(-1), self.kept.reshape(-1)
        width = min(2 * self.half + 1, n)
        near = len(self.start)
        step = max(1, _GATHER_BLOCK // width)
        for a in range(0, near, step):
            b = min(a + step, near)
            idx = self.start[a:b, None] + np.arange(width)
            wts = _tricube_weights(idx - self.x0[a:b, None], kept[idx])
            flat[self.exact_at[a:b]] = np.einsum("bw,bw->b", wts, values[idx])
        if len(self.far_idx):
            wts = _tricube_weights(self.far_idx - self.x0[near:, None], self.far_kept)
            flat[self.exact_at[near:]] = np.einsum("bw,bw->b", wts, values[self.far_idx])
        return out


@functools.lru_cache(maxsize=_PLANS)
def _plan(shape: tuple[int, int], window: int, ext: int, mask: bytes) -> _Plan:
    """The plan of the smoother of odd ``window`` over a ``shape`` (k, L)
    matrix, fitted at -ext..L-1+ext, with the points of ``mask`` (the bytes of
    a (k, L) bool array; all False keeps every point) excluded. A row with
    every point excluded keeps them all: it is fitted unmasked. A mask that
    keeps every point gets the one-kernel correlation of the unmasked
    smoother.

    Each fit takes one of three routes. An interior window that keeps every
    point is a convolution. An interior window that excludes a point but keeps
    one of its two end points keeps the full bandwidth, so its weights are the
    kernel times the kept mask: it is fitted from the correlations T0 and T1
    of the kept values with K and K·d, and the correlations S0, S1, S2 of the
    kept mask with K, K·d and K·d², worked out here, give its two
    coefficients, unless the conditioning guard (``S0 > 0`` and
    ``sxx > _MOMENT_GUARD * S2``) turns it away. Every other fit (the row
    ends, windows that keep neither end point, guarded windows, and every fit
    when the window is longer than a row) is exact, over the nearest
    ``window`` kept points of its row when its window keeps none. One count
    of the kept points finds the windows of both kinds.
    """
    k, n = shape
    half = window // 2
    kept = ~np.frombuffer(mask, bool).reshape(shape)
    kept[~kept.any(axis=1)] = True
    counts = np.zeros((k, n + 1), dtype=np.int64)
    np.cumsum(kept, axis=1, out=counts[:, 1:])
    exact = np.ones((k, n + 2 * ext), dtype=bool)
    kernels = None
    moment_at = np.zeros(0, dtype=np.int64)
    moment_coef = np.zeros((2, 0))
    inner = n - 2 * half  # interior positions per row
    if inner > 0:
        d = np.arange(-half, half + 1, dtype=float)
        kernel = np.clip(1.0 - (np.abs(d) / half) ** 3, 0.0, None) ** 3
        kernel /= kernel.sum()
        kernels = kernel[:, None]
        interior = exact[:, ext + half:ext + n - half]
        interior[:] = False
        if not kept.all():
            kernels = np.stack([kernel, kernel * d], axis=1)
            touched = counts[:, window:] - counts[:, :inner] < window
            candidates = np.flatnonzero(touched & (kept[:, :inner] | kept[:, 2 * half:]))
            s0, s1, s2 = _correlate(kept.astype(float), np.stack(
                [kernel, kernel * d, kernel * d * d], axis=1)).reshape(3, -1)[:, candidates]
            ok = s0 > 0.0
            s0[~ok] = 1.0
            db = s1 / s0
            sxx = s2 - s1 * db
            ok &= sxx > _MOMENT_GUARD * s2
            moment_at = candidates[ok]
            db, sxx = db[ok], sxx[ok]
            moment_coef = np.stack([(1.0 + s1[ok] * db / sxx) / s0[ok], db / sxx])
            touched.reshape(-1)[moment_at] = False
            interior[:] = touched
    rows, cols = np.nonzero(exact)
    cols -= ext
    width = min(window, n)
    lo = np.clip(cols - half, 0, n - width)
    far = counts[rows, lo + width] == counts[rows, lo]
    order = np.argsort(far, kind="stable")  # the near fits first
    rows, cols, lo = rows[order], cols[order], lo[order]
    near = len(far) - int(far.sum())
    far_idx = np.zeros((len(order) - near, window), dtype=np.int64)
    far_kept = np.zeros(far_idx.shape, dtype=bool)
    kept_idx = [np.flatnonzero(row) for row in kept] if len(far_idx) else []
    for j, (r, x0) in enumerate(zip(rows[near:].tolist(), cols[near:].tolist())):
        # the nearest `window` kept points, ties to the lower index
        idx = kept_idx[r]
        p = int(np.searchsorted(idx, x0))
        idx = idx[max(p - window, 0):p + window]
        idx = idx[np.argsort(np.abs(idx - x0), kind="stable")[:window]]
        far_idx[j, :len(idx)] = r * n + idx
        far_kept[j, :len(idx)] = True
    base = rows * n
    return _Plan(ext, half, kernels, kept, moment_at, moment_coef,
                 np.flatnonzero(exact)[order], (base + cols).astype(float), (base + lo)[:near],
                 far_idx, far_kept)


def loess_smooth(y, window: int, excluded: np.ndarray | None = None) -> np.ndarray:
    """Loess-smoothed values at every position of an evenly spaced series.

    ``excluded`` marks positions whose values must not influence the fit
    (they still receive a fitted value, interpolated from their neighbours);
    ``None`` excludes none, and so does a mask that excludes every position:
    with nothing left to fit from, the series is smoothed unmasked.
    The fits follow the routes of :func:`_plan`, whose plan is built once per
    length, window and mask and reused by later calls.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n == 0:
        raise ValueError("empty input")
    excluded = np.zeros(n, bool) if excluded is None else np.asarray(excluded, dtype=bool)
    return _plan((1, n), _odd_at_least(window), 0, excluded.tobytes()).fit(y[None, :])[0]


def _moving_average(x: np.ndarray, w: int) -> np.ndarray:
    return np.convolve(x, np.full(w, 1.0 / w), mode="valid")


def _subseries_smooth_extended(u: np.ndarray, s: int, window: int,
                               excluded: np.ndarray) -> np.ndarray:
    """Smooth each cycle-subseries and extend it one cycle at both ends.

    Subseries of equal length are stacked into one matrix (``len(u) % s``
    splits them into at most two lengths) and smoothed at the coordinates
    -1..m by one plan (see :func:`_plan`). A subseries with every point
    excluded is smoothed unmasked, since no event-free cycle exists for it.
    """
    n = len(u)
    w = _odd_at_least(window)
    ext = np.empty(n + 2 * s)
    cycles, extra = divmod(n, s)
    for q0, q1, m in ((0, extra, cycles + 1), (extra, s, cycles)):
        if q0 == q1 or m == 0:
            continue
        rows = np.arange(q0, q1)[:, None]
        pos = rows + s * np.arange(m)
        plan = _plan(pos.shape, w, 1, excluded[pos].tobytes())
        ext[rows + s * np.arange(m + 2)] = plan.fit(u[pos])
    return ext


def _recenter_cycles(x: np.ndarray, s: int) -> np.ndarray:
    """Subtract each complete aligned cycle's mean so full cycles sum to ~0."""
    out = x.copy()
    m = len(x) // s
    if m:
        head = out[:m * s].reshape(m, s)
        head -= head.mean(axis=1, keepdims=True)
    return out


def _seasonal_window(rank: int) -> int:
    """MSTL's seasonal window for the ``rank``-th shortest cycle (from 1)."""
    return 7 + 4 * rank


def _trend_window(cycle: int, seasonal_window: int) -> int:
    """STL's trend window: next odd integer >= 1.5 * cycle / (1 - 1.5 / seasonal window)."""
    return _odd_at_least(1.5 * cycle / (1.0 - 1.5 / seasonal_window))


def _extract_seasonal(u: np.ndarray, s: int, window: int, excluded: np.ndarray) -> np.ndarray:
    """One STL-style seasonal extraction for cycle length ``s``; the cycle is
    also the low-pass window. Each later pass reads ``u`` less the trend of
    ``u`` less the last seasonal; the last pass smooths no trend (MSTL keeps none)."""
    lowpass_w = _odd_at_least(s)
    detrended = u
    for i in range(_INNER_ITERATIONS):
        if i:
            detrended = u - loess_smooth(u - seasonal, _trend_window(s, window), excluded=excluded)
        ext = _subseries_smooth_extended(detrended, s, window, excluded)
        lowpass = _moving_average(_moving_average(_moving_average(ext, s), s), 3)
        lowpass = loess_smooth(lowpass, lowpass_w)
        seasonal = _recenter_cycles(ext[s:-s] - lowpass, s)
    return seasonal


def _extract_all_seasonals(y: np.ndarray, order, iterations: int,
                           excluded: np.ndarray) -> dict[str, np.ndarray]:
    """Re-extract each seasonality of ``order`` (shortest cycle first) against
    the series minus the others, ``iterations`` times."""
    seasonals = {spec.id: np.zeros(len(y)) for spec in order}
    rest = y.copy()  # the series minus every current seasonal estimate
    for _ in range(iterations):
        for rank, spec in enumerate(order, start=1):
            rest += seasonals[spec.id]
            seasonals[spec.id] = _extract_seasonal(
                rest, spec.cycle_length, _seasonal_window(rank), excluded
            )
            rest -= seasonals[spec.id]
    return seasonals


# ---------------------------------------------------------------------------
# Public decomposition API
# ---------------------------------------------------------------------------

def mstl(ts: TimeSeries) -> DecompositionResult:
    """Multiple-seasonal decomposition of ``ts`` in one MSTL pass with every
    smoother blind to the moving-seasonality occurrence blocks.

    The regular seasonals (:data:`_OUTER_ITERATIONS` outer passes, one for a
    single cycle) and the trend (the longest cycle's trend window) are fitted
    with the blocks excluded, so values inside a block never reach them.
    Each moving-seasonality profile is then the per-offset mean of what the
    regular components and the earlier profiles leave, and what every
    component leaves is the remainder.

    Raises :class:`DataError` when fewer than two full cycles of any regular
    seasonality are available.
    """
    y = ts.values
    n = len(y)
    for spec in ts.seasons:
        if n < 2 * spec.cycle_length:
            raise DataError(
                f"season {spec.id!r}: need >= {2 * spec.cycle_length} points "
                f"(2 cycles), series has {n}"
            )
    block_mask = np.zeros(n, dtype=bool)
    for dspec in ts.dims:
        block_mask |= ts.recurrence(dspec.id) >= 0

    order = sorted(ts.seasons, key=lambda s: s.cycle_length)
    iterations = _OUTER_ITERATIONS if len(order) > 1 else len(order)
    seasonals = _extract_all_seasonals(y, order, iterations, block_mask)
    seasonal_sum = sum(seasonals.values(), np.zeros(n))
    longest = max((s.cycle_length for s in ts.seasons), default=max(3, n // 10))
    trend_window = _trend_window(longest, _seasonal_window(len(order)))
    trend = loess_smooth(y - seasonal_sum, trend_window, excluded=block_mask)

    dims_components: dict[str, np.ndarray] = {}
    dims_profiles: dict[str, np.ndarray] = {}
    remainder = y - trend - seasonal_sum
    for dspec in ts.dims:
        slots = ts.recurrence(dspec.id)
        profile = slot_mean(remainder, slots, dspec.length, 0.0)
        component = np.where(slots >= 0, profile[slots], 0.0)
        dims_components[dspec.id] = component
        dims_profiles[dspec.id] = profile
        remainder = remainder - component

    return DecompositionResult(
        series=ts,
        trend=trend,
        seasonals={spec.id: seasonals[spec.id] for spec in ts.seasons},
        dims_components=dims_components,
        dims_profiles=dims_profiles,
        remainder=remainder,
        converged=True,
        iterations=iterations,
    )


def stl(ts: TimeSeries, season_id: str) -> DecompositionResult:
    """Single-seasonality decomposition: the named cycle only, no moving
    seasonalities."""
    matches = [s for s in ts.seasons if s.id == season_id]
    if not matches:
        raise KeyError(f"unknown season id {season_id!r}")
    view = replace(ts, seasons=(matches[0],), dims=())
    return mstl(view)


# ---------------------------------------------------------------------------
# Plot-data export
# ---------------------------------------------------------------------------

def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def panel_names(prefix: str, ids) -> list[str]:
    """File stems ``prefix + safe id`` of the export panels, one per id.

    Raises :class:`ValueError`, naming both ids, when two ids map to the same
    stem, since one panel would overwrite the other.
    """
    owners: dict[str, str] = {}
    for pid in ids:
        name = prefix + _safe_name(pid)
        if name in owners:
            raise ValueError(f"ids {owners[name]!r} and {pid!r} would both be "
                             f"exported as {name!r}")
        owners[name] = pid
    return list(owners)


def stlplot_export(result: DecompositionResult, out_dir) -> list[Path]:
    """Write the decomposition as plot-ready CSV panels.

    One ``timestamp,value`` file per panel (original, trend, each seasonal,
    remainder); per moving seasonality a ``slot,value`` profile file plus a
    ``start_timestamp,end_timestamp`` occurrence-location file (end
    exclusive). Two season ids, or two moving-seasonality ids, that share a
    file name (see :func:`panel_names`) raise :class:`ValueError` before any
    file is written.
    """
    ts = result.series
    season_names = panel_names("seasonal_", [s.id for s in ts.seasons])
    dims_names = panel_names("dims_", [d.id for d in ts.dims])
    out = Path(out_dir)
    os.makedirs(out, exist_ok=True)
    stamps = iso_stamps(ts.start, ts.step, range(len(ts)))
    panels = [("original", ts.values), ("trend", result.trend)]
    panels += [(name, result.seasonals[s.id]) for name, s in zip(season_names, ts.seasons)]
    panels.append(("remainder", result.remainder))
    written = [write_csv(out / f"{name}.csv", "timestamp,value", stamps, map(repr, v.tolist()))
               for name, v in panels]

    for name, dspec in zip(dims_names, ts.dims):
        profile = result.dims_profiles[dspec.id]
        written.append(write_csv(out / f"{name}_profile.csv", "slot,value",
                                 map(str, range(len(profile))), map(repr, profile.tolist())))
        written.append(write_csv(
            out / f"{name}_locations.csv", "start_timestamp,end_timestamp",
            iso_stamps(ts.start, ts.step, dspec.occurrences),
            iso_stamps(ts.start, ts.step, [occ + dspec.length for occ in dspec.occurrences]),
        ))
    return written
