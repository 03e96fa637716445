"""Loess-based seasonal-trend decomposition with moving-seasonality extraction.

The decomposition is additive throughout: trend + one component per regular
seasonality + one component per moving seasonality + remainder reconstructs
the input exactly (the remainder closes the identity by construction).
Regular components follow MSTL (Bandara, Hyndman & Bergmeir 2021): a fixed
number of outer passes (two, one for a single cycle) re-extracts each
seasonality, the i-th shortest cycle with seasonal window 7 + 4·i, by the
STL inner loop (Cleveland et al. 1990). The decomposition is event-blind:
every smoother of the regular components skips the moving-seasonality
occurrence blocks, so trend and seasonals do not depend on the values inside
them (unless some cycle slot lies inside a block in every cycle, where that
slot's subseries is smoothed unmasked). Each moving-seasonality component is
then the residual those components leave, averaged per within-block offset;
without registered moving seasonalities nothing is masked.

Each regular component is recentered over every complete cycle, so a full
cycle of a component sums to (numerically) zero. Callers wanting a
multiplicative decomposition should log-transform first.

Every smoother is a degree-1 Loess fit with tricube weights, on one of three
paths. Interior windows that touch no excluded point are a single
convolution. Interior windows that touch an excluded block but keep one of
their end points keep the full bandwidth, so they are fitted from five
correlations of the kept mask and the kept values with the kernel moments
(:func:`_moment_fits`), behind a conditioning guard. All other fits (series
edges, windows whose end points are both excluded, windows the guard turns
away, and every point of the cycle-subseries with their one-cycle
extensions) are exact weighted fits, solved in batches by :func:`_fit_grid`.
The scalar :func:`_fit_point` defines every fit: it is the reference the
other paths are tested against, and the fallback for a window whose points
are all excluded.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .timeseries import DataError, TimeSeries, slot_mean, write_csv


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


# Elements of one gathered (rows, points, window) block in _fit_grid. At
# 128 KiB per float array the block's temporaries stay near 1 MB, while the
# per-block numpy overhead stays small next to the arithmetic.
_GATHER_BLOCK = 1 << 14


def _fit_point(y: np.ndarray, x0: float, window: int,
               excluded: np.ndarray | None = None,
               kept_idx: np.ndarray | None = None) -> float:
    """Weighted degree-1 fit at coordinate ``x0`` over the nearest grid points.

    ``kept_idx``, when given, is ``np.flatnonzero(~excluded)``, so that a
    caller fitting many points of one row computes it once.
    """
    n = len(y)
    if window >= n:
        lo, hi = 0, n
    else:
        half = (window - 1) // 2
        lo = min(max(int(math.floor(x0)) - half, 0), n - window)
        hi = lo + window
    idx = np.arange(lo, hi)
    if excluded is not None:
        kept = idx[~excluded[lo:hi]]
        if kept.size == 0:
            # the nearest `window` kept points lie within `window` of x0's
            # insertion point among them
            kept = np.flatnonzero(~excluded) if kept_idx is None else kept_idx
            p = int(np.searchsorted(kept, x0))
            kept = kept[max(p - window, 0):p + window]
            order = np.argsort(np.abs(kept - x0), kind="stable")
            kept = kept[order[:window]]
        # nothing unmasked anywhere: fit from what exists
        idx = kept if kept.size else idx
    vals = y[idx]
    dist = np.abs(idx - x0)
    h = dist.max()
    if h <= 0:
        return float(vals[0])
    u = dist / h
    wts = np.clip(1.0 - u ** 3, 0.0, None) ** 3
    sw = wts.sum()
    if sw <= 0.0:
        return float(vals.mean())
    xb = float((wts * idx).sum() / sw)
    yb = float((wts * vals).sum() / sw)
    sxx = float((wts * (idx - xb) ** 2).sum())
    if sxx <= 1e-12 * max(h * h, 1.0):
        return yb
    slope = float((wts * (idx - xb) * (vals - yb)).sum() / sxx)
    return yb + slope * (x0 - xb)


def _fit_grid(Y: np.ndarray, x0s, window: int,
              excluded: np.ndarray | None = None) -> np.ndarray:
    """:func:`_fit_point` for every row of ``Y`` (k, L) at every coordinate of
    ``x0s``, returned as a (k, len(x0s)) array.

    Each fit is one row of a gathered (k, points, window) block with masked
    tricube weights: the window placement, the bandwidth (the largest distance
    over the kept points of that row) and the degenerate branches are those of
    :func:`_fit_point`, which still handles any (row, x0) whose window keeps no
    point. ``excluded`` is a (k, L) mask or ``None``.
    """
    k, n = Y.shape
    x0s = np.asarray(x0s, dtype=float)
    w = min(window, n)
    if window >= n:
        lo = np.zeros(len(x0s), dtype=np.int64)
    else:
        half = (window - 1) // 2
        lo = np.clip(np.floor(x0s).astype(np.int64) - half, 0, n - window)
    out = np.empty((k, len(x0s)))
    span = np.arange(w)
    kept_all = None if excluded is None else ~excluded
    kept_idx = {}  # row -> its kept indices, for the empty-window fallback
    step = max(1, _GATHER_BLOCK // (k * w))
    for a in range(0, len(x0s), step):
        x0 = x0s[a:a + step]
        idx = lo[a:a + step, None] + span                   # (b, w)
        d = idx - x0[:, None]                               # signed offsets
        dist = np.abs(d)
        vals = Y[:, idx]                                    # (k, b, w)
        if kept_all is None:
            kept = None
            h = np.broadcast_to(dist.max(axis=1), (k, len(x0)))
        else:
            kept = kept_all[:, idx]
            h = np.where(kept, dist, -1.0).max(axis=2)      # -1: nothing kept
        # tricube weights (1 - u^3)^3, zero beyond the bandwidth and off the mask
        u = dist / np.where(h > 0.0, h, 1.0)[..., None]
        wts = u * u
        wts *= u
        np.subtract(1.0, wts, out=wts)
        np.maximum(wts, 0.0, out=wts)
        np.multiply(wts, wts, out=u)
        wts *= u
        if kept is not None:
            wts *= kept
        sw = wts.sum(axis=2)
        safe_sw = np.where(sw > 0.0, sw, 1.0)
        db = np.einsum("kbw,bw->kb", wts, d) / safe_sw
        yb = np.einsum("kbw,kbw->kb", wts, vals) / safe_sw
        dc = d - db[..., None]
        wts *= dc
        sxx = np.einsum("kbw,kbw->kb", wts, dc)
        vals -= yb[..., None]
        sxy = np.einsum("kbw,kbw->kb", wts, vals)
        flat = sxx <= 1e-12 * np.maximum(h * h, 1.0)
        fit = yb - np.divide(sxy, sxx, out=np.zeros_like(sxx), where=~flat) * db
        out[:, a:a + step] = fit
        # degenerate fits, as in _fit_point: one point at x0 gives its value,
        # zero total weight the mean of the kept values, an empty window the
        # scalar fallback
        for r, j in zip(*np.nonzero((sw <= 0.0) | (h <= 0.0))):
            if h[r, j] < 0.0:
                if r not in kept_idx:
                    kept_idx[r] = np.flatnonzero(kept_all[r])
                out[r, a + j] = _fit_point(Y[r], float(x0[j]), window, excluded[r],
                                           kept_idx[r])
                continue
            row = Y[r, idx[j]] if kept is None else Y[r, idx[j]][kept[r, j]]
            out[r, a + j] = row[0] if h[r, j] == 0.0 else row.mean()
    return out


# A masked window's moment fit is kept only when the centred second moment
# sxx = S2 - S1^2/S0 keeps this share of S2, so that its cancellation costs at
# most a factor 10 in precision; thinner windows (few kept points, or all on
# one side) take the exact fit.
_MOMENT_GUARD = 0.1


def _moment_fits(y: np.ndarray, kept: np.ndarray, kernel: np.ndarray,
                 pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degree-1 fits at the interior positions ``pos`` with the tricube
    ``kernel`` times the ``kept`` mask as weights, from five correlations:
    the mask against K, K·d and K·d² (S0, S1, S2) and the kept values against
    K and K·d (T0, T1), d being the offset from the fitted position.

    Returns the fits and a mask of those that pass the conditioning guard
    (``S0 > 0`` and ``sxx > _MOMENT_GUARD * S2``); the others are not valid.
    """
    half = len(kernel) // 2
    lo, hi = pos[0] - half, pos[-1] + half + 1   # the span the fits read
    d = np.arange(-half, half + 1, dtype=float)
    kd = kernel * d
    k = kept[lo:hi].astype(float)
    yk = np.where(kept[lo:hi], y[lo:hi], 0.0)
    at = pos - pos[0]
    s0, s1, s2 = (np.correlate(k, v, "valid")[at] for v in (kernel, kd, kd * d))
    t0, t1 = (np.correlate(yk, v, "valid")[at] for v in (kernel, kd))
    ok = s0 > 0.0
    s0 = np.where(ok, s0, 1.0)
    db, yb = s1 / s0, t0 / s0
    sxx = s2 - s1 * db
    ok &= sxx > _MOMENT_GUARD * s2
    return yb - (t1 - s1 * yb) / np.where(ok, sxx, 1.0) * db, ok


def loess_smooth(y, window: int, excluded: np.ndarray | None = None) -> np.ndarray:
    """Loess-smoothed values at every position of an evenly spaced series.

    ``excluded`` marks positions whose values must not influence the fit
    (they still receive a fitted value, interpolated from their neighbours).

    Three fit paths:

    * an interior window that touches no excluded point: one convolution
      with the tricube kernel;
    * an interior window that touches an excluded point but keeps one of its
      two end points: its bandwidth is still half the window, so its weights
      are the kernel times the kept mask, and :func:`_moment_fits` fits it
      from five correlations with the kernel's moments;
    * every other position (the series edges, a window whose two end points
      are both excluded, and a moment fit that fails its conditioning
      guard): the exact weighted fit, all of them in one batched
      :func:`_fit_grid` call. A window whose points are all excluded falls
      back to the scalar :func:`_fit_point`, which fits from the nearest kept
      points instead.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n == 0:
        raise ValueError("empty input")
    w = _odd_at_least(window)
    if excluded is not None:
        excluded = np.asarray(excluded, dtype=bool)
        if excluded.all():
            raise ValueError("all positions excluded")
        excluded = excluded[None, :] if excluded.any() else None

    if w >= n:
        return _fit_grid(y[None, :], np.arange(n), w, excluded)[0]

    out = np.empty(n)
    half = w // 2
    offsets = np.arange(-half, half + 1)
    u = np.abs(offsets) / half
    kernel = np.clip(1.0 - u ** 3, 0.0, None) ** 3
    kernel /= kernel.sum()
    out[half:n - half] = np.convolve(y, kernel, mode="valid")

    redo = np.zeros(n, dtype=bool)
    redo[:half] = True
    redo[n - half:] = True
    if excluded is not None:
        # windows overlapping an excluded point need the masked weights
        touched = np.convolve(excluded[0].astype(float), np.ones(w), mode="same") > 0
        kept = ~excluded[0]
        end_kept = np.zeros(n, dtype=bool)
        end_kept[half:n - half] = kept[:n - 2 * half] | kept[2 * half:]
        moments = np.flatnonzero(touched & end_kept)
        if moments.size:
            fit, ok = _moment_fits(y, kept, kernel, moments)
            out[moments[ok]] = fit[ok]
            touched[moments[ok]] = False
        redo |= touched
    pos = np.flatnonzero(redo)
    out[pos] = _fit_grid(y[None, :], pos, w, excluded)[0]
    return out


def _moving_average(x: np.ndarray, w: int) -> np.ndarray:
    return np.convolve(x, np.full(w, 1.0 / w), mode="valid")


def _subseries_smooth_extended(u: np.ndarray, s: int, window: int,
                               excluded: np.ndarray | None = None) -> np.ndarray:
    """Smooth each cycle-subseries and extend it one cycle at both ends.

    Subseries of equal length are stacked into one matrix (``len(u) % s``
    splits them into at most two lengths) and fitted at the coordinates
    -1..m in one :func:`_fit_grid` call. A subseries with every point
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
        mask = None
        if excluded is not None:
            mask = excluded[pos]
            mask[mask.all(axis=1)] = False
        ext[rows + s * np.arange(m + 2)] = _fit_grid(u[pos], np.arange(-1, m + 1), w, mask)
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


def _extract_seasonal(u: np.ndarray, s: int, window: int,
                      excluded: np.ndarray | None = None) -> np.ndarray:
    """One STL-style seasonal extraction for cycle length ``s``; the cycle is
    also the low-pass window."""
    n = len(u)
    lowpass_w = _odd_at_least(s)
    trend = np.zeros(n)
    seasonal = np.zeros(n)
    for _ in range(_INNER_ITERATIONS):
        detrended = u - trend
        ext = _subseries_smooth_extended(detrended, s, window, excluded)
        lowpass = _moving_average(_moving_average(_moving_average(ext, s), s), 3)
        lowpass = loess_smooth(lowpass, lowpass_w)
        seasonal = _recenter_cycles(ext[s:s + n] - lowpass, s)
        trend = loess_smooth(u - seasonal, _trend_window(s, window), excluded=excluded)
    return seasonal


def _extract_all_seasonals(
    y: np.ndarray,
    order,
    iterations: int,
    excluded: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
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
    if not block_mask.any():
        block_mask = None

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
    stamps = [t.isoformat() for t in ts.timestamps]
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
            [ts.timestamp_at(occ).isoformat() for occ in dspec.occurrences],
            [ts.timestamp_at(occ + dspec.length).isoformat() for occ in dspec.occurrences],
        ))
    return written
