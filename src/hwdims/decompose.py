"""Loess-based seasonal-trend decomposition with moving-seasonality extraction.

The decomposition is additive throughout: trend + one component per regular
seasonality + one component per moving seasonality + remainder reconstructs
the input exactly (the remainder closes the identity by construction).
Regular components are extracted by cycle-subseries Loess smoothing inside an
outer refinement loop that cycles through the seasonalities until they stop
changing. Moving-seasonality components are extracted afterwards from the
detrended, deseasonalized residual: the values at the occurrence blocks are
averaged per within-block offset, so the regular components never depend on
whether moving seasonalities are registered.

Each regular component is recentered over every complete cycle, so a full
cycle of a component sums to (numerically) zero. Callers wanting a
multiplicative decomposition should log-transform first.

Every smoother is a degree-1 Loess fit with tricube weights. Interior
windows that touch no excluded point are a single convolution; all other
fits (series edges, windows that touch an excluded block, and every point
of the cycle-subseries with their one-cycle extensions) are exact weighted
fits, solved in batches by :func:`_fit_grid`. The scalar :func:`_fit_point`
defines those fits: it is the reference the batched kernel is tested
against, and the fallback for a window whose points are all excluded.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .timeseries import DataError, TimeSeries, slot_mean


@dataclass(frozen=True)
class LoessConfig:
    """Smoothing windows and iteration limits for the decomposition.

    ``trend_window=None`` derives the classic default from the longest cycle:
    next odd integer >= 1.5 * cycle / (1 - 1.5 / seasonal_window).
    """

    seasonal_window: int = 7
    trend_window: int | None = None
    lowpass_window: int | None = None
    inner_iterations: int = 2
    max_outer_iterations: int = 10
    convergence_tol: float = 1e-6


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Components of :func:`mstl`. ``last_delta`` is the largest change of a
    regular component in the last outer iteration; the loop converged when
    it fell to ``convergence_tol`` times the series' largest absolute value."""

    series: TimeSeries
    trend: np.ndarray
    seasonals: dict[str, np.ndarray]
    dims_components: dict[str, np.ndarray]
    dims_profiles: dict[str, np.ndarray]
    remainder: np.ndarray
    converged: bool
    iterations: int
    last_delta: float

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


def loess_smooth(y, window: int, excluded: np.ndarray | None = None) -> np.ndarray:
    """Loess-smoothed values at every position of an evenly spaced series.

    ``excluded`` marks positions whose values must not influence the fit
    (they still receive a fitted value, interpolated from their neighbours).

    Interior windows that touch no excluded point are one convolution with
    the tricube kernel. Every other position (the series edges and each
    window that touches an excluded point) gets the exact weighted fit,
    all of them in one batched :func:`_fit_grid` call; a window whose points
    are all excluded falls back to the scalar :func:`_fit_point`, which fits
    from the nearest kept points instead.
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
        # windows overlapping an excluded point need the exact weighted fit
        redo |= np.convolve(excluded[0].astype(float), np.ones(w), mode="same") > 0
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


def _trend_window(cycle: int, cfg: LoessConfig) -> int:
    if cfg.trend_window is not None:
        return _odd_at_least(cfg.trend_window)
    return _odd_at_least(1.5 * cycle / (1.0 - 1.5 / cfg.seasonal_window))


def _extract_seasonal(u: np.ndarray, s: int, cfg: LoessConfig,
                      excluded: np.ndarray | None = None) -> np.ndarray:
    """One STL-style seasonal extraction for cycle length ``s``."""
    n = len(u)
    lowpass_w = _odd_at_least(cfg.lowpass_window if cfg.lowpass_window is not None else s)
    trend = np.zeros(n)
    seasonal = np.zeros(n)
    for _ in range(max(1, cfg.inner_iterations)):
        detrended = u - trend
        ext = _subseries_smooth_extended(detrended, s, cfg.seasonal_window, excluded)
        lowpass = _moving_average(_moving_average(_moving_average(ext, s), s), 3)
        lowpass = loess_smooth(lowpass, lowpass_w)
        seasonal = _recenter_cycles(ext[s:s + n] - lowpass, s)
        trend = loess_smooth(u - seasonal, _trend_window(s, cfg), excluded=excluded)
    return seasonal


def _extract_all_seasonals(
    y: np.ndarray,
    order,
    cfg: LoessConfig,
    tol: float,
    excluded: np.ndarray | None = None,
) -> tuple[dict[str, np.ndarray], bool, int, float]:
    """Outer refinement loop: re-extract each seasonality against the series
    minus the others until no component moves more than ``tol``. Returns the
    components, whether they converged, the iterations run and the last
    iteration's largest change."""
    n = len(y)
    seasonals = {spec.id: np.zeros(n) for spec in order}
    converged = not order
    iterations = 0
    delta = 0.0
    for _ in range(max(1, cfg.max_outer_iterations)):
        if not order:
            break
        iterations += 1
        delta = 0.0
        for spec in order:
            others = np.zeros(n)
            for other in order:
                if other.id != spec.id:
                    others += seasonals[other.id]
            new = _extract_seasonal(y - others, spec.cycle_length, cfg, excluded)
            delta = max(delta, float(np.max(np.abs(new - seasonals[spec.id]))))
            seasonals[spec.id] = new
        if delta <= tol:
            converged = True
            break
    return seasonals, converged, iterations, delta


# ---------------------------------------------------------------------------
# Public decomposition API
# ---------------------------------------------------------------------------

def mstl(ts: TimeSeries, config: LoessConfig | None = None) -> DecompositionResult:
    """Multiple-seasonal decomposition of ``ts`` with moving-seasonality
    components extracted after the regular ones converge.

    Raises :class:`DataError` when fewer than two full cycles of any regular
    seasonality are available. A hit iteration cap is reported through
    ``converged=False`` rather than an error.
    """
    cfg = config or LoessConfig()
    y = ts.values
    n = len(y)
    for spec in ts.seasons:
        if n < 2 * spec.cycle_length:
            raise DataError(
                f"season {spec.id!r}: need >= {2 * spec.cycle_length} points "
                f"(2 cycles), series has {n}"
            )
    scale = float(np.max(np.abs(y))) if n else 0.0
    tol = cfg.convergence_tol * max(scale, 1e-300)

    order = sorted(ts.seasons, key=lambda s: s.cycle_length)
    seasonals, converged, iterations, last_delta = _extract_all_seasonals(y, order, cfg, tol)
    seasonal_sum = np.zeros(n)
    for comp in seasonals.values():
        seasonal_sum += comp

    block_mask = np.zeros(n, dtype=bool)
    for dspec in ts.dims:
        block_mask |= ts.recurrence(dspec.id) >= 0
    if not block_mask.any():
        block_mask = None
    longest = max((s.cycle_length for s in ts.seasons), default=max(3, n // 10))
    trend_window = _trend_window(longest, cfg)
    trend = loess_smooth(y - seasonal_sum, trend_window, excluded=block_mask)

    # The event residual is measured against an event-blind baseline: with
    # occurrence blocks masked out of every smoother, the regular components
    # carry no echo of the events, so the per-slot averages see the full
    # event effect. The reported trend/seasonals above stay independent of
    # the moving-seasonality registry.
    if block_mask is not None:
        masked_seasonals, *_ = _extract_all_seasonals(y, order, cfg, tol, block_mask)
        masked_sum = np.zeros(n)
        for comp in masked_seasonals.values():
            masked_sum += comp
        masked_trend = loess_smooth(y - masked_sum, trend_window, excluded=block_mask)
        event_residual = y - masked_trend - masked_sum
    else:
        event_residual = y - trend - seasonal_sum

    dims_components: dict[str, np.ndarray] = {}
    dims_profiles: dict[str, np.ndarray] = {}
    work = event_residual.copy()
    for dspec in ts.dims:
        slots = ts.recurrence(dspec.id)
        profile = slot_mean(work, slots, dspec.length, 0.0)
        component = np.where(slots >= 0, profile[slots], 0.0)
        dims_components[dspec.id] = component
        dims_profiles[dspec.id] = profile
        work = work - component

    remainder = y - trend - seasonal_sum
    for comp in dims_components.values():
        remainder = remainder - comp

    return DecompositionResult(
        series=ts,
        trend=trend,
        seasonals={spec.id: seasonals[spec.id] for spec in ts.seasons},
        dims_components=dims_components,
        dims_profiles=dims_profiles,
        remainder=remainder,
        converged=converged,
        iterations=iterations,
        last_delta=last_delta,
    )


def stl(ts: TimeSeries, season_id: str, config: LoessConfig | None = None) -> DecompositionResult:
    """Single-seasonality decomposition: the named cycle only, no moving
    seasonalities."""
    matches = [s for s in ts.seasons if s.id == season_id]
    if not matches:
        raise KeyError(f"unknown season id {season_id!r}")
    view = replace(ts, seasons=(matches[0],), dims=())
    return mstl(view, config)


# ---------------------------------------------------------------------------
# Plot-data export
# ---------------------------------------------------------------------------

def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def _write_series_csv(path: Path, timestamps, values) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,value\n")
        for t, v in zip(timestamps, values):
            fh.write(f"{t.isoformat()},{float(v)!r}\n")


def stlplot_export(result: DecompositionResult, out_dir) -> list[Path]:
    """Write the decomposition as plot-ready CSV panels.

    One ``timestamp,value`` file per panel (original, trend, each seasonal,
    remainder); per moving seasonality a ``slot,value`` profile file plus a
    ``start_timestamp,end_timestamp`` occurrence-location file (end
    exclusive).
    """
    out = Path(out_dir)
    os.makedirs(out, exist_ok=True)
    ts = result.series
    stamps = ts.timestamps
    written: list[Path] = []

    def emit(name, values):
        path = out / name
        _write_series_csv(path, stamps, values)
        written.append(path)

    emit("original.csv", ts.values)
    emit("trend.csv", result.trend)
    for season in ts.seasons:
        emit(f"seasonal_{_safe_name(season.id)}.csv", result.seasonals[season.id])
    emit("remainder.csv", result.remainder)

    for dspec in ts.dims:
        profile_path = out / f"dims_{_safe_name(dspec.id)}_profile.csv"
        with open(profile_path, "w", newline="") as fh:
            fh.write("slot,value\n")
            for q, v in enumerate(result.dims_profiles[dspec.id]):
                fh.write(f"{q},{float(v)!r}\n")
        written.append(profile_path)
        loc_path = out / f"dims_{_safe_name(dspec.id)}_locations.csv"
        with open(loc_path, "w", newline="") as fh:
            fh.write("start_timestamp,end_timestamp\n")
            for occ in dspec.occurrences:
                start = ts.timestamp_at(occ)
                end = ts.timestamp_at(occ + dspec.length)
                fh.write(f"{start.isoformat()},{end.isoformat()}\n")
        written.append(loc_path)
    return written
