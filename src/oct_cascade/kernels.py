"""Hot numeric kernels: the boundary dynamic program and the phantom
tube/shadow pass, in numpy.

`dp_trace` is the per-B-scan reference of the boundary DP; `dp_trace_batch`
runs it over a stack of B-scans at once, forming the same float64 sums and
picking each step by running minima instead of a strict "<" scan, so its
paths equal `dp_trace` on every slice bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleBandError


# ---------------------------------------------------------------------------
# Minimum-cost boundary path (dynamic programming over columns)
# ---------------------------------------------------------------------------

def _dp_suffix_numpy(cost, lo, hi, lam, max_jump):
    """Suffix cost table D[x, z] = best cost of covering columns x..W-1
    with the path at depth z in column x. Infeasible states are +inf."""
    height, width = cost.shape
    z = np.arange(height)
    table = np.full((width, height), np.inf)
    last = np.full(height, np.inf)
    sel = (z >= lo[width - 1]) & (z <= hi[width - 1])
    last[sel] = cost[sel, width - 1]
    table[width - 1] = last
    for x in range(width - 2, -1, -1):
        nxt = table[x + 1]
        best = np.full(height, np.inf)
        # Candidates scanned in ascending target depth keeps the strict "<"
        # comparison tie-broken toward the smallest depth.
        for k in range(-max_jump, max_jump + 1):
            cand = np.full(height, np.inf)
            zp = z + k
            ok = (zp >= 0) & (zp < height)
            cand[ok] = nxt[zp[ok]] + lam * abs(k)
            take = cand < best
            best[take] = cand[take]
        col = np.full(height, np.inf)
        sel = (z >= lo[x]) & (z <= hi[x]) & np.isfinite(best)
        col[sel] = cost[sel, x] + best[sel]
        table[x] = col
        if not np.isfinite(col).any():
            return table, x
    if not np.isfinite(table[0]).any():
        return table, 0
    return table, -1


def _reconstruct(table, lo, hi, lam, max_jump):
    """Greedy left-to-right walk of the suffix table. Ties resolve to the
    smallest depth, column by column from the left, so the returned path is
    the lexicographically smallest of the optimal ones."""
    width, height = table.shape
    first = table[0]
    z = int(lo[0])
    best = np.inf
    for cand in range(int(lo[0]), int(hi[0]) + 1):
        if first[cand] < best:
            best = first[cand]
            z = cand
    path = np.empty(width, dtype=np.int64)
    path[0] = z
    for x in range(width - 1):
        nxt = table[x + 1]
        best = np.inf
        nz = z
        for k in range(-max_jump, max_jump + 1):
            zp = z + k
            if 0 <= zp < height:
                c = lam * abs(k) + nxt[zp]
                if c < best:
                    best = c
                    nz = zp
        z = nz
        path[x + 1] = z
    return path


def dp_trace(cost, band_lo, band_hi, lam, max_jump):
    """Minimum-cost depth path through a (height, width) cost image.

    Minimizes sum_x cost[z(x), x] + lam * sum_x |z(x+1) - z(x)| subject to
    per-column bands and |z(x+1) - z(x)| <= max_jump. Raises
    InfeasibleBandError naming the column where no state is reachable.
    """
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    height, width = cost.shape
    lo = np.ascontiguousarray(band_lo, dtype=np.int64)
    hi = np.ascontiguousarray(band_hi, dtype=np.int64)
    table, fail = _dp_suffix_numpy(cost, lo, hi, float(lam), int(max_jump))
    if fail >= 0:
        raise InfeasibleBandError(int(fail))
    return _reconstruct(table, lo, hi, float(lam), int(max_jump))


def dp_trace_batch(cost, band_lo, band_hi, lam, max_jump):
    """`dp_trace` on every image of a (slices, height, width) cost stack.

    Bands are (slices, width). The costs are laid out once as
    (width, slices, height) with +inf outside each column's band, so a
    column of suffix costs is one sum over (slices, height). The previous
    column is padded with max_jump rows of +inf on each side, and its 2J+1
    shifted candidates col[z + k] + lam * |k| are folded in ascending k as
    running minima. The number of running minima still above the final one
    is the index of the first, smallest-depth minimum, so a state's step is
    that count minus J: the step `_reconstruct`'s strict "<" scan picks.
    Each candidate is the float64 sum `_dp_suffix_numpy` forms and a
    minimum is exact, so row s of the returned (slices, width) paths equals
    `dp_trace` on slice s bit for bit. Only the counts are kept, as the
    smallest unsigned integer type that holds 2J. An infeasible band raises
    InfeasibleBandError for the first such slice, naming it and the column
    `dp_trace` names for it.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n_slices, height, width = cost.shape
    lo = np.asarray(band_lo, dtype=np.int64).T[:, :, None]
    hi = np.asarray(band_hi, dtype=np.int64).T[:, :, None]
    lam, jump = float(lam), int(max_jump)
    z = np.arange(height)
    banded = np.where((z >= lo) & (z <= hi), cost.transpose(2, 0, 1), np.inf)

    n = 2 * jump + 1
    penalty = lam * np.abs(np.arange(-jump, jump + 1))
    steps = np.empty((width - 1, n_slices, height), dtype=np.min_scalar_type(n - 1))
    mins = np.empty((width, n_slices))
    padded = np.full((n_slices, height + 2 * jump), np.inf)
    col = padded[:, jump : jump + height]
    col[...] = banded[width - 1]
    mins[width - 1] = col.min(axis=1)
    runs = np.empty((n, n_slices, height))
    for x in range(width - 2, -1, -1):
        for i in range(n):
            np.add(padded[:, i : i + height], penalty[i], out=runs[i])
        for i in range(1, n):
            np.minimum(runs[i - 1], runs[i], out=runs[i])
        best = runs[-1]
        np.sum(runs[:-1] > best, axis=0, dtype=steps.dtype, out=steps[x])
        np.add(banded[x], best, out=col)
        mins[x] = col.min(axis=1)

    # a column with no finite state leaves every column to its left without
    # one; dp_trace names the rightmost
    dead = np.isinf(mins)
    if dead.any():
        s = int(np.argmax(dead.any(axis=0)))
        raise InfeasibleBandError(int(width - 1 - np.argmax(dead[::-1, s])), slice=s)

    # argmin takes the first minimum, as _reconstruct's scan of column 0 does;
    # every state on an optimal path has a finite successor, so its step is set
    rows = np.arange(n_slices)
    path = np.empty((n_slices, width), dtype=np.int64)
    path[:, 0] = np.argmin(col, axis=1)
    for x in range(width - 1):
        path[:, x + 1] = path[:, x] + steps[x][rows, path[:, x]] - jump
    return path


# ---------------------------------------------------------------------------
# Phantom tube rasterization and shadow attenuation
# ---------------------------------------------------------------------------
#
# Two passes: all tube interiors are written first, then each tube darkens
# every voxel below its bottom in its footprint columns, skipping voxels
# inside any vessel. Attenuation is strongest on the axis and fades to
# nothing just outside the footprint:
#   factor(dx) = 1 - (1 - atten) * (1 - (|dx| / (r + 0.5))^4)
# Loop order (vessel, slice, column ascending) fixes the multiply order, so
# overlapping shadows are reproducible bit for bit.

def _raster_tubes_numpy(data, vmask, zc, xc, radius, level):
    n_vessels, n_slices = zc.shape
    height = data.shape[1]
    width = data.shape[2]
    r2 = radius * radius
    for v in range(n_vessels):
        for s in range(n_slices):
            zv = zc[v, s]
            xv = xc[v, s]
            x0 = max(int(math.ceil(xv - radius)), 0)
            x1 = min(int(math.floor(xv + radius)), width - 1)
            for x in range(x0, x1 + 1):
                dd = r2 - (x - xv) * (x - xv)
                if dd < 0.0:
                    continue
                h = math.sqrt(dd)
                z0 = max(int(math.ceil(zv - h)), 0)
                z1 = min(int(math.floor(zv + h)), height - 1)
                if z1 < z0:
                    continue
                data[s, z0 : z1 + 1, x] = level
                vmask[s, z0 : z1 + 1, x] = True


def _apply_shadows_numpy(data, vmask, zc, xc, radius, atten):
    n_vessels, n_slices = zc.shape
    height = data.shape[1]
    width = data.shape[2]
    r2 = radius * radius
    edge = radius + 0.5
    for v in range(n_vessels):
        for s in range(n_slices):
            zv = zc[v, s]
            xv = xc[v, s]
            x0 = max(int(math.ceil(xv - radius)), 0)
            x1 = min(int(math.floor(xv + radius)), width - 1)
            for x in range(x0, x1 + 1):
                dd = r2 - (x - xv) * (x - xv)
                if dd < 0.0:
                    continue
                h = math.sqrt(dd)
                if int(math.floor(zv + h)) < int(math.ceil(zv - h)):
                    continue
                zb = min(int(math.floor(zv + h)), height - 1) + 1
                if zb >= height:
                    continue
                t = abs(x - xv) / edge
                factor = 1.0 - (1.0 - atten) * (1.0 - t * t * t * t)
                col = data[s, zb:, x]
                keep = ~vmask[s, zb:, x]
                col[keep] = col[keep] * factor



def raster_tubes(data, vmask, zc, xc, radius, level):
    """Write tube interiors (value `level`) and their voxel mask in place."""
    if zc.size == 0:
        return
    _raster_tubes_numpy(data, vmask, zc, xc, float(radius), float(level))


def apply_shadows(data, vmask, zc, xc, radius, atten):
    """Darken all non-vessel voxels below each tube in its footprint columns."""
    if zc.size == 0:
        return
    _apply_shadows_numpy(data, vmask, zc, xc, float(radius), float(atten))
