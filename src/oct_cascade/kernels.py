"""Hot numeric kernels: the boundary dynamic program and the phantom
tube/shadow passes, in numpy.

`dp_trace_batch` is the package's one boundary DP. It runs over a stack of
B-scans at once; a single B-scan is a stack of one. The tests hold it, bit
for bit, to a per-B-scan reference DP that scans each column's candidates
with a strict "<" (`tests/dp_reference.py`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleBandError


# ---------------------------------------------------------------------------
# Minimum-cost boundary path (dynamic programming over columns)
# ---------------------------------------------------------------------------

def dp_trace_batch(cost, band_lo, band_hi, lam, max_jump):
    """Minimum-cost depth path through every image of a (slices, height,
    width) cost stack.

    Per slice, minimizes sum_x cost[z(x), x] + lam * sum_x |z(x+1) - z(x)|
    subject to inclusive per-column bands, (slices, width), and
    |z(x+1) - z(x)| <= max_jump. Among equal-cost paths the
    lexicographically smallest (shallower depths, leftmost column first) is
    returned, as (slices, width) int64 depths.

    The costs are laid out once as (width, slices, height) with +inf
    outside each column's band, so a column of suffix costs is one sum over
    (slices, height). The previous column is padded with max_jump rows of
    +inf on each side, and its 2J+1 shifted candidates col[z + k] + lam * |k|
    are folded in ascending k as running minima. The number of running
    minima still above the final one is the index of the first,
    smallest-depth minimum, so a state's step is that count minus J. Only
    the counts are kept, as the smallest unsigned integer type that holds
    2J. An infeasible band raises InfeasibleBandError for the first such
    slice, naming it and the rightmost column with no reachable state.
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
    # one; the rightmost is named
    dead = np.isinf(mins)
    if dead.any():
        s = int(np.argmax(dead.any(axis=0)))
        raise InfeasibleBandError(int(width - 1 - np.argmax(dead[::-1, s])), slice=s)

    # argmin takes the first, shallowest minimum; every state on an optimal
    # path has a finite successor, so its step is set
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

def raster_tubes(data, vmask, zc, xc, radius, level):
    """Write tube interiors (value `level`) and their voxel mask in place."""
    radius, level = float(radius), float(level)
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


def apply_shadows(data, vmask, zc, xc, radius, atten):
    """Darken all non-vessel voxels below each tube in its footprint columns."""
    radius, atten = float(radius), float(atten)
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
