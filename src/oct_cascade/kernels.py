"""Hot numeric kernels: the boundary dynamic program and the phantom
tube/shadow passes, in numpy.

`dp_trace_batch` is the package's one boundary DP. It runs over a stack of
B-scans at once (a single B-scan is a stack of one) and keeps the float64
suffix costs of the per-B-scan reference DP (`tests/dp_reference.py`),
which the tests hold it to bit for bit.
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

    The costs go into one (width, J + slices * (height + J)) float64 table,
    J = max_jump, +inf outside each band: row x is column x of every slice
    end to end, after J rows of +inf and with J more after each slice, so a
    shift by up to J stays in its own slice. From the right, row x += the
    minimum over |k| <= J of row x+1 shifted by k plus lam * |k|. Rounding
    is monotone, so each |k| costs min(shift -k, shift +k) + lam * |k| and
    one more minimum. The walk back takes each step as the first argmin of
    its 2J + 1 candidates, the reference's strict "<". An infeasible band
    raises InfeasibleBandError for the first such slice, naming it and the
    rightmost column with no reachable state.
    """
    cost = np.asarray(cost)
    n_slices, height, width = cost.shape
    # int32 bands build the band masks faster than int64 ones
    lo = np.asarray(band_lo, dtype=np.int32)[:, :, None]
    hi = np.asarray(band_hi, dtype=np.int32)[:, :, None]
    lam, jump = float(lam), int(max_jump)
    stride = height + jump
    z = np.arange(height, dtype=np.int32)
    table = np.full((width, jump + n_slices * stride), np.inf)
    states = table[:, jump:].reshape(width, n_slices, stride)[:, :, :height]
    for s in range(n_slices):
        np.copyto(states[:, s], cost[s].T, where=(z >= lo[s]) & (z <= hi[s]))

    # [jump, end) spans every slice and the pads between them
    end = table.shape[1] - jump
    pair, run = np.empty((2, end - jump))
    for x in range(width - 2, -1, -1):
        nxt = table[x + 1]
        best = nxt[jump:end]
        for k in range(1, jump + 1):
            np.minimum(nxt[jump - k : end - k], nxt[jump + k : end + k], out=pair)
            pair += lam * k
            best = np.minimum(best, pair, out=run)
        table[x, jump:end] += best

    # a column with no finite state leaves all to its left without one, so
    # column 0 flags the infeasible slices; the first's rightmost is named
    first = states[0].min(axis=1)
    if np.isinf(first).any():
        s = int(np.argmax(np.isinf(first)))
        dead = np.isinf(states[:, s].min(axis=1))
        raise InfeasibleBandError(int(width - 1 - np.argmax(dead[::-1])), slice=s)

    # argmin takes the first, shallowest minimum of each step's candidates
    base = jump + stride * np.arange(n_slices)
    path = np.empty((n_slices, width), dtype=np.int64)
    at = path[:, 0] = base + np.argmin(states[0], axis=1)
    window = np.arange(-jump, jump + 1)
    penalty = lam * np.abs(window)
    for x in range(1, width):
        at = path[:, x] = at + (table[x].take(at[:, None] + window) + penalty).argmin(axis=1) - jump
    return path - base[:, None]


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
