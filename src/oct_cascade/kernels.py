"""Hot numeric kernels: the boundary dynamic program and the phantom
tube/shadow passes, in numpy.

`dp_trace` is the package's one boundary DP. It runs over a stack of
B-scans at once (a single B-scan is a stack of one), taking each cost
image into its table as the stack yields it, and keeps the float64 suffix
costs of the per-B-scan reference DP (`tests/dp_reference.py`), which the
tests hold it to bit for bit.

`raster_tubes` and `apply_shadows` walk the same tube chords and differ
only in how they clip and write them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleBandError
from .model import band_rows


# ---------------------------------------------------------------------------
# Minimum-cost boundary path (dynamic programming over columns)
# ---------------------------------------------------------------------------

def dp_trace(cost, band_lo, band_hi, lam, max_jump):
    """Minimum-cost depth path through each cost image `cost` yields: a
    (slices, height, width) array or any iterable of images, each taken
    into the table as it arrives and read only down to the deepest band.

    Per slice, minimizes sum_x cost[z(x), x] + lam * sum_x |z(x+1) - z(x)|
    subject to inclusive per-column bands, (slices, width), and
    |z(x+1) - z(x)| <= max_jump. Among equal-cost paths the
    lexicographically smallest (shallower depths, leftmost column first) is
    returned, as (slices, width) int64 depths.

    The costs go into one (width, J + slices * (depth + J)) float64 table,
    depth = max band_hi + 1 and J = min(max_jump, depth - 1), +inf outside
    each band: row x is column x of every slice end to end, after J pads of
    +inf and with J more after each slice, so a shift by up to J stays in
    its own slice. No longer step joins two of the depth rows. Only the
    pads and each slice's states outside its bands' rows are set to +inf;
    the rows every column's band covers are copied whole, and only the
    rims above and below them go in under the band mask.
    From the right, row x += the minimum over |k| <= J of row x+1 shifted
    by k plus lam * |k|. Rounding is monotone, so each |k| costs
    min(shift -k, shift +k) + lam * |k| and one more minimum. The walk back
    takes each step as the first argmin of its 2J + 1 candidates, the
    reference's strict "<". An infeasible band raises InfeasibleBandError
    for the first such slice, naming it and the rightmost column with no
    reachable state.
    """
    # int32 bands build the band masks faster than int64 ones
    lo = np.asarray(band_lo, dtype=np.int32)[:, :, None]
    hi = np.asarray(band_hi, dtype=np.int32)[:, :, None]
    n_slices, width = lo.shape[:2]
    height = int(hi.max()) + 1
    lam, jump = float(lam), min(int(max_jump), height - 1)
    stride = height + jump
    z = np.arange(height, dtype=np.int32)
    table = np.empty((width, jump + n_slices * stride))
    table[:, :jump] = np.inf
    slices = table[:, jump:].reshape(width, n_slices, stride)
    slices[:, :, height:] = np.inf
    states = slices[:, :, :height]
    images = iter(cost)  # enumerate's reused tuple would keep each image past its turn
    for s in range(n_slices):
        image, into = np.asarray(next(images)), states[:, s]
        top, core, rest, bottom = band_rows(lo[s], hi[s])
        into[:, :core] = np.inf
        into[:, rest:] = np.inf
        into[:, core:rest] = image[core:rest].T
        for rim in (slice(top, core), slice(rest, bottom)):
            np.copyto(into[:, rim], image[rim].T, where=(z[rim] >= lo[s]) & (z[rim] <= hi[s]))
        del image  # not live while the next image is built

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
    flat, row = table.ravel(), table.shape[1]
    for x in range(1, width):
        at = path[:, x] = at + (flat.take(at[:, None] + (x * row + window)) + penalty).argmin(axis=1) - jump
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
# Both passes walk `_chords`, whose order (vessel, slice, column ascending)
# fixes the multiply order, so overlapping shadows are reproducible bit for
# bit.

def _chords(zc, xc, radius, width):
    """(slice, column, |dx|, top, bottom) of each A-scan a tube crosses, in
    (vessel, slice, column) order; top and bottom are the chord's depth
    extent, unclipped."""
    r2 = radius * radius
    for zs, xs in zip(zc, xc):
        for s, (zv, xv) in enumerate(zip(zs, xs)):
            x0 = max(int(math.ceil(xv - radius)), 0)
            x1 = min(int(math.floor(xv + radius)), width - 1)
            for x in range(x0, x1 + 1):
                dx = abs(x - xv)
                dd = r2 - dx * dx
                if dd < 0.0:
                    continue
                h = math.sqrt(dd)
                top, bottom = int(math.ceil(zv - h)), int(math.floor(zv + h))
                if bottom >= top:
                    yield s, x, dx, top, bottom


def raster_tubes(data, vmask, zc, xc, radius, level):
    """Write tube interiors (value `level`) and their voxel mask in place."""
    level = float(level)
    height = data.shape[1]
    for s, x, _, top, bottom in _chords(zc, xc, float(radius), data.shape[2]):
        z0, z1 = max(top, 0), min(bottom, height - 1)
        if z1 >= z0:
            data[s, z0 : z1 + 1, x] = level
            vmask[s, z0 : z1 + 1, x] = True


def apply_shadows(data, vmask, zc, xc, radius, atten):
    """Darken all non-vessel voxels below each tube in its footprint columns."""
    radius, atten = float(radius), float(atten)
    height = data.shape[1]
    edge = radius + 0.5
    for s, x, dx, _, bottom in _chords(zc, xc, radius, data.shape[2]):
        zb = max(bottom + 1, 0)  # a tube wholly above the volume shades every row
        if zb >= height:
            continue
        t = dx / edge
        factor = 1.0 - (1.0 - atten) * (1.0 - t * t * t * t)
        col = data[s, zb:, x]
        keep = ~vmask[s, zb:, x]
        col[keep] = col[keep] * factor
