"""The per-B-scan boundary DP, kept as the oracle of `kernels.dp_trace`.

This is the DP the package ran one B-scan at a time before the batched
one replaced it: a float64 suffix-cost table built column by column from
the right, candidates scanned in ascending step with a strict "<", and a
greedy walk back from the left. The batch must give the path `dp_trace`
gives on every slice, bit for bit, and fail at the column it names.
"""

import numpy as np

from oct_cascade.errors import InfeasibleBandError


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
