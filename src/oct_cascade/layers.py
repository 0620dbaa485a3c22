"""Retinal layer boundary tracing by per-B-scan dynamic programming.

Each B-scan is handled independently: a cost image is built from the
intensity or its vertical gradient, and the minimum-cost left-to-right
path through a per-column search band gives one boundary. One DP,
`kernels.dp_trace`, does the tracing: `trace_boundary` runs it on a
single cost image as a stack of one, and `segment_boundaries` on the
B-scans in as few groups as keep its table within the volume's bytes,
on the rows their bands reach, giving each the path `trace_boundary`
gives it alone on the full-height cost image, built one B-scan at a time
as the DP takes it. The four boundaries are traced
sequentially (ILM, then RPE upper, then BM, then INL lower), each band
positioned relative to the boundaries already found, which guarantees
the anatomical ordering by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .config import FromDict, In
from .errors import ConfigError, InfeasibleBandError, ShapeMismatchError, ValidationError
from .kernels import dp_trace
from .model import BOUNDARY_NAMES, BoundarySet, OctVolume

#: The kinds of cost image `_cost_rows` builds.
COST_KINDS = ("negative_vertical_gradient", "positive_vertical_gradient", "negative_intensity")

#: A band offset: a count of rows (capped to keep band sums in int64), or a fraction of the height.
_Rows = Annotated[int, In("[0, 65535]")]
_Fraction = Annotated[float, In("[0, 1]")]


@dataclass(frozen=True)
class DpConfig(FromDict):
    """Knobs of the dynamic-programming tracer.

    smoothness is the cost per voxel of inter-column depth change and
    max_jump caps that change. Band fields position the per-boundary
    search windows relative to the boundaries already traced; offsets are
    fractions of the volume height so the same config works at any
    axial resolution. `ilm_band` is (min row, fraction of height).
    """

    section = "DP config"

    smoothness: Annotated[float, In("[0, inf)")] = 0.5
    max_jump: Annotated[int, In("[1, inf)")] = 2
    ilm_band: tuple[_Rows, _Fraction] = (2, 0.45)
    rpe_band: tuple[_Fraction, _Rows] = (0.06, 6)      # [ILM + frac*H, H - rows]
    bm_band: tuple[_Fraction, _Fraction] = (0.005, 0.13)  # [RPE + frac*H, RPE + frac*H]
    inl_band: tuple[_Fraction, _Fraction] = (0.015, 0.045)  # [ILM + frac*H, RPE - frac*H]

    def __post_init__(self):
        super().__post_init__()
        # a volume is at least 8 columns wide and steps at least one row
        _check_smoothness(self.smoothness, 1, 8, what=f"{self.section} field 'smoothness'")


def _check_smoothness(smoothness, jump, width, cost_max=1.0, what="smoothness"):
    """Refuse a smoothness with which a path's cost may overflow float64:
    the DP would read the +inf sum as an unreachable state. A path over
    `width` columns with steps of at most `jump` rows and costs of at
    most `cost_max` in magnitude costs at most width * (cost_max +
    smoothness * jump); twice that must be finite, so no order of its
    sums overflows. A volume's costs lie in [-1, 1]."""
    if not math.isfinite(2.0 * width * (cost_max + float(smoothness) * int(jump))):
        raise ConfigError(f"{what} {smoothness!r} overflows the cost of a path "
                          f"over {width} columns with steps of up to {jump} rows")


def trace_boundary(cost, band_lo, band_hi, smoothness=0.5, max_jump=2):
    """Trace the minimum-cost depth path across a (height, width) cost image.

    Parameters
    ----------
    cost : ndarray (height, width)
    band_lo, band_hi : int or ndarray (width,)
        Inclusive per-column depth band. Must be non-empty and inside the
        image.
    smoothness : float
        Penalty per voxel of depth change between adjacent columns.
    max_jump : int
        Maximum allowed |z(x+1) - z(x)|, at least 1.

    Returns
    -------
    ndarray (width,) of int64 depths. Among equal-cost paths the
    lexicographically smallest (shallower depths, leftmost column first)
    is returned.

    The image is traced as a stack of one by `dp_trace`, so an
    infeasible band raises InfeasibleBandError with slice 0.
    """
    if not isinstance(max_jump, (int, np.integer)) or max_jump < 1:
        raise ConfigError(f"max_jump must be an integer >= 1, got {max_jump!r}")
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ShapeMismatchError(f"cost must be 2D, got ndim={cost.ndim}")
    if cost.shape[1] == 0:
        raise ShapeMismatchError("cost image has no columns")
    if not np.isfinite(cost).all():
        raise ValidationError("cost image contains non-finite values")
    cost_max = max(float(cost.max(initial=0.0)), -float(cost.min(initial=0.0)))
    if not math.isfinite(2.0 * cost.shape[1] * cost_max):
        raise ValidationError(f"cost image values up to {cost_max!r} overflow a path's cost")
    lo, hi = _checked_bands(cost.shape, band_lo, band_hi)
    _check_smoothness(smoothness, min(max_jump, cost.shape[0] - 1), cost.shape[1], cost_max)
    return dp_trace(cost[None], lo[None], hi[None], smoothness, max_jump)[0]


def _trace_stack(bscans, kind, band_lo, band_hi, smoothness, max_jump):
    """trace_boundary on the `kind` cost image of every B-scan of a
    (slices, height, width) stack; bands broadcast to (slices, width).

    Only rows [min lo, max hi] over all slices and columns enter the DP. A
    row outside every band is a +inf state that never wins, so the paths
    are those of the full-height images. Each float64 cost image is built,
    as the DP takes it, for those rows alone, reading one more row on
    either side where the B-scan has one, so the gradient's central
    differences equal the full-height values.

    The slices are traced in the fewest contiguous groups whose DP table,
    width x (J + g * (rows + J)) float64 for g slices of `rows` rows and
    J = min(max_jump, rows - 1), the kernel's bound, fits in the stack's
    own bytes (at least one slice per group). Slices are independent in
    the DP, so the paths are those of one call over the whole stack, and
    an infeasible band still names the first such slice by its index in
    the stack.
    """
    lo, hi = _checked_bands(bscans.shape, band_lo, band_hi)
    top, bottom = int(lo.min()), int(hi.max()) + 1
    n_slices, _, width = bscans.shape
    jump = min(int(max_jump), bottom - top - 1)
    group = max(1, (bscans.nbytes // (8 * width) - jump) // (bottom - top + jump))
    paths = []
    for first in range(0, n_slices, group):
        part = slice(first, first + group)
        costs = (_cost_rows(bscan, kind, top, bottom) for bscan in bscans[part])
        try:
            paths.append(dp_trace(costs, lo[part] - top, hi[part] - top, smoothness, jump))
        except InfeasibleBandError as exc:
            raise InfeasibleBandError(exc.column, slice=first + exc.slice) from None
    return np.concatenate(paths) + top


def _checked_bands(shape, band_lo, band_hi):
    """Check the inclusive per-column bands of a cost image or stack of
    `shape`; return them broadcast to its (..., width) columns."""
    height = shape[-2]
    columns = shape[:-2] + shape[-1:]
    lo = np.broadcast_to(np.asarray(band_lo, dtype=np.int64), columns)
    hi = np.broadcast_to(np.asarray(band_hi, dtype=np.int64), columns)
    if (lo > hi).any():
        where = tuple(int(i) for i in np.argwhere(lo > hi)[0])
        x = where[-1]
        raise ConfigError(f"empty search band at column {x}: [{lo[where]}, {hi[where]}]")
    if (lo < 0).any() or (hi >= height).any():
        raise ConfigError("search band outside [0, height)")
    return lo, hi


def _cost_rows(bscan: np.ndarray, kind: str, top: int, bottom: int) -> np.ndarray:
    """Rows [top, bottom) of the B-scan's `kind` cost image, as one new
    float64 array: the negated intensity, or `np.gradient`'s vertical
    gradient (central differences, halved, and one-sided at the B-scan's
    first and last rows), negated by swapping the operands."""
    if kind == "negative_intensity":
        return np.negative(bscan[top:bottom], dtype=np.float64)
    last = len(bscan) - 1
    a, b = max(top, 1), min(bottom, last)  # rows [a, b) have a row on either side
    ends = [r for r in (0, last) if top <= r < bottom]
    cost = np.empty((bottom - top, bscan.shape[1]))
    for r0, r1, up, down in [(a, b, a - 1, a + 1)] + [(r, r + 1, max(r - 1, 0), min(r + 1, last)) for r in ends]:
        above, below = bscan[up : up + r1 - r0], bscan[down : down + r1 - r0]
        operands = (below, above) if kind == "positive_vertical_gradient" else (above, below)
        np.subtract(*operands, out=cost[r0 - top : r1 - top], dtype=np.float64)
    cost[a - top : b - top] *= 0.5
    return cost


def _rows(frac: float, height: int, floor: int = 1) -> int:
    return max(floor, int(round(frac * height)))


def segment_boundaries(volume: OctVolume, cfg: DpConfig | None = None) -> BoundarySet:
    """Trace all four boundaries on every slice of a volume.

    Slices are independent; each boundary is traced by batched DP calls
    on the rows its bands reach, over groups of slices whose table fits
    in the volume's bytes, which equals the per-slice `trace_boundary` on
    the full-height cost image bit for bit. Beyond the volume and the
    boundaries, the DP's table and one B-scan's cost image are the
    largest blocks live at once.
    """
    cfg = cfg or DpConfig()
    bscans, height = volume.data, volume.height
    lam, jump = cfg.smoothness, cfg.max_jump
    _check_smoothness(lam, min(jump, height - 1), volume.width)

    # ILM: dark above, bright below
    ilm_lo, ilm_frac = cfg.ilm_band
    ilm = _trace_stack(bscans, "negative_vertical_gradient", ilm_lo, int(ilm_frac * height), lam, jump)

    # RPE upper: ride the brightest band
    rpe_hi = height - cfg.rpe_band[1]
    rpe_lo = np.minimum(ilm + _rows(cfg.rpe_band[0], height, 4), rpe_hi - 1)
    rpe = _trace_stack(bscans, "negative_intensity", rpe_lo, rpe_hi, lam, jump)
    rpe = np.maximum(rpe, ilm)

    # BM: bright above, dark below
    bm_lo = np.minimum(rpe + _rows(cfg.bm_band[0], height), height - 2)
    bm_hi = np.minimum(rpe + _rows(cfg.bm_band[1], height, 2), height - 2)
    bm = _trace_stack(bscans, "positive_vertical_gradient", bm_lo, np.maximum(bm_hi, bm_lo), lam, jump)
    bm = np.maximum(bm, rpe)

    # INL lower: bright above, dark below
    inl_lo = ilm + _rows(cfg.inl_band[0], height, 2)
    inl_hi = np.maximum(rpe - _rows(cfg.inl_band[1], height, 4), inl_lo)
    inl_lo = np.minimum(inl_lo, height - 1)
    inl_hi = np.minimum(inl_hi, height - 1)
    inl = _trace_stack(bscans, "positive_vertical_gradient", inl_lo, inl_hi, lam, jump)
    inl = np.clip(inl, ilm, rpe)

    return BoundarySet(dict(zip(BOUNDARY_NAMES, (ilm, inl, rpe, bm))))
