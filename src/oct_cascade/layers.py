"""Retinal layer boundary tracing by per-B-scan dynamic programming.

Each B-scan is handled independently: a cost image is built from the
intensity or its vertical gradient, and the minimum-cost left-to-right
path through a per-column search band gives one boundary. One DP,
`kernels.dp_trace_batch`, does the tracing: `trace_boundary` runs it on a
single cost image as a stack of one, and `segment_boundaries` on all
B-scans at once, on the rows their bands reach, giving each the path
`trace_boundary` gives it alone on the full-height cost image. The four
boundaries are traced sequentially (ILM, then RPE upper, then BM, then
INL lower), each band positioned relative to the boundaries already
found, which guarantees the anatomical ordering by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FromDict
from .errors import ConfigError, ShapeMismatchError, ValidationError
from .kernels import dp_trace_batch
from .model import BOUNDARY_NAMES, BoundarySet, OctVolume

COST_KINDS = ("negative_vertical_gradient", "positive_vertical_gradient", "negative_intensity")


@dataclass(frozen=True)
class DpConfig(FromDict):
    """Knobs of the dynamic-programming tracer.

    smoothness is the cost per voxel of inter-column depth change and
    max_jump caps that change. Band fields position the per-boundary
    search windows relative to the boundaries already traced; offsets are
    fractions of the volume height so the same config works at any
    axial resolution. `ilm_band` is (min row, fraction of height).
    """

    section = "DP"

    smoothness: float = 0.5
    max_jump: int = 2
    ilm_band: tuple[int, float] = (2, 0.45)
    rpe_band: tuple[float, int] = (0.06, 6)      # [ILM + frac*H, H - rows]
    bm_band: tuple[float, float] = (0.005, 0.13)  # [RPE + frac*H, RPE + frac*H]
    inl_band: tuple[float, float] = (0.015, 0.045)  # [ILM + frac*H, RPE - frac*H]
    cost_kinds: tuple[str, str, str, str] = (
        "negative_vertical_gradient",  # ILM: dark above, bright below
        "positive_vertical_gradient",  # INL lower: bright above, dark below
        "negative_intensity",          # RPE upper: ride the brightest band
        "positive_vertical_gradient",  # BM: bright above, dark below
    )

    def __post_init__(self):
        if self.smoothness < 0:
            raise ConfigError("smoothness must be >= 0")
        if self.max_jump < 1:
            raise ConfigError("max_jump must be >= 1")
        for kind in self.cost_kinds:
            if kind not in COST_KINDS:
                raise ConfigError(f"unknown cost kind {kind!r}")


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
        Maximum allowed |z(x+1) - z(x)|.

    Returns
    -------
    ndarray (width,) of int64 depths. Among equal-cost paths the
    lexicographically smallest (shallower depths, leftmost column first)
    is returned.

    The image is traced as a stack of one by `dp_trace_batch`, so an
    infeasible band raises InfeasibleBandError with slice 0.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ShapeMismatchError(f"cost must be 2D, got ndim={cost.ndim}")
    if not np.isfinite(cost).all():
        raise ValidationError("cost image contains non-finite values")
    lo, hi = _checked_bands(cost.shape, band_lo, band_hi)
    return dp_trace_batch(cost[None], lo[None], hi[None], smoothness, max_jump)[0]


def _trace_stack(bscans, kind, band_lo, band_hi, smoothness, max_jump):
    """trace_boundary on the `kind` cost image of every B-scan of a
    (slices, height, width) stack at once; bands broadcast to (slices, width).

    Only rows [min lo, max hi] over all slices and columns enter the DP. A
    row outside every band is a +inf state that never wins, so the paths
    are those of the full-height images. The B-scans are a volume's [0, 1]
    intensities, so the costs are finite.
    """
    lo, hi = _checked_bands(bscans.shape, band_lo, band_hi)
    top, bottom = int(lo.min()), int(hi.max()) + 1
    cost = _cost_stack(bscans, kind, top, bottom)
    return dp_trace_batch(cost, lo - top, hi - top, smoothness, max_jump) + top


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


def _cost_image(bscan: np.ndarray, kind: str) -> np.ndarray:
    if kind == "negative_intensity":
        return -bscan
    grad = np.gradient(bscan, axis=0)  # central differences, one-sided at the rows
    return -grad if kind == "negative_vertical_gradient" else grad


def _cost_stack(bscans: np.ndarray, kind: str, top: int, bottom: int) -> np.ndarray:
    """float64 cost images of rows [top, bottom) of a (slices, height, width)
    stack. Each is built from one more row on either side where the B-scan
    has one, so the gradient's central differences equal the full-height
    values; one B-scan at a time, so no float64 copy of the stack is held."""
    start, stop = max(top - 1, 0), min(bottom + 1, bscans.shape[1])
    rows = slice(top - start, bottom - start)
    cost = np.empty((bscans.shape[0], bottom - top, bscans.shape[2]))
    for s, bscan in enumerate(bscans):
        cost[s] = _cost_image(bscan[start:stop].astype(np.float64), kind)[rows]
    return cost


def _rows(frac: float, height: int, floor: int = 1) -> int:
    return max(floor, int(round(frac * height)))


def _segment_stack(bscans: np.ndarray, cfg: DpConfig):
    """The four boundaries of a (slices, height, width) stack of B-scans,
    each traced over all slices with one batched DP call. The cost images
    are float64, whatever the stack's dtype."""
    height = bscans.shape[1]
    lam, jump = cfg.smoothness, cfg.max_jump
    k_ilm, k_inl, k_rpe, k_bm = cfg.cost_kinds

    ilm_lo, ilm_frac = cfg.ilm_band
    ilm = _trace_stack(bscans, k_ilm, ilm_lo, int(ilm_frac * height), lam, jump)

    rpe_hi = height - cfg.rpe_band[1]
    rpe_lo = np.minimum(ilm + _rows(cfg.rpe_band[0], height, 4), rpe_hi - 1)
    rpe = _trace_stack(bscans, k_rpe, rpe_lo, rpe_hi, lam, jump)
    rpe = np.maximum(rpe, ilm)

    bm_lo = np.minimum(rpe + _rows(cfg.bm_band[0], height), height - 2)
    bm_hi = np.minimum(rpe + _rows(cfg.bm_band[1], height, 2), height - 2)
    bm = _trace_stack(bscans, k_bm, bm_lo, np.maximum(bm_hi, bm_lo), lam, jump)
    bm = np.maximum(bm, rpe)

    inl_lo = ilm + _rows(cfg.inl_band[0], height, 2)
    inl_hi = np.maximum(rpe - _rows(cfg.inl_band[1], height, 4), inl_lo)
    inl_lo = np.minimum(inl_lo, height - 1)
    inl_hi = np.minimum(inl_hi, height - 1)
    inl = _trace_stack(bscans, k_inl, inl_lo, inl_hi, lam, jump)
    inl = np.clip(inl, ilm, rpe)

    return ilm, inl, rpe, bm


def segment_boundaries(volume: OctVolume, cfg: DpConfig | None = None) -> BoundarySet:
    """Trace all four boundaries on every slice of a volume.

    Slices are independent; each boundary is traced over all of them with
    one batched DP call on the rows its bands reach, which equals the
    per-slice `trace_boundary` on the full-height cost image bit for bit.
    """
    surfaces = _segment_stack(volume.data, cfg or DpConfig())
    return BoundarySet(dict(zip(BOUNDARY_NAMES, surfaces)))

