"""En-face RPE projection and vessel-shadow footprint segmentation (Part II).

Vessel shadows are attenuation trails on the brightest, avascular band of
the retina, so the mean intensity between the upper RPE boundary and
Bruch's membrane makes a high-contrast transverse map of vessel columns.
Shadows are segmented by normalized contrast against a local box-filtered
background, which tolerates the slow brightness drift across the field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .config import FromDict
from .errors import ConfigError
from .model import BoundarySet, EnFaceImage, OctVolume, PixelMask

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class ShadowConfig(FromDict):
    """Shadow detector knobs.

    background_window is the (slices, columns) box size of the local
    background estimate; contrast_threshold is the minimum normalized
    darkening (B - e) / B that counts as shadow; components smaller than
    min_component_px are discarded. The transverse mask dilates the rest.
    """

    section = "shadow"

    background_window: tuple[int, int] = (9, 15)
    contrast_threshold: float = 0.15
    min_component_px: int = 10

    def __post_init__(self):
        ws, wx = self.background_window
        if ws < 3 or wx < 3 or ws % 2 == 0 or wx % 2 == 0:
            raise ConfigError(f"background_window {self.background_window} must be odd and >= 3")
        # Thresholds >= 1 are permitted and always yield an empty mask,
        # since normalized contrast is < 1 by construction.
        if self.contrast_threshold <= 0.0:
            raise ConfigError("contrast_threshold must be positive")
        if self.min_component_px < 1:
            raise ConfigError("min_component_px must be >= 1")


def project_rpe(volume: OctVolume, boundaries: BoundarySet) -> EnFaceImage:
    """Mean intensity over the voxelized RPE band, per (slice, column).

    The band at (s, x) is `BoundarySet.voxel_band`'s RPE_UPPER-BM band;
    where that is empty the single voxel at round(RPE_UPPER) is used
    instead. Checked boundaries keep every such depth inside the volume.
    """
    z_lo, z_hi = boundaries.voxel_band("RPE_UPPER", "BM", volume.dims)
    n_slices, height, width = volume.dims

    # Band mean via a float64 depth prefix sum, one B-scan at a time:
    # sum over [lo, hi] = P[hi+1] - P[lo]. Each B-scan's sum runs from row
    # 0 down to the deepest row it reads, so its entries are the
    # full-height sum's.
    prefix = np.zeros((height + 1, width))
    hi_take = np.empty((n_slices, width))
    lo_take = np.empty((n_slices, width))
    for s in range(n_slices):
        rows = max(int(z_hi[s].max()) + 1, int(z_lo[s].max()))
        np.cumsum(volume.data[s, :rows], axis=0, dtype=np.float64, out=prefix[1 : rows + 1])
        hi_take[s] = np.take_along_axis(prefix, z_hi[s][None, :] + 1, axis=0)[0]
        lo_take[s] = np.take_along_axis(prefix, z_lo[s][None, :], axis=0)[0]
    count = z_hi - z_lo + 1

    empty = count < 1
    safe_count = np.where(empty, 1, count)
    band_mean = (hi_take - lo_take) / safe_count

    if empty.any():
        z_fb = np.rint(boundaries["RPE_UPPER"]).astype(np.int64)
        fallback = np.take_along_axis(volume.data, z_fb[:, None, :], axis=1)[:, 0, :]
        band_mean = np.where(empty, fallback.astype(np.float64), band_mean)

    return EnFaceImage(np.clip(band_mean, 0.0, 1.0))


def segment_shadows(
    image: EnFaceImage, cfg: ShadowConfig | None = None
) -> tuple[PixelMask, np.ndarray]:
    """Segment shadow footprints on an en-face image.

    Returns the binary footprint mask and the full normalized contrast map
    c = max(0, (B - e) / max(B, 1e-6)).
    """
    cfg = cfg or ShadowConfig()
    e = image.data.astype(np.float64)
    background = ndimage.uniform_filter(e, size=cfg.background_window, mode="nearest")
    contrast = np.maximum(0.0, (background - e) / np.maximum(background, 1e-6))

    mask = contrast > cfg.contrast_threshold
    if mask.any():
        labels, n = ndimage.label(mask, structure=_EIGHT_CONNECTED)
        sizes = np.bincount(labels.ravel())
        keep = sizes >= cfg.min_component_px
        keep[0] = False
        mask = keep[labels]
    return PixelMask(mask), contrast

