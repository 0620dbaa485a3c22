"""En-face RPE projection and vessel-shadow footprint segmentation (Part II).

Vessel shadows are attenuation trails on the brightest, avascular band of
the retina, so the mean intensity between the upper RPE boundary and
Bruch's membrane makes a high-contrast transverse map of vessel columns.
Shadows are segmented by normalized contrast against a local box-filtered
background, which tolerates the slow brightness drift across the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np
from scipy import ndimage

from .config import FromDict, In
from .errors import ConfigError
from .model import BoundarySet, EnFaceImage, OctVolume, PixelMask

#: A box side of the background estimate. The cap keeps scipy's box filter
#: from allocating for a window no en-face image could fill.
_Window = Annotated[int, In("[3, 65535]")]


@dataclass(frozen=True)
class ShadowConfig(FromDict):
    """Shadow detector knobs.

    background_window is the (slices, columns) box size of the local
    background estimate; contrast_threshold is the minimum normalized
    darkening (B - e) / B that counts as shadow; components smaller than
    min_component_px are discarded. The transverse mask dilates the rest.
    Thresholds >= 1 are permitted and always yield an empty mask, since
    normalized contrast is < 1 by construction.
    """

    section = "shadow config"

    background_window: tuple[_Window, _Window] = (9, 15)
    contrast_threshold: Annotated[float, In("(0, inf)")] = 0.15
    min_component_px: Annotated[int, In("[1, inf)")] = 10

    def __post_init__(self):
        super().__post_init__()
        if any(w % 2 == 0 for w in self.background_window):
            raise ConfigError(f"background_window {self.background_window} must be odd")


def project_rpe(volume: OctVolume, boundaries: BoundarySet) -> EnFaceImage:
    """Mean intensity over the voxelized RPE band, per (slice, column).

    The band at (s, x) is `BoundarySet.voxel_band`'s RPE_UPPER-BM band;
    where that is empty the single voxel at round(RPE_UPPER) is used
    instead. Checked boundaries keep every such depth inside the volume.
    """
    z_lo, z_hi = boundaries.voxel_band("RPE_UPPER", "BM", volume.dims)
    empty = z_hi < z_lo
    z_lo[empty] = z_hi[empty] = np.rint(boundaries["RPE_UPPER"][empty])

    # A float64 masked sum per B-scan, over only the rows its band reaches.
    sums = np.zeros(z_lo.shape)
    for s in range(volume.n_slices):
        top, bottom = int(z_lo[s].min()), int(z_hi[s].max()) + 1
        z = np.arange(top, bottom)[:, None]
        volume.data[s, top:bottom].sum(axis=0, dtype=np.float64, out=sums[s],
                                       where=(z >= z_lo[s]) & (z <= z_hi[s]))
    return EnFaceImage(np.clip(sums / (z_hi - z_lo + 1), 0.0, 1.0))


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
    # 26-connectivity within a single slice is 8-connectivity in the image.
    keep_components(mask[None], 26, cfg.min_component_px)
    return PixelMask(mask), contrast


def keep_components(binary: np.ndarray, connectivity: int, min_size: int) -> int:
    """Clear the `connectivity` (6 or 26) components of the 3D boolean
    `binary` smaller than `min_size` voxels, in place; return how many stay.

    Components are labeled in raster-scan order (by their minimum linear
    voxel index), so the kept count and mask are deterministic. Only the
    foreground's bounding box is labeled: it holds every component, and
    cropping keeps their raster-scan order.
    """
    # The box from per-axis projections: slices and rows first, then the
    # columns of those slices and rows only.
    on = binary.any(axis=2)
    if not on.any():
        return 0
    s, z = (np.flatnonzero(on.any(axis=k)) for k in (1, 0))
    x = np.flatnonzero(binary[s[0] : s[-1] + 1, z[0] : z[-1] + 1].any(axis=(0, 1)))
    box = (slice(s[0], s[-1] + 1), slice(z[0], z[-1] + 1), slice(x[0], x[-1] + 1))
    structure = ndimage.generate_binary_structure(3, 3 if connectivity == 26 else 1)
    # A contiguous copy, so that ravel() is a view to write the kept voxels
    # into. Components are sized and selected on the foreground voxels only:
    # indexing with the whole int32 label box would widen it to intp, and
    # the label box itself is dropped once their labels are read.
    crop = np.ascontiguousarray(binary[box])
    fg = np.flatnonzero(crop)
    fg_labels = ndimage.label(crop, structure=structure)[0].ravel()[fg]
    keep = np.bincount(fg_labels) >= min_size
    keep[0] = False
    crop.ravel()[fg] = keep[fg_labels]
    binary[box] = crop
    return int(keep.sum())

