"""Mask construction, vessel scoring, infusion, and 3D component extraction.

Two anatomical priors restrict where vessels may be claimed:

* the longitudinal mask keeps only depths between the ILM and the lower
  INL boundary, where retinal vessels actually live;
* the transverse mask keeps only (slice, column) positions whose RPE
  shadow betrays a vessel overhead, extruded along depth.

Either mask multiplies a per-voxel probability map produced by a pluggable
backend - the built-in classical scorer, or any externally trained model
whose output is imported through the float32 grid container - after which
the map is thresholded and cleaned by connected-component size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .config import FromDict, Path
from .enface import ShadowConfig, project_rpe, segment_shadows
from .errors import ConfigError, ShapeMismatchError
from .layers import DpConfig, segment_boundaries
from .model import (
    BoundarySet,
    EnFaceImage,
    OctVolume,
    PixelMask,
    ProbabilityMap3D,
    VoxelMask,
    require_same_dims,
)


@dataclass(frozen=True)
class InfusionConfig(FromDict):
    """Which priors to apply and how the final mask is extracted."""

    section = "infusion"

    use_longitudinal: bool = True
    use_transverse: bool = True
    transverse_dilation: int = 1
    binarize_threshold: float = 0.5
    min_component_vox: int = 8
    connectivity: int = 26

    def __post_init__(self):
        if not (0.0 < self.binarize_threshold < 1.0):
            raise ConfigError("binarize_threshold must be in (0, 1)")
        if self.transverse_dilation < 0:
            raise ConfigError("transverse_dilation must be >= 0")
        if self.min_component_vox < 1:
            raise ConfigError("min_component_vox must be >= 1")
        if self.connectivity not in (6, 26):
            raise ConfigError("connectivity must be 6 or 26")


@dataclass(frozen=True)
class VesselBackendConfig(FromDict):
    """Source of the per-voxel vessel probability map.

    kind='classical' scores voxels by their normalized intensity. The
    shadow evidence enters the cascade once, as the transverse mask.

    kind='import' names the ProbabilityMap3D an external network wrote at
    `path`, the JSON key of every import section; `pipeline` reads it and
    passes it to `prepare`.
    """

    section = "backend"

    kind: str = "classical"
    path: Path | None = None

    def __post_init__(self):
        if self.kind not in ("classical", "import"):
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if self.kind == "import" and not self.path:
            raise ConfigError("import backend requires a path")
        if self.kind == "classical" and self.path is not None:
            raise ConfigError("classical backend takes no path; give kind 'import' to import one")


def longitudinal_mask(boundaries: BoundarySet, dims: tuple[int, int, int]) -> VoxelMask:
    """Voxels with ceil(ILM) <= z <= floor(INL_LOWER) at their column."""
    boundaries.check_against(dims)
    _, height, _ = dims
    z = np.arange(height)[None, :, None]
    lo = np.ceil(boundaries["ILM"])[:, None, :]
    hi = np.floor(boundaries["INL_LOWER"])[:, None, :]
    return VoxelMask((z >= lo) & (z <= hi))


def transverse_mask(footprint: PixelMask, dims: tuple[int, int, int], dilation: int = 0) -> VoxelMask:
    """Footprint dilated by a (2d+1)^2 square, extruded along depth."""
    n_slices, height, width = dims
    if footprint.shape != (n_slices, width):
        raise ShapeMismatchError(
            f"footprint shape {footprint.shape} != volume transverse dims {(n_slices, width)}"
        )
    fp = footprint.data
    if dilation > 0 and fp.any():
        size = 2 * dilation + 1
        fp = ndimage.binary_dilation(fp, structure=np.ones((size, size), dtype=bool))
    return VoxelMask(np.broadcast_to(fp[:, None, :], dims))


def vessel_probability(
    volume: OctVolume,
    boundaries: BoundarySet,
    cfg: VesselBackendConfig | None = None,
) -> ProbabilityMap3D:
    """Per-voxel vessel score in [0, 1].

    Classical backend: intensity min-max normalized using the value range
    inside the ILM-BM band (vitreous and choroid stay out of the
    normalization), clipped to [0, 1]. A constant band (no contrast at
    all) yields an all-zero map and a warning.
    """
    cfg = cfg or VesselBackendConfig()
    if cfg.kind == "import":
        raise ConfigError("an import backend scores nothing; pass its map to prepare as probability")

    boundaries.check_against(volume.dims)
    z = np.arange(volume.height)[None, :, None]
    band = (z >= np.ceil(boundaries["ILM"])[:, None, :]) & (
        z <= np.floor(boundaries["BM"])[:, None, :]
    )
    if not band.any():
        band = True  # empty band: normalize over the whole volume
    # The float32 range is exactly the range of its float64 widening.
    vmin = float(volume.data.min(where=band, initial=np.inf))
    vmax = float(volume.data.max(where=band, initial=-np.inf))
    if vmax - vmin < 1e-9:
        warnings.warn(
            "degenerate intensity normalization (constant ILM-BM band); "
            "returning an all-zero probability map",
            RuntimeWarning,
            stacklevel=2,
        )
        return ProbabilityMap3D(np.zeros(volume.dims, dtype=np.float32))

    # One B-scan at a time in float64, so no whole-volume float64 copy is
    # ever live; each slice's arithmetic is what the whole volume's was.
    out = np.empty(volume.dims, dtype=np.float32)
    for s in range(volume.n_slices):
        score = volume.data[s].astype(np.float64)
        score -= vmin
        score /= vmax - vmin
        out[s] = np.clip(score, 0.0, 1.0, out=score)
    return ProbabilityMap3D(out)


def infuse(
    p: ProbabilityMap3D,
    longitudinal: VoxelMask | None = None,
    transverse: VoxelMask | None = None,
) -> ProbabilityMap3D:
    """Pointwise-multiply the map by every provided mask's indicator.

    Absent masks are the identity, so infusion is idempotent for fixed
    masks and never increases any voxel's score.
    """
    out = p.data
    for mask in (longitudinal, transverse):
        if mask is not None:
            require_same_dims(p, mask, "probability map vs mask")
            if out is p.data:
                out = out * mask.data
            else:
                out *= mask.data
    return ProbabilityMap3D(out)


def binarize_and_label(p: ProbabilityMap3D, cfg: InfusionConfig) -> tuple[VoxelMask, int]:
    """Threshold at cfg.binarize_threshold, drop small components, count.

    Components are labeled in raster-scan order (ordered by their minimum
    linear voxel index), so the surviving count and mask are deterministic.
    Only the foreground's bounding box is labeled: it holds every component,
    and cropping keeps their raster-scan order.
    """
    binary = p.data > cfg.binarize_threshold
    # The box from per-axis projections: slices and rows first, then the
    # columns of those slices and rows only.
    on = binary.any(axis=2)
    if not on.any():
        return VoxelMask(binary), 0
    s, z = (np.flatnonzero(on.any(axis=k)) for k in (1, 0))
    x = np.flatnonzero(binary[s[0] : s[-1] + 1, z[0] : z[-1] + 1].any(axis=(0, 1)))
    box = (slice(s[0], s[-1] + 1), slice(z[0], z[-1] + 1), slice(x[0], x[-1] + 1))
    structure = (
        np.ones((3, 3, 3), dtype=bool)
        if cfg.connectivity == 26
        else ndimage.generate_binary_structure(3, 1)
    )
    # A contiguous copy, so that ravel() is a view to write the kept voxels
    # into. Components are sized and selected on the foreground voxels only:
    # indexing with the whole int32 label box would widen it to intp, and
    # the label box itself is dropped once their labels are read.
    crop = np.ascontiguousarray(binary[box])
    fg = np.flatnonzero(crop)
    fg_labels = ndimage.label(crop, structure=structure)[0].ravel()[fg]
    keep = np.bincount(fg_labels) >= cfg.min_component_vox
    keep[0] = False
    crop.ravel()[fg] = keep[fg_labels]
    binary[box] = crop
    return VoxelMask(binary), int(keep.sum())


@dataclass(frozen=True)
class Prepared:
    """The stage outputs every infusion variant of one volume shares."""

    volume: OctVolume
    boundaries: BoundarySet
    enface: EnFaceImage
    shadow_mask: PixelMask
    raw_probability: ProbabilityMap3D


@dataclass(frozen=True)
class CascadeResult(Prepared):
    """The prepared stages plus one variant's infused map and final mask."""

    mask: VoxelMask
    probability: ProbabilityMap3D
    component_count: int


def prepare(
    volume: OctVolume,
    boundaries: BoundarySet | None = None,
    shadow_source: PixelMask | None = None,
    backend_cfg: VesselBackendConfig | None = None,
    dp_cfg: DpConfig | None = None,
    shadow_cfg: ShadowConfig | None = None,
    probability: ProbabilityMap3D | None = None,
) -> Prepared:
    """Boundaries, en-face image, shadow mask and raw probability map.

    Boundary, shadow and probability sources default to the classical
    stages; pass pre-computed values (e.g. network outputs loaded from disk)
    to replace any of them. Shadows are segmented only when no mask is given.
    """
    if boundaries is None:
        boundaries = segment_boundaries(volume, dp_cfg)

    image = project_rpe(volume, boundaries)  # checks imported boundaries against the volume
    if shadow_source is None:
        shadow_source = segment_shadows(image, shadow_cfg)[0]
    else:
        require_same_dims(shadow_source, image, "shadow mask vs en-face image")

    if probability is None:
        probability = vessel_probability(volume, boundaries, backend_cfg)
    else:
        require_same_dims(probability, volume, "imported probability map vs volume")
    return Prepared(volume, boundaries, image, shadow_source, probability)


def extract(prepared: Prepared, infusion_cfg: InfusionConfig | None = None) -> CascadeResult:
    """Infuse the raw map with the priors the flags enable, then binarize.

    Only the enabled masks are built, so one `prepare` serves every
    variant of the ablation.
    """
    cfg = infusion_cfg or InfusionConfig()
    dims = prepared.volume.dims
    lm = longitudinal_mask(prepared.boundaries, dims) if cfg.use_longitudinal else None
    tm = (
        transverse_mask(prepared.shadow_mask, dims, cfg.transverse_dilation)
        if cfg.use_transverse
        else None
    )
    infused = infuse(prepared.raw_probability, lm, tm)
    mask, n_components = binarize_and_label(infused, cfg)
    return CascadeResult(**vars(prepared), mask=mask, probability=infused, component_count=n_components)


def run_cascade(
    volume: OctVolume,
    boundaries: BoundarySet | None = None,
    shadow_source: PixelMask | None = None,
    backend_cfg: VesselBackendConfig | None = None,
    infusion_cfg: InfusionConfig | None = None,
    dp_cfg: DpConfig | None = None,
    shadow_cfg: ShadowConfig | None = None,
    probability: ProbabilityMap3D | None = None,
) -> CascadeResult:
    """Execute the full three-part pipeline on one volume: `prepare`, then `extract`."""
    prepared = prepare(volume, boundaries, shadow_source, backend_cfg, dp_cfg, shadow_cfg, probability)
    return extract(prepared, infusion_cfg)
