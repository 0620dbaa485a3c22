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

The cascade (`extract`) infuses one B-scan at a time: each prior stays in
its own dimensions (a depth band per A-scan, an en-face footprint) and is
expanded only over the B-scan being multiplied, and the classical backend
scores only the voxels the priors keep. `infuse` is the whole-volume
product of the masks, the reference it reproduces.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Annotated

import numpy as np
from scipy import ndimage

from .config import FromDict, In, Path
from .enface import ShadowConfig, keep_components, project_rpe, segment_shadows
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

    section = "infusion config"

    use_longitudinal: bool = True
    use_transverse: bool = True
    transverse_dilation: Annotated[int, In("[0, inf)")] = 1
    binarize_threshold: Annotated[float, In("(0, 1)")] = 0.5
    min_component_vox: Annotated[int, In("[1, inf)")] = 8
    connectivity: int = 26

    def __post_init__(self):
        super().__post_init__()
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

    section = "backend config"

    kind: str = "classical"
    path: Path | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in ("classical", "import"):
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if self.kind == "import" and not self.path:
            raise ConfigError("import backend requires a path")
        if self.kind == "classical" and self.path is not None:
            raise ConfigError("classical backend takes no path; give kind 'import' to import one")


def longitudinal_mask(boundaries: BoundarySet, dims: tuple[int, int, int]) -> VoxelMask:
    """The voxels of the ILM-INL_LOWER band."""
    lo, hi = boundaries.voxel_band("ILM", "INL_LOWER", dims)
    z = np.arange(dims[1])[None, :, None]
    return VoxelMask((z >= lo[:, None, :]) & (z <= hi[:, None, :]))


def _dilated_footprint(footprint: PixelMask, dims: tuple[int, int, int], dilation: int) -> np.ndarray:
    """The (slices, width) footprint dilated by a (2d+1)^2 square, checked against `dims`."""
    n_slices, _, width = dims
    if footprint.shape != (n_slices, width):
        raise ShapeMismatchError(
            f"footprint shape {footprint.shape} != volume transverse dims {(n_slices, width)}"
        )
    fp = footprint.data
    if dilation > 0 and fp.any():
        # The square reaches no further along an axis than its length - 1,
        # and a maximum filter applies it one axis at a time: a half-width
        # beyond the footprint costs no larger structure.
        size = [2 * min(dilation, n - 1) + 1 for n in fp.shape]
        fp = ndimage.maximum_filter(fp, size=size, mode="constant")
    return fp


def transverse_mask(footprint: PixelMask, dims: tuple[int, int, int], dilation: int = 0) -> VoxelMask:
    """Footprint dilated by a (2d+1)^2 square, extruded along depth."""
    fp = _dilated_footprint(footprint, dims, dilation)
    return VoxelMask(np.broadcast_to(fp[:, None, :], dims))


@dataclass(frozen=True)
class _ClassicalScores:
    """The classical backend's scores of `volume`, computed where they are
    read: a voxel of intensity v scores float32(clip((float64(v) - vmin) /
    (vmax - vmin), 0, 1)), where [vmin, vmax] is the ILM-BM band's range."""

    volume: OctVolume
    vmin: float
    vmax: float

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.volume.dims

    def read(self, s: int, rows=slice(None), cols=slice(None)) -> np.ndarray:
        """The scores of B-scan `s`'s `rows` in columns `cols`."""
        score = self.volume.data[s, rows][:, cols].astype(np.float64)
        score -= self.vmin
        score /= self.vmax - self.vmin
        return np.clip(score, 0.0, 1.0, out=score).astype(np.float32)


def _classical_scores(
    volume: OctVolume, boundaries: BoundarySet, cfg: VesselBackendConfig | None
) -> _ClassicalScores | ProbabilityMap3D:
    """The classical backend's scores, still to be read, or the all-zero map
    of a constant ILM-BM band, with a warning."""
    cfg = cfg or VesselBackendConfig()
    if cfg.kind == "import":
        raise ConfigError("an import backend scores nothing; pass its map to prepare as probability")

    # The band's range, one B-scan at a time over the rows its depths
    # reach. The float32 range is exactly the range of its float64 widening.
    lo, hi = boundaries.voxel_band("ILM", "BM", volume.dims)
    if (hi >= lo).any():
        vmin, vmax = np.inf, -np.inf
        for s in range(volume.n_slices):
            top, bottom = int(lo[s].min()), int(hi[s].max()) + 1
            z = np.arange(top, bottom)[:, None]
            band = (z >= lo[s]) & (z <= hi[s])
            rows = volume.data[s, top:bottom]
            vmin = min(vmin, float(rows.min(where=band, initial=np.inf)))
            vmax = max(vmax, float(rows.max(where=band, initial=-np.inf)))
    else:  # empty band: normalize over the whole volume
        vmin, vmax = float(volume.data.min()), float(volume.data.max())
    if vmax - vmin < 1e-9:
        warnings.warn(
            "degenerate intensity normalization (constant ILM-BM band); "
            "returning an all-zero probability map",
            RuntimeWarning,
            stacklevel=3,
        )
        return ProbabilityMap3D(np.zeros(volume.dims, dtype=np.float32))
    return _ClassicalScores(volume, vmin, vmax)


def vessel_probability(
    volume: OctVolume,
    boundaries: BoundarySet,
    cfg: VesselBackendConfig | None = None,
) -> ProbabilityMap3D:
    """Per-voxel vessel score in [0, 1].

    Classical backend: intensity min-max normalized using the value range
    inside the ILM-BM band (vitreous and choroid stay out of the
    normalization), clipped to [0, 1]. A constant band (no contrast at
    all) yields an all-zero map and a warning. Each B-scan is normalized
    in float64, so no whole-volume float64 copy is ever live.
    """
    return _raw_map(_classical_scores(volume, boundaries, cfg))


def _raw_map(scores: _ClassicalScores | ProbabilityMap3D) -> ProbabilityMap3D:
    """The map of `scores` at every voxel."""
    return _infuse(scores, None, None) if isinstance(scores, _ClassicalScores) else scores


def _read(scores: _ClassicalScores | ProbabilityMap3D, s: int, rows, cols) -> np.ndarray:
    """The scores of B-scan `s`'s `rows` in columns `cols`."""
    if isinstance(scores, _ClassicalScores):
        return scores.read(s, rows, cols)
    return scores.data[s, rows][:, cols]


def _infuse(scores: _ClassicalScores | ProbabilityMap3D, band, footprint) -> ProbabilityMap3D:
    """`scores` where each B-scan's keep image is set, the voxels of `band`
    (first and last depths per A-scan, every depth where it is None) in
    the columns `footprint` keeps (all of them where it is None), into a
    new map that starts at zeros.

    Only the rows from the B-scan's shallowest first depth to its deepest
    last depth, in the kept columns, are read and masked; without a band
    the kept columns are read whole. Every voxel left out is +0.0, whatever
    its score; a kept voxel keeps its score, -0.0 included.
    """
    out = np.zeros(scores.dims, dtype=np.float32)
    for s in range(scores.dims[0]):
        cols = slice(None) if footprint is None else np.flatnonzero(footprint[s])
        if band is None:
            out[s][:, cols] = _read(scores, s, slice(None), cols)
            continue
        lo, hi = band
        top, bottom = int(lo[s].min()), int(hi[s].max()) + 1
        z = np.arange(top, bottom)[:, None]
        keep = (z >= lo[s, cols]) & (z <= hi[s, cols])
        out[s, top:bottom][:, cols] = np.where(keep, _read(scores, s, slice(top, bottom), cols), np.float32(0))
    return ProbabilityMap3D(out)


def infuse(
    p: ProbabilityMap3D,
    longitudinal: VoxelMask | None = None,
    transverse: VoxelMask | None = None,
) -> ProbabilityMap3D:
    """Pointwise-multiply the map by every provided mask's indicator: the
    whole-volume reference of the infusion `extract` streams.

    Absent masks are the identity, so infusion is idempotent for fixed
    masks and never increases any voxel's score.
    """
    out = p.data
    for mask in (longitudinal, transverse):
        if mask is not None:
            require_same_dims(p, mask, "probability map vs mask")
            out = out * mask.data
    return p if out is p.data else ProbabilityMap3D(out)


def binarize_and_label(p: ProbabilityMap3D, cfg: InfusionConfig) -> tuple[VoxelMask, int]:
    """Threshold at cfg.binarize_threshold, then `keep_components`: the mask
    of the components of at least cfg.min_component_vox voxels, and their count."""
    binary = p.data > cfg.binarize_threshold
    n_components = keep_components(binary, cfg.connectivity, cfg.min_component_vox)
    return VoxelMask(binary), n_components  # VoxelMask freezes `binary`


@dataclass(frozen=True)
class Prepared:
    """The stage outputs every infusion variant of one volume shares.

    `scores` is the raw probability map, imported or built, or the
    classical backend's scores still to be read from the volume: the
    infusion reads only the voxels the priors keep. Each read of
    `raw_probability` builds the classical map anew; a caller that reads
    it more than once replaces `scores` with it.
    """

    boundaries: BoundarySet
    enface: EnFaceImage
    shadow_mask: PixelMask
    scores: ProbabilityMap3D | _ClassicalScores

    @property
    def raw_probability(self) -> ProbabilityMap3D:
        return _raw_map(self.scores)


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
    """Boundaries, en-face image, shadow mask and raw scores.

    Boundary, shadow and probability sources default to the classical
    stages; pass pre-computed values (e.g. network outputs loaded from disk)
    to replace any of them. Shadows are segmented only when no mask is given.
    The classical scores are normalized only where they are read; a
    constant ILM-BM band warns here and scores all zeros.
    """
    if boundaries is None:
        boundaries = segment_boundaries(volume, dp_cfg)

    image = project_rpe(volume, boundaries)  # checks imported boundaries against the volume
    if shadow_source is None:
        shadow_source = segment_shadows(image, shadow_cfg)[0]
    else:
        require_same_dims(shadow_source, image, "shadow mask vs en-face image")

    if probability is None:
        probability = _classical_scores(volume, boundaries, backend_cfg)
    else:
        require_same_dims(probability, volume, "imported probability map vs volume")
    return Prepared(boundaries, image, shadow_source, probability)


def apply_priors(prepared: Prepared, infusion_cfg: InfusionConfig | None = None) -> ProbabilityMap3D:
    """The raw map infused with the priors the flags enable.

    The priors stay in their own dimensions: the ILM-INL band as per-A-scan
    first and last depths, the dilated shadow footprint as a (slices,
    width) image. Each B-scan's keep image is built from them as it is
    applied, over the band's rows in the footprint's columns; without
    the longitudinal prior (band None) the kept columns are read whole.
    So one `prepare` serves every variant of the ablation and no
    whole-volume prior is built. Without either prior, the raw map itself.
    """
    cfg = infusion_cfg or InfusionConfig()
    if not (cfg.use_longitudinal or cfg.use_transverse):
        return prepared.raw_probability
    dims = prepared.scores.dims
    band = prepared.boundaries.voxel_band("ILM", "INL_LOWER", dims) if cfg.use_longitudinal else None
    fp = _dilated_footprint(prepared.shadow_mask, dims, cfg.transverse_dilation) if cfg.use_transverse else None
    return _infuse(prepared.scores, band, fp)


def extract(prepared: Prepared, infusion_cfg: InfusionConfig | None = None) -> CascadeResult:
    """`apply_priors`, then binarize the infused map."""
    cfg = infusion_cfg or InfusionConfig()
    infused = apply_priors(prepared, cfg)
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
