"""Seeded synthetic OCT volumes with known anatomy and vessel ground truth.

The phantom stacks five layers (vitreous, inner retina, middle retina, RPE
band, choroid) between four smoothly undulating boundary surfaces, routes
bright vessel tubes through the ILM-INL band, casts attenuation shadows
below each tube, and finishes with clamped Gaussian speckle. Every draw
comes from a counter-based Philox stream keyed by (seed, stage), so output
is a pure function of the config and adding vessels never moves the
surfaces.

Default intensity levels are calibrated against the classical cascade:
the RPE band is the brightest structure (so it dominates an unmasked
intensity backend), vessels sit well above the inner retina, and the inner
retina sits close enough to the binarization threshold that default
speckle produces transversely spread false positives - the failure mode
the two anatomical masks exist to remove.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from . import kernels
from .config import FromDict, In
from .errors import ConfigError
from .model import BOUNDARY_NAMES, BoundarySet, OctVolume, PixelMask, VoxelMask, _freeze

_STREAM_SURFACES = 0
_STREAM_VESSELS = 1
_STREAM_NOISE = 2

#: (name, default level) in anatomical top-to-bottom order.
DEFAULT_LAYER_LEVELS = {
    "vitreous": 0.05,
    "inner_retina": 0.475,
    "middle_retina": 0.10,
    "rpe": 0.95,
    "choroid": 0.30,
}

# Boundary surface placement as fractions of volume height.
_ILM_FRAC = 0.22
_INL_FRAC = 0.40
_RPE_FRAC = 0.70
_BM_OFFSET_FRAC = 0.065

# The RPE band renders as a one-voxel bright cap at its configured level
# over a dimmer tail. A flat-bright slab has no depth structure, so a
# maximum-intensity tracer could not pin its upper boundary; the cap is
# what the tracer locks onto.
_RPE_CAP_VOXELS = 1.0
_RPE_TAIL_FACTOR = 0.85

#: The most voxels a phantom may hold: a 512 MiB float32 volume, 37x the
#: paper volume.
MAX_VOXELS = 2**27

#: An intensity level or a depth fraction.
_Unit = Annotated[float, In("[0, 1]")]


@dataclass(frozen=True)
class PhantomConfig(FromDict):
    """Parameters of one synthetic volume. Equal configs generate equal bytes."""

    section = "phantom config"

    dims: tuple[Annotated[int, In("[1, inf)")], Annotated[int, In("[16, inf)")],
                Annotated[int, In("[16, inf)")]] = (32, 192, 160)
    # The cap refuses a count numpy could not allocate paths for, before any stage runs.
    n_vessels: Annotated[int, In("[0, 65535]")] = 4
    vessel_radius: Annotated[float, In("[0.5, inf)")] = 2.0
    vessel_depth_fraction_range: tuple[_Unit, _Unit] = (0.25, 0.75)
    shadow_attenuation: Annotated[float, In("(0, 1]")] = 0.4
    noise_sigma: Annotated[float, In("[0, inf)")] = 0.03
    layer_levels: dict[str, _Unit] = field(default_factory=lambda: dict(DEFAULT_LAYER_LEVELS))
    vessel_level: _Unit = 0.7
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if math.prod(self.dims) > MAX_VOXELS:
            raise ConfigError(
                f"dims {list(self.dims)} hold {math.prod(self.dims)} voxels; a phantom holds "
                f"at most {MAX_VOXELS} (2**27)"
            )
        lo, hi = self.vessel_depth_fraction_range
        if lo > hi:
            raise ConfigError(f"vessel_depth_fraction_range ({lo}, {hi}) must have lo <= hi")
        if set(self.layer_levels) != set(DEFAULT_LAYER_LEVELS):
            raise ConfigError(f"layer_levels must name exactly {sorted(DEFAULT_LAYER_LEVELS)}")
        rpe = self.layer_levels["rpe"]
        others = [v for k, v in self.layer_levels.items() if k != "rpe"]
        if not all(rpe > v for v in others):
            raise ConfigError("the RPE band must be the strictly brightest layer")


@dataclass(frozen=True)
class PhantomGroundTruth:
    """Oracle emitted next to each phantom volume."""

    boundaries: BoundarySet
    vessel_mask: VoxelMask
    shadow_footprint: PixelMask
    #: per-vessel (n_slices, 2) arrays of (depth, column) axis samples
    centerlines: tuple[np.ndarray, ...]


def default_config(scale: str, n_slices: int | None = None, seed: int = 0) -> PhantomConfig:
    """Configs for the two supported working scales.

    `desk` is small enough for tests and iteration; `paper` matches the
    B-scan raster of a common clinical acquisition (496 deep, 384 wide)
    with a configurable slice count.
    """
    if scale == "desk":
        return PhantomConfig(dims=(n_slices or 32, 192, 160), seed=seed)
    if scale == "paper":
        return PhantomConfig(
            dims=(n_slices or 19, 496, 384),
            n_vessels=6,
            vessel_radius=2.5,
            seed=seed,
        )
    raise ConfigError(f"unknown phantom scale {scale!r} (expected 'desk' or 'paper')")


def _stream(seed: int, stage: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stage)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _undulation(rng, n_slices, width, amplitude, n_waves=2):
    """Smooth seeded surface wobble: a sum of separable random sinusoids."""
    s = np.arange(n_slices)[:, None]
    x = np.arange(width)[None, :]
    out = np.zeros((n_slices, width))
    for _ in range(n_waves):
        amp = amplitude * rng.uniform(0.5, 1.0)
        fs = rng.uniform(0.5, 1.5)
        fx = rng.uniform(0.5, 1.5)
        ps = rng.uniform(0.0, 2.0 * np.pi)
        px = rng.uniform(0.0, 2.0 * np.pi)
        out = out + amp * np.sin(2.0 * np.pi * fs * s / max(n_slices, 2) + ps) * np.sin(
            2.0 * np.pi * fx * x / width + px
        )
    return out


def _surfaces(cfg: PhantomConfig) -> BoundarySet:
    n_slices, height, width = cfg.dims
    rng = _stream(cfg.seed, _STREAM_SURFACES)
    common = _undulation(rng, n_slices, width, amplitude=0.013 * height)
    bases = {
        "ILM": _ILM_FRAC * height,
        "INL_LOWER": _INL_FRAC * height,
        "RPE_UPPER": _RPE_FRAC * height,
        "BM": (_RPE_FRAC + _BM_OFFSET_FRAC) * height,
    }
    surfaces = {}
    for name, base in bases.items():
        own = _undulation(rng, n_slices, width, amplitude=0.004 * height)
        surfaces[name] = np.clip(base + common + own, 1.0, height - 2.0)
    # The margins between bases dwarf the per-surface wobble, but enforce
    # ordering anyway so the invariant is structural.
    for upper, lower in zip(BOUNDARY_NAMES, BOUNDARY_NAMES[1:]):
        surfaces[lower] = np.maximum(surfaces[lower], surfaces[upper])
    return BoundarySet(surfaces)


def _layer_cake(cfg: PhantomConfig, b: BoundarySet, s: int) -> np.ndarray:
    """B-scan `s` of the layered anatomy, (1, height, width) float64: vitreous,
    then each deeper layer painted from its upper surface down."""
    _, height, width = cfg.dims
    z = np.arange(height, dtype=np.float64)[:, None]
    levels, rpe = cfg.layer_levels, b["RPE_UPPER"][s]
    data = np.full((1, height, width), levels["vitreous"])
    for top, level in ((b["ILM"][s], levels["inner_retina"]),
                       (b["INL_LOWER"][s], levels["middle_retina"]),
                       (rpe, levels["rpe"]),
                       (rpe + _RPE_CAP_VOXELS, levels["rpe"] * _RPE_TAIL_FACTOR)):
        data[0][z >= top] = level
    data[0][z > b["BM"][s]] = levels["choroid"]  # strictly below BM: its own row stays in the band
    return data


def _vessel_paths(cfg: PhantomConfig, b: BoundarySet):
    """Per-vessel axis samples (zc, xc), each (n_vessels, n_slices)."""
    n_slices, height, width = cfg.dims
    n = cfg.n_vessels
    zc = np.zeros((n, n_slices))
    xc = np.zeros((n, n_slices))
    if n == 0:
        return zc, xc
    rng = _stream(cfg.seed, _STREAM_VESSELS)
    lo, hi = cfg.vessel_depth_fraction_range
    r = cfg.vessel_radius
    band = b["INL_LOWER"] - b["ILM"]
    t_min = float(band.min())
    if min(lo, 1.0 - hi) * t_min < r:
        raise ConfigError(
            f"ILM-INL band (min thickness {t_min:.1f} voxels) too thin to host a "
            f"vessel of radius {r} at depth fractions in [{lo}, {hi}]"
        )
    s_axis = np.arange(n_slices)
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    for v in range(n):
        # Draw order is fixed per vessel and the base column comes from a
        # golden-ratio sequence, so adding vessels extends the stream
        # without disturbing earlier tubes.
        frac = rng.uniform(lo, hi)
        x0 = width * (((v + 1) * golden) % 1.0) + rng.uniform(-4.0, 4.0)
        amp = rng.uniform(1.5, 3.5)
        fs = rng.uniform(0.4, 1.2)
        ph = rng.uniform(0.0, 2.0 * np.pi)
        x_path = x0 + amp * np.sin(2.0 * np.pi * fs * s_axis / max(n_slices, 2) + ph)
        x_path = np.clip(x_path, r + 1.0, width - r - 2.0)
        xi = np.clip(np.rint(x_path).astype(np.int64), 0, width - 1)
        z_path = b["ILM"][s_axis, xi] + frac * band[s_axis, xi]
        zc[v] = z_path
        xc[v] = x_path
    return zc, xc


def generate(cfg: PhantomConfig) -> tuple[OctVolume, PhantomGroundTruth]:
    """Generate one phantom volume and its ground truth.

    Deterministic in `cfg` (including the seed): two calls produce
    byte-identical volumes and masks. The volume is built one B-scan at a
    time in float64 (layers, tubes, shadows, speckle, clip) and stored as
    float32; a voxel is only touched by the chords of its own B-scan, and
    the speckle drawn per B-scan continues one Philox stream, so the bytes
    are those of a whole-volume build.
    """
    boundaries = _surfaces(cfg)
    zc, xc = _vessel_paths(cfg, boundaries)
    noise_rng = _stream(cfg.seed, _STREAM_NOISE)
    out = np.empty(cfg.dims, dtype=np.float32)
    vmask = np.zeros(cfg.dims, dtype=bool)
    for s in range(cfg.dims[0]):
        data, at = _layer_cake(cfg, boundaries, s), slice(s, s + 1)
        tubes = (vmask[at], zc[:, at], xc[:, at], cfg.vessel_radius)
        kernels.raster_tubes(data, *tubes, cfg.vessel_level)
        kernels.apply_shadows(data, *tubes, cfg.shadow_attenuation)
        if cfg.noise_sigma > 0:
            data += noise_rng.normal(0.0, cfg.noise_sigma, size=data.shape)
        out[at] = np.clip(data, 0.0, 1.0, out=data)

    volume = OctVolume(out)
    footprint = PixelMask(vmask.any(axis=1))
    centerlines = tuple(_freeze(np.stack([z, x], axis=1)) for z, x in zip(zc, xc))
    return volume, PhantomGroundTruth(
        boundaries=boundaries,
        vessel_mask=VoxelMask(vmask),
        shadow_footprint=footprint,
        centerlines=centerlines,
    )
