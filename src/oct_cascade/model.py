"""Core domain types for volumetric OCT processing.

All types validate their invariants at construction and freeze their
payload arrays, so a value that exists is a value other code can trust.
Array axis order is (slice, depth, column) for 3D grids and
(slice, column) for transverse 2D grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ShapeMismatchError, ValidationError

#: Retinal boundary surfaces in anatomical top-to-bottom order.
BOUNDARY_NAMES = ("ILM", "INL_LOWER", "RPE_UPPER", "BM")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _check_unit_range(data: np.ndarray, what: str) -> None:
    # NaN fails both comparisons and the initial values pass an empty grid;
    # only a failing grid is searched for its first bad voxel.
    if data.min(initial=0.0) >= 0.0 and data.max(initial=1.0) <= 1.0:
        return
    bad = ~np.isfinite(data)
    bad |= (data < 0.0) | (data > 1.0)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValidationError(
            f"{what} value {data[idx]!r} at voxel {idx} outside [0, 1]"
        )


@dataclass(frozen=True)
class Grid:
    """A frozen grid value: a volume, an en-face image, a probability map or a mask.

    A grid type declares its rank `ndim`, the `kind` it is stored as and the
    `noun` its errors call it. A mask holds bool and is stored as one 0/1
    byte per element; the other kinds hold float32 in [0, 1]. An array that
    already has the held dtype and is C-contiguous is not copied: it is
    frozen in place, so the caller's array becomes read-only.
    """

    ndim: ClassVar[int]
    kind: ClassVar[str]  # "intensity", "probability" or "mask"
    noun: ClassVar[str]

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=bool if self.kind == "mask" else np.float32)
        if data.ndim != self.ndim:
            raise ValidationError(f"{self.noun} must be {self.ndim}D, got ndim={data.ndim}")
        if self.kind != "mask":
            # a 2D grid is a transverse (en-face) projection
            _check_unit_range(data, self.kind if self.ndim == 3 else f"en-face {self.kind}")
        object.__setattr__(self, "data", _freeze(data))

    @classmethod
    def stored_dtype(cls) -> np.dtype:
        """The payload dtype on disk: one byte per mask element, else little-endian float32."""
        return np.dtype(np.uint8 if cls.kind == "mask" else "<f4")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    dims = shape


@dataclass(frozen=True)
class OctVolume(Grid):
    """A 3D OCT intensity grid in [0, 1] with optional voxel spacing.

    Parameters
    ----------
    data : ndarray, shape (n_slices, height, width)
        Intensities, stored as float32.
    spacing : tuple of float, optional
        Physical voxel spacing (dy, dz, dx) in micrometers. Informational.
    """

    ndim = 3
    kind = "intensity"
    noun = "volume"

    spacing: tuple[float, float, float] | None = None

    def __post_init__(self):
        shape = np.shape(self.data)
        if len(shape) == 3 and (shape[0] < 1 or shape[1] < 8 or shape[2] < 8):
            raise ValidationError(
                f"volume dims {shape} too small (need n_slices>=1, height>=8, width>=8)"
            )
        super().__post_init__()
        if self.spacing is not None:
            object.__setattr__(self, "spacing", tuple(float(v) for v in self.spacing))

    @classmethod
    def from_raw(cls, data: np.ndarray, spacing=None) -> "OctVolume":
        """Ingest raw scanner intensities, normalizing to [0, 1].

        Integer arrays are divided by their dtype's maximum so downstream
        thresholds are scale-free; float arrays must already be in [0, 1].
        """
        arr = np.asarray(data)
        if np.issubdtype(arr.dtype, np.integer):
            arr = arr.astype(np.float32) / np.iinfo(arr.dtype).max
        return cls(arr, spacing=spacing)

    @property
    def n_slices(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class BoundarySet:
    """Four named retinal boundary surfaces as fractional depths.

    Each surface is an (n_slices, width) float array giving the depth (in
    voxels, fractional allowed) of the boundary at every A-scan. The
    anatomical ordering ILM <= INL_LOWER <= RPE_UPPER <= BM must hold at
    every (slice, column).
    """

    surfaces: dict[str, np.ndarray]

    def __post_init__(self):
        if set(self.surfaces) != set(BOUNDARY_NAMES):
            missing = set(BOUNDARY_NAMES) - set(self.surfaces)
            extra = set(self.surfaces) - set(BOUNDARY_NAMES)
            raise ValidationError(
                f"boundary set needs exactly {BOUNDARY_NAMES}; "
                f"missing={sorted(missing)} extra={sorted(extra)}"
            )
        clean: dict[str, np.ndarray] = {}
        shape = None
        for name in BOUNDARY_NAMES:
            arr = np.asarray(self.surfaces[name], dtype=np.float64)
            if arr.ndim != 2:
                raise ValidationError(f"surface {name} must be 2D, got ndim={arr.ndim}")
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise ShapeMismatchError(
                    f"surface {name} shape {arr.shape} != {shape}"
                )
            if not np.isfinite(arr).all():
                raise ValidationError(f"surface {name} contains non-finite depths")
            if (arr < 0).any():
                raise ValidationError(f"surface {name} contains negative depths")
            clean[name] = _freeze(arr)
        for upper, lower in zip(BOUNDARY_NAMES[:-1], BOUNDARY_NAMES[1:]):
            viol = clean[upper] > clean[lower]
            if viol.any():
                s, x = (int(i) for i in np.argwhere(viol)[0])
                raise ValidationError(
                    f"boundary ordering violated at (slice={s}, column={x}): "
                    f"{upper}={clean[upper][s, x]} > {lower}={clean[lower][s, x]}"
                )
        object.__setattr__(self, "surfaces", clean)

    @property
    def shape(self) -> tuple[int, int]:
        return self.surfaces["ILM"].shape

    def __getitem__(self, name: str) -> np.ndarray:
        return self.surfaces[name]

    def check_against(self, dims: tuple[int, int, int]) -> None:
        """Validate this set against a volume's (n_slices, height, width)."""
        s, h, w = dims
        if self.shape != (s, w):
            raise ShapeMismatchError(
                f"boundary grid {self.shape} does not match volume transverse dims {(s, w)}"
            )
        bm = self.surfaces["BM"]
        if (bm > h - 1).any():
            sl, x = (int(i) for i in np.argwhere(bm > h - 1)[0])
            raise ValidationError(
                f"BM depth {bm[sl, x]} exceeds height-1={h - 1} at (slice={sl}, column={x})"
            )

    def voxel_band(
        self, upper: str, lower: str, dims: tuple[int, int, int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The voxels from surface `upper` down to surface `lower`, checked
        against a volume's dims: per (slice, column), the (n_slices, width)
        int64 first and last depths ceil(upper) and floor(lower), both in
        [0, height). A column whose last depth is above its first has an
        empty band."""
        self.check_against(dims)
        return (
            np.ceil(self.surfaces[upper]).astype(np.int64),
            np.floor(self.surfaces[lower]).astype(np.int64),
        )


class EnFaceImage(Grid):
    """A 2D (n_slices, width) transverse projection image in [0, 1]."""

    ndim = 2
    kind = "intensity"
    noun = "en-face image"


class PixelMask(Grid):
    """A 2D (n_slices, width) boolean transverse footprint."""

    ndim = 2
    kind = "mask"
    noun = "pixel mask"


class VoxelMask(Grid):
    """A 3D boolean mask with OCT volume axis order."""

    ndim = 3
    kind = "mask"
    noun = "voxel mask"

    def count(self) -> int:
        return int(self.data.sum())


class ProbabilityMap3D(Grid):
    """A 3D per-voxel score grid in [0, 1], float32."""

    ndim = 3
    kind = "probability"
    noun = "probability map"


#: Every grid type, each with its own stored kind and rank.
GRID_TYPES = (OctVolume, EnFaceImage, ProbabilityMap3D, VoxelMask, PixelMask)


def require_same_dims(a: Grid, b: Grid, what: str = "arrays") -> None:
    """Raise ShapeMismatchError unless the two grids share dims."""
    if a.dims != b.dims:
        raise ShapeMismatchError(f"{what}: {a.dims} != {b.dims}")
