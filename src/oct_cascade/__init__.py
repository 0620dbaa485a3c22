"""Anatomy-guided 3D retinal vessel extraction from volumetric OCT."""

import types

from .model import (
    BOUNDARY_NAMES,
    BoundarySet,
    EnFaceImage,
    OctVolume,
    PixelMask,
    ProbabilityMap3D,
    VoxelMask,
)
from .phantom import PhantomConfig, PhantomGroundTruth, default_config, generate
from .layers import DpConfig, segment_boundaries, trace_boundary
from .enface import ShadowConfig, project_rpe, segment_shadows
from .cascade import (
    CascadeResult,
    InfusionConfig,
    Prepared,
    VesselBackendConfig,
    binarize_and_label,
    extract,
    infuse,
    longitudinal_mask,
    prepare,
    run_cascade,
    transverse_mask,
    vessel_probability,
)
from .metrics import (
    ConfusionCounts,
    MetricsReport,
    ScheduleParams,
    acc,
    auc,
    build_report,
    confusion,
    iou,
    poly_lr,
    score,
    sen,
)
from .fileio import read_boundaries, read_volume, write_boundaries, write_pgm, write_volume

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
