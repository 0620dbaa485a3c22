"""The package's public names."""

import oct_cascade

PUBLIC = [
    "BOUNDARY_NAMES", "BoundarySet", "CascadeResult", "ConfusionCounts", "DpConfig",
    "EnFaceImage", "InfusionConfig", "MetricsReport", "OctVolume", "PhantomConfig",
    "PhantomGroundTruth", "PixelMask", "Prepared", "ProbabilityMap3D", "ScheduleParams",
    "ShadowConfig", "VesselBackendConfig", "VoxelMask", "acc", "auc", "binarize_and_label",
    "build_report", "confusion", "default_config", "extract", "generate", "infuse", "iou",
    "longitudinal_mask", "poly_lr", "prepare", "project_rpe", "read_boundaries",
    "read_volume", "run_cascade", "score", "segment_boundaries", "segment_shadows", "sen",
    "trace_boundary", "transverse_mask", "vessel_probability", "write_boundaries",
    "write_pgm", "write_volume",
]


def test_all_lists_the_public_names_the_package_imports():
    """`__all__` is every imported public name: no submodule and no `__version__`."""
    assert sorted(oct_cascade.__all__) == PUBLIC
