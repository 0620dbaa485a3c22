"""The large-array stages against their whole-volume float64 originals.

project_rpe and vessel_probability work one B-scan at a time, and
binarize_and_label and infuse avoid whole-volume index and product
copies, and binarize_and_label labels only the foreground's bounding box.
The references below are the earlier whole-volume bodies; the streamed
stages must reproduce them bit for bit, run_cascade must stay within 4x
the volume's bytes of traced allocation, and auc within 10x the map's.
"""

import csv
import tracemalloc
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from oct_cascade.cascade import (
    InfusionConfig,
    binarize_and_label,
    infuse,
    run_cascade,
    vessel_probability,
)
from oct_cascade.enface import project_rpe
from oct_cascade.fileio import write_boundaries
from oct_cascade.metrics import auc
from oct_cascade.model import BOUNDARY_NAMES, BoundarySet, OctVolume, ProbabilityMap3D, VoxelMask


def project_rpe_reference(volume, boundaries):
    data = volume.data.astype(np.float64)
    n_slices, height, width = volume.dims
    z_lo = np.clip(np.ceil(boundaries["RPE_UPPER"]).astype(np.int64), 0, height - 1)
    z_hi = np.clip(np.floor(boundaries["BM"]).astype(np.int64), 0, height - 1)
    prefix = np.concatenate([np.zeros((n_slices, 1, width)), np.cumsum(data, axis=1)], axis=1)
    hi_take = np.take_along_axis(prefix, (z_hi + 1)[:, None, :], axis=1)[:, 0, :]
    lo_take = np.take_along_axis(prefix, z_lo[:, None, :], axis=1)[:, 0, :]
    count = z_hi - z_lo + 1
    empty = count < 1
    band_mean = (hi_take - lo_take) / np.where(empty, 1, count)
    if empty.any():
        z_fb = np.clip(np.rint(boundaries["RPE_UPPER"]).astype(np.int64), 0, height - 1)
        fallback = np.take_along_axis(data, z_fb[:, None, :], axis=1)[:, 0, :]
        band_mean = np.where(empty, fallback, band_mean)
    return np.clip(band_mean, 0.0, 1.0).astype(np.float32)


def vessel_probability_reference(volume, boundaries):
    """The map, or None where the band is constant (and a warning is due)."""
    data = volume.data.astype(np.float64)
    z = np.arange(volume.height)[None, :, None]
    band = (z >= np.ceil(boundaries["ILM"])[:, None, :]) & (
        z <= np.floor(boundaries["BM"])[:, None, :]
    )
    if not band.any():
        band = np.ones_like(band)
    vmin, vmax = float(data[band].min()), float(data[band].max())
    if vmax - vmin < 1e-9:
        return None
    return np.clip((data - vmin) / (vmax - vmin), 0.0, 1.0).astype(np.float32)


def binarize_and_label_reference(p, cfg):
    binary = p > cfg.binarize_threshold
    if not binary.any():
        return binary, 0
    structure = (
        np.ones((3, 3, 3), dtype=bool)
        if cfg.connectivity == 26
        else ndimage.generate_binary_structure(3, 1)
    )
    labels, _ = ndimage.label(binary, structure=structure)
    keep = np.bincount(labels.ravel()) >= cfg.min_component_vox
    keep[0] = False
    return keep[labels], int(keep.sum())


def binarize_and_label_full_volume_reference(p, cfg):
    """Labelling of the whole volume, before the crop to the foreground's box."""
    binary = p > cfg.binarize_threshold
    if not binary.any():
        return binary, 0
    structure = (
        np.ones((3, 3, 3), dtype=bool)
        if cfg.connectivity == 26
        else ndimage.generate_binary_structure(3, 1)
    )
    fg = np.flatnonzero(binary)
    fg_labels = ndimage.label(binary, structure=structure)[0].ravel()[fg]
    keep = np.bincount(fg_labels) >= cfg.min_component_vox
    keep[0] = False
    binary.ravel()[fg] = keep[fg_labels]
    return binary, int(keep.sum())


def infuse_reference(p, masks):
    out = p
    for mask in masks:
        if mask is not None:
            out = out * mask
    return out


@st.composite
def volumes_and_boundaries(draw):
    """Small random volumes (or constant ones) with ordered boundaries on a
    quarter-voxel grid. Some cells get BM == RPE_UPPER, which leaves their
    RPE band empty where the depth is fractional; a flat case puts all four
    surfaces at one fractional depth, so the ILM-BM band is empty too."""
    n_slices, height, width = draw(st.integers(1, 4)), draw(st.integers(8, 20)), draw(st.integers(8, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        data = rng.random((n_slices, height, width), dtype=np.float32)
    else:
        data = np.full((n_slices, height, width), draw(st.sampled_from([0.0, 0.3, 1.0])), np.float32)
    if draw(st.integers(0, 5)) == 0:
        depths = np.full((4, n_slices, width), draw(st.integers(0, height - 2)) + 0.5)
    else:
        depths = np.sort(np.round(rng.uniform(0, height - 1, (4, n_slices, width)) * 4) / 4, axis=0)
        collapse = rng.random((n_slices, width)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
        depths[3][collapse] = depths[2][collapse]
    boundaries = BoundarySet(dict(zip(BOUNDARY_NAMES, depths)))
    return OctVolume(data), boundaries


@settings(max_examples=150)
@given(volumes_and_boundaries())
def test_project_rpe_equals_whole_volume_reference(case):
    volume, boundaries = case
    assert np.array_equal(project_rpe(volume, boundaries).data, project_rpe_reference(volume, boundaries))


@settings(max_examples=150)
@given(volumes_and_boundaries())
def test_vessel_probability_equals_whole_volume_reference(case):
    volume, boundaries = case
    want = vessel_probability_reference(volume, boundaries)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = vessel_probability(volume, boundaries).data
    assert any(str(w.message).startswith("degenerate") for w in caught) == (want is None)
    assert np.array_equal(got, np.zeros(volume.dims, np.float32) if want is None else want)


@st.composite
def probability_maps(draw):
    dims = (draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # raising to a power thins the voxels above threshold, so components vary in size
    return (rng.random(dims) ** draw(st.sampled_from([1, 2, 4]))).astype(np.float32), rng


@settings(max_examples=150)
@given(
    probability_maps(),
    st.sampled_from([0.1, 0.5, 0.9]),
    st.sampled_from([6, 26]),
    st.integers(1, 12),
)
def test_binarize_and_label_equals_whole_volume_reference(case, threshold, connectivity, min_vox):
    p, _ = case
    cfg = InfusionConfig(
        binarize_threshold=threshold, connectivity=connectivity, min_component_vox=min_vox
    )
    mask, count = binarize_and_label(ProbabilityMap3D(p), cfg)
    want_mask, want_count = binarize_and_label_reference(p, cfg)
    assert np.array_equal(mask.data, want_mask) and count == want_count


@st.composite
def foreground_maps(draw):
    """Maps whose foreground (above 0.5) touches every face of the volume,
    fills a random box inside it, is a single voxel, or is empty."""
    dims = (draw(st.integers(1, 5)), draw(st.integers(1, 10)), draw(st.integers(1, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = (0.5 * rng.random(dims)).astype(np.float32)
    kind = draw(st.sampled_from(["faces", "box", "single", "empty"]))
    if kind == "faces":
        for axis, n in enumerate(dims):
            for end in (0, n - 1):
                at = [int(rng.integers(0, m)) for m in dims]
                at[axis] = end
                p[tuple(at)] = 0.75
        p[rng.random(dims) < draw(st.sampled_from([0.1, 0.3, 0.6]))] = 0.9
    elif kind == "box":
        lo = [int(rng.integers(0, n)) for n in dims]
        box = tuple(slice(a, int(rng.integers(a, n)) + 1) for a, n in zip(lo, dims))
        p[box] = np.where(rng.random(p[box].shape) < 0.5, 0.9, 0.1)
    elif kind == "single":
        p[tuple(int(rng.integers(0, n)) for n in dims)] = 0.75
    return p


@settings(max_examples=300)
@given(foreground_maps(), st.sampled_from([6, 26]), st.integers(1, 12))
def test_binarize_and_label_equals_full_volume_labelling(p, connectivity, min_vox):
    cfg = InfusionConfig(connectivity=connectivity, min_component_vox=min_vox)
    mask, count = binarize_and_label(ProbabilityMap3D(p), cfg)
    want_mask, want_count = binarize_and_label_full_volume_reference(p, cfg)
    assert np.array_equal(mask.data, want_mask)
    assert count == want_count


@settings(max_examples=100)
@given(probability_maps(), st.booleans(), st.booleans())
def test_infuse_equals_whole_volume_reference(case, use_l, use_t):
    p, rng = case
    masks = [rng.random(p.shape) < 0.6 if use else None for use in (use_l, use_t)]
    got = infuse(ProbabilityMap3D(p), *(None if m is None else VoxelMask(m) for m in masks))
    assert np.array_equal(got.data, infuse_reference(p, masks))


def test_write_boundaries_equals_per_cell_repr(tmp_path):
    rng = np.random.default_rng(3)
    depths = np.sort(rng.uniform(0, 40, (4, 3, 7)), axis=0)
    depths[:, 0, :2] = np.round(depths[:, 0, :2])  # integral depths print as "12.0"
    boundaries = BoundarySet(dict(zip(BOUNDARY_NAMES, depths)))
    write_boundaries(boundaries, str(tmp_path / "got.csv"))
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["boundary", "slice", "column", "depth"])
        for name in BOUNDARY_NAMES:
            for s in range(3):
                for x in range(7):
                    writer.writerow([name, s, x, repr(float(boundaries[name][s, x]))])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_run_cascade_allocates_at_most_4x_volume(desk_phantom):
    _, volume, _ = desk_phantom
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        run_cascade(volume)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    growth = (peak - entry) / volume.data.nbytes
    assert growth <= 4.0, f"run_cascade allocated {growth:.2f}x the volume's bytes"


def test_auc_allocates_at_most_10x_the_map():
    """ROC area of a desk-size map with nearly all-distinct scores: one
    threshold per voxel, so every curve-length array is as long as the map."""
    rng = np.random.default_rng(0)
    dims = (32, 192, 160)
    scores = ProbabilityMap3D(rng.random(dims, dtype=np.float32))
    gt = VoxelMask(rng.random(dims) < 0.02)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        auc(scores, gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    growth = (peak - entry) / scores.data.nbytes
    assert growth <= 10.0, f"auc allocated {growth:.2f}x the map's bytes"
