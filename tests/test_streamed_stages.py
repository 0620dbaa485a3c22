"""The large-array stages against their whole-volume float64 originals.

project_rpe and vessel_probability work one B-scan at a time, and
binarize_and_label avoids whole-volume index copies and labels only the
foreground's bounding box. extract infuses one B-scan at a time from the
ILM-INL band's depths and the dilated en-face footprint, building no
whole-volume prior; infuse is the whole-volume product of the masks, and
the tests below pin the bytes of both, -0.0 scores included.
longitudinal_mask, project_rpe, vessel_probability and extract take their
bands from BoundarySet.voxel_band. The references below are the earlier
whole-volume bodies, and project_rpe's is the band mean's definition; the
streamed stages must reproduce them bit for bit.
The classical backend's scores are read only where the priors keep them,
and the tests hold that infusion to the whole map's, and `_gray` to
`gray_levels` per B-scan.
Traced allocation must stay within these multiples of the volume's
bytes: run_cascade 2.75x, run_to_files 3.25x (a volume read from disk, with
its ground truth and overlays, from classical or imported sources) and
2.75x with classical sources and both priors, ablate 5x on one seed and
4x on two (of one seed's phantom, generated inside it), segment_boundaries
1.3x, project_rpe 0.1x and generate 2x of its float32 volume; auc within
1.25x the map's, and 0.1x on a map with 2% non-zero scores.
"""

import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from oct_cascade import pipeline
from oct_cascade.cascade import (
    InfusionConfig,
    Prepared,
    binarize_and_label,
    extract,
    infuse,
    longitudinal_mask,
    prepare,
    run_cascade,
    transverse_mask,
    vessel_probability,
)
from oct_cascade.enface import project_rpe
from oct_cascade.errors import ShapeMismatchError, ValidationError
from oct_cascade.fileio import gray_levels, write_boundaries, write_pgm, write_volume
from oct_cascade.layers import segment_boundaries
from oct_cascade.metrics import auc
from oct_cascade.model import (
    BOUNDARY_NAMES, BoundarySet, EnFaceImage, OctVolume, PixelMask, ProbabilityMap3D, VoxelMask,
)
from oct_cascade.phantom import default_config, generate


def project_rpe_reference(volume, boundaries):
    """The band mean's definition: a float64 masked sum over each column's
    RPE_UPPER-BM band, divided by its count; an empty band reads the one
    voxel at round(RPE_UPPER)."""
    height = volume.height
    z = np.arange(height)[None, :, None]
    band = (z >= np.ceil(boundaries["RPE_UPPER"])[:, None, :]) & (
        z <= np.floor(boundaries["BM"])[:, None, :]
    )
    sums = volume.data.sum(axis=1, dtype=np.float64, where=band)
    count = band.sum(axis=1)
    z_fb = np.clip(np.rint(boundaries["RPE_UPPER"]).astype(np.int64), 0, height - 1)
    fallback = np.take_along_axis(volume.data, z_fb[:, None, :], axis=1)[:, 0, :]
    band_mean = np.where(count > 0, sums / np.maximum(count, 1), fallback.astype(np.float64))
    return np.clip(band_mean, 0.0, 1.0).astype(np.float32)


def longitudinal_mask_reference(boundaries, dims):
    boundaries.check_against(dims)
    _, height, _ = dims
    z = np.arange(height)[None, :, None]
    lo = np.ceil(boundaries["ILM"])[:, None, :]
    hi = np.floor(boundaries["INL_LOWER"])[:, None, :]
    return (z >= lo) & (z <= hi)


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


def vessel_probability_band_reference(volume, boundaries):
    """The body that took the ILM-BM band's range over a whole-volume bool
    band; the map, or None where the band is constant."""
    lo, hi = boundaries.voxel_band("ILM", "BM", volume.dims)
    z = np.arange(volume.height)[None, :, None]
    band = (z >= lo[:, None, :]) & (z <= hi[:, None, :])
    if not band.any():
        band = True
    vmin = float(volume.data.min(where=band, initial=np.inf))
    vmax = float(volume.data.max(where=band, initial=-np.inf))
    if vmax - vmin < 1e-9:
        return None
    out = np.empty(volume.dims, dtype=np.float32)
    for s in range(volume.n_slices):
        score = volume.data[s].astype(np.float64)
        score -= vmin
        score /= vmax - vmin
        out[s] = np.clip(score, 0.0, 1.0, out=score)
    return out


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
    quarter-voxel grid. Some random volumes have each voxel scaled by a
    random power of two down to 2**-60, so their values span 60 binary
    orders of magnitude. Some cells get BM == RPE_UPPER, which leaves their
    RPE band empty where the depth is fractional; a flat case puts all four
    surfaces at one fractional depth, so the ILM-BM band is empty too. Some
    examples pin the top surfaces to depth 0 and the bottom ones to
    height-1 in some columns, so bands reach both ends of the volume."""
    n_slices, height, width = draw(st.integers(1, 4)), draw(st.integers(8, 20)), draw(st.integers(8, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        data = rng.random((n_slices, height, width), dtype=np.float32)
        if draw(st.booleans()):
            data *= 2.0 ** -rng.integers(0, 61, data.shape)
    else:
        data = np.full((n_slices, height, width), draw(st.sampled_from([0.0, 0.3, 1.0])), np.float32)
    if draw(st.integers(0, 5)) == 0:
        depths = np.full((4, n_slices, width), draw(st.integers(0, height - 2)) + 0.5)
    else:
        depths = np.sort(np.round(rng.uniform(0, height - 1, (4, n_slices, width)) * 4) / 4, axis=0)
        collapse = rng.random((n_slices, width)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
        depths[3][collapse] = depths[2][collapse]
    if draw(st.booleans()):
        pinned = rng.random((n_slices, width)) < draw(st.sampled_from([0.3, 1.0]))
        depths[4 - draw(st.integers(1, 4)) :, pinned] = height - 1
        depths[: draw(st.integers(0, 4)), pinned] = 0
    boundaries = BoundarySet(dict(zip(BOUNDARY_NAMES, depths)))
    return OctVolume(data), boundaries


@settings(max_examples=150)
@given(volumes_and_boundaries())
def test_longitudinal_mask_equals_whole_volume_reference(case):
    volume, boundaries = case
    want = longitudinal_mask_reference(boundaries, volume.dims)
    assert np.array_equal(longitudinal_mask(boundaries, volume.dims).data, want)


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


def _layered_case(data: np.ndarray, ilm, bm, rpe=None):
    """`data` with ILM and INL_LOWER at depth `ilm` and RPE_UPPER (`rpe`,
    else `bm`) and BM at `bm`, each one depth or one per slice; where both
    are one fractional depth, the ILM-BM band is empty."""
    n_slices, _, width = data.shape
    top, upper, bottom = (np.repeat(np.resize(np.asarray(d, float), (n_slices, 1)), width, axis=1)
                          for d in (ilm, bm if rpe is None else rpe, bm))
    return OctVolume(data), BoundarySet(dict(zip(BOUNDARY_NAMES, (top, top, upper, bottom))))


_RANDOM = np.random.default_rng(5).random((3, 10, 8), dtype=np.float32)
_CONSTANT = np.full((3, 10, 8), 0.3, np.float32)
_CANCELLING = np.ones((1, 16, 8), np.float32)
_CANCELLING[:, 10:13] = 3e-9


@settings(max_examples=150)
@given(volumes_and_boundaries())
# BM on the bottom row, so the bands reach the volume's last row
@example(_layered_case(_RANDOM, 1.0, 9.0, rpe=[3.0, 6.5, 9.0]))
# empty RPE-BM bands at half-voxel depths, each read as the one voxel at
# round(RPE_UPPER): next to the bottom row, and mid-height
@example(_layered_case(_RANDOM, 1.0, [8.5, 8.5, 4.5]))
# three 3e-9 voxels under ten rows of 1.0: a difference of depth prefix
# sums loses their digits to the rows above the band
@example(_layered_case(_CANCELLING, 1.0, 12.0, rpe=10.0))
def test_project_rpe_equals_whole_volume_reference(case):
    volume, boundaries = case
    assert np.array_equal(project_rpe(volume, boundaries).data, project_rpe_reference(volume, boundaries))


@settings(max_examples=150)
@given(volumes_and_boundaries())
@example(_layered_case(_RANDOM, 4.5, 4.5))  # empty band: the whole volume's range
@example(_layered_case(_CONSTANT, 4.5, 4.5))  # empty band, constant volume
@example(_layered_case(_CONSTANT, 4.0, 4.0))  # constant one-row band
@example(_layered_case(_RANDOM, [4.5, 2.0, 4.5], [4.5, 7.0, 4.5]))  # a band in one slice only
def test_vessel_probability_equals_whole_volume_band_body(case):
    """The band's range taken one B-scan at a time is that of the whole-volume band."""
    volume, boundaries = case
    want = vessel_probability_band_reference(volume, boundaries)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = vessel_probability(volume, boundaries).data
    assert any(str(w.message).startswith("degenerate") for w in caught) == (want is None)
    assert np.array_equal(got, np.zeros(volume.dims, np.float32) if want is None else want)


BAND_STAGES = {
    "longitudinal_mask": lambda volume, boundaries: longitudinal_mask(boundaries, volume.dims),
    "project_rpe": project_rpe,
    "vessel_probability": vessel_probability,
}


@pytest.mark.parametrize("stage", sorted(BAND_STAGES))
def test_band_stages_check_the_boundaries_against_the_volume(stage):
    volume = OctVolume(np.random.default_rng(0).random((2, 10, 8), dtype=np.float32))
    depths = np.broadcast_to(np.array([1.0, 3.0, 5.0, 9.0])[:, None, None], (4, 2, 8))
    run = BAND_STAGES[stage]
    run(volume, BoundarySet(dict(zip(BOUNDARY_NAMES, depths))))  # BM at height-1 is inside
    with pytest.raises(ShapeMismatchError, match="boundary grid"):
        run(volume, BoundarySet(dict(zip(BOUNDARY_NAMES, depths[:, :, :7]))))
    beyond = depths.copy()
    beyond[3, 1, 4] = 9.25
    with pytest.raises(ValidationError, match="BM depth 9.25 exceeds height-1=9"):
        run(volume, BoundarySet(dict(zip(BOUNDARY_NAMES, beyond))))


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
    """Bit for bit, -0.0 scores included, for every pair of masks."""
    p, rng = case
    p[rng.random(p.shape) < 0.3] = -0.0
    masks = [rng.random(p.shape) < 0.6 if use else None for use in (use_l, use_t)]
    got = infuse(ProbabilityMap3D(p), *(None if m is None else VoxelMask(m) for m in masks))
    assert got.data.tobytes() == infuse_reference(p, masks).tobytes()


@settings(max_examples=100)
@given(volumes_and_boundaries(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       st.integers(0, 3))
def test_transverse_only_extract_copies_the_kept_columns(case, seed, density, dilation):
    """Without the band, extract copies the kept columns whole: an imported
    -0.0 stays -0.0 there and every dropped voxel is +0.0."""
    volume, boundaries = case
    n_slices, _, width = volume.dims
    rng = np.random.default_rng(seed)
    footprint = rng.random((n_slices, width)) < density
    p = volume.data.copy()
    p[rng.random(p.shape) < 0.3] = -0.0
    prepared = Prepared(boundaries, EnFaceImage(np.zeros((n_slices, width), np.float32)),
                        PixelMask(footprint), ProbabilityMap3D(p))
    cfg = InfusionConfig(use_longitudinal=False, transverse_dilation=dilation)
    got = extract(prepared, cfg).probability.data

    fp = footprint
    if dilation and footprint.any():
        fp = ndimage.binary_dilation(footprint, structure=np.ones((2 * dilation + 1,) * 2, bool))
    assert got.tobytes() == np.where(fp[:, None, :], p, np.float32(0)).tobytes()


_ILM = np.array([[2.0] * 4 + [6.0] * 4])


@settings(max_examples=100)
@given(volumes_and_boundaries(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       st.integers(0, 2), st.sampled_from([0.3, 1.0]), st.booleans(), st.booleans())
@example(case=(OctVolume(np.zeros((1, 16, 8), np.float32)),
               BoundarySet(dict(zip(BOUNDARY_NAMES, (_ILM, _ILM + 1, _ILM + 6, _ILM + 8))))),
         seed=0, density=1.0, dilation=0, negative_zeros=1.0, use_l=True, use_t=False)
def test_extract_writes_every_dropped_voxel_as_positive_zero(case, seed, density, dilation,
                                                             negative_zeros, use_l, use_t):
    """On maps holding -0.0 scores, for every flag pair, a kept voxel keeps
    its bytes and a dropped one is +0.0. The example is an all -0.0 B-scan
    whose ILM sits at 2 in columns 0-3 and at 6 in columns 4-7: rows 4-7 of
    column 0 lie inside the B-scan's row span, outside their own band."""
    volume, boundaries = case
    n_slices, _, width = volume.dims
    rng = np.random.default_rng(seed)
    footprint = rng.random((n_slices, width)) < density
    p = volume.data.copy()
    p[rng.random(p.shape) < negative_zeros] = -0.0
    prepared = Prepared(boundaries, EnFaceImage(np.zeros((n_slices, width), np.float32)),
                        PixelMask(footprint), ProbabilityMap3D(p))
    cfg = InfusionConfig(use_longitudinal=use_l, use_transverse=use_t, transverse_dilation=dilation)
    got = extract(prepared, cfg).probability.data

    keep = np.ones(p.shape, dtype=bool)
    if use_l:
        keep &= longitudinal_mask_reference(boundaries, volume.dims)
    if use_t:
        fp = footprint
        if dilation and footprint.any():
            fp = ndimage.binary_dilation(footprint, structure=np.ones((2 * dilation + 1,) * 2, bool))
        keep &= fp[:, None, :]
    assert got.tobytes() == np.where(keep, p, np.float32(0)).tobytes()


def _degenerate_warnings(call, *args):
    """`call(*args)` and the number of degenerate-normalization warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = call(*args)
    return value, sum(str(w.message).startswith("degenerate") for w in caught)


@settings(max_examples=150)
@given(volumes_and_boundaries(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       st.integers(0, 2), st.booleans(), st.booleans())
def test_classical_extract_equals_infusion_of_the_whole_map(case, seed, density, dilation, use_l, use_t):
    """The classical scores are read only where the priors keep them: for
    every flag pair, bit for bit the whole-volume masks' infusion of
    vessel_probability's map. A constant ILM-BM band warns once, in
    `prepare`, and scores all zeros. `raw_probability` reads as that map."""
    volume, boundaries = case
    n_slices, _, width = volume.dims
    footprint = PixelMask(np.random.default_rng(seed).random((n_slices, width)) < density)
    raw, warned = _degenerate_warnings(vessel_probability, volume, boundaries)
    prepared, prepare_warned = _degenerate_warnings(prepare, volume, boundaries, footprint)
    assert prepare_warned == warned <= 1
    cfg = InfusionConfig(use_longitudinal=use_l, use_transverse=use_t, transverse_dilation=dilation,
                         min_component_vox=1)
    got, extract_warned = _degenerate_warnings(extract, prepared, cfg)
    masks = (longitudinal_mask(boundaries, volume.dims) if use_l else None,
             transverse_mask(footprint, volume.dims, dilation) if use_t else None)
    want = infuse(raw, *masks)
    assert extract_warned == 0
    assert got.probability.data.tobytes() == want.data.tobytes()
    assert np.array_equal(got.mask.data, binarize_and_label_reference(want.data, cfg)[0])
    assert got.raw_probability.data.tobytes() == raw.data.tobytes()
    assert prepared.raw_probability.data.tobytes() == raw.data.tobytes()


def test_raw_probability_reads_as_vessel_probability_and_leaves_the_scores_as_prepared(desk_phantom):
    """Every read builds `vessel_probability`'s map and `prepare`'s scores
    stay in place; `execute` returns the same raw map as `vessel_probability`."""
    cfg, volume, gt = desk_phantom
    prepared = prepare(volume, gt.boundaries)
    scores = prepared.scores
    want = vessel_probability(volume, gt.boundaries).data.tobytes()
    assert prepared.raw_probability.data.tobytes() == want
    assert prepared.raw_probability.data.tobytes() == want
    assert prepared.scores is scores

    run = pipeline.PipelineConfig.from_dict({"input": {"phantom": cfg.to_dict()}})
    result, executed_volume, _ = pipeline.execute(run)
    want = vessel_probability(executed_volume, result.boundaries)
    assert result.raw_probability.data.tobytes() == want.data.tobytes()


_GRAY_TIES = np.array(
    [0.5, *(np.nextafter(np.float32((k + 0.5) / 255), np.float32(d)) for k in range(255) for d in (0, 1))]
    + [np.float32((k + 0.5) / 255) for k in range(255)],
    dtype=np.float32,
)


@settings(max_examples=100)
@given(volumes_and_boundaries(), st.integers(0, 2**32 - 1))
def test_gray_equals_per_b_scan_gray_levels(case, seed):
    """`_gray` quantizes through one float64 buffer, clipping after the
    multiply by 255; it equals `gray_levels` of each B-scan in float64. Some
    voxels hold 0.5 (the 127.5 tie) or a float32 neighbour of (k + 0.5) / 255."""
    volume, _ = case
    data = volume.data.copy()
    rng = np.random.default_rng(seed)
    ties = rng.random(data.shape) < 0.5
    data[ties] = rng.choice(_GRAY_TIES, int(ties.sum()))
    volume = OctVolume(data)
    want = np.stack([gray_levels(volume.data[s].astype(np.float64)) for s in range(volume.n_slices)])
    assert pipeline._gray(volume).tobytes() == want.tobytes()


def test_write_pgm_writes_a_bool_image_as_0_and_255(tmp_path):
    image = np.random.default_rng(2).random((5, 7)) < 0.5
    write_pgm(image, str(tmp_path / "bool.pgm"))
    write_pgm(np.where(image, 255, 0).astype(np.uint8), str(tmp_path / "gray.pgm"))
    assert (tmp_path / "bool.pgm").read_bytes() == (tmp_path / "gray.pgm").read_bytes()


@settings(max_examples=150)
@given(
    volumes_and_boundaries(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    st.integers(0, 2),
    st.booleans(),
    st.booleans(),
)
def test_extract_equals_infusion_with_whole_volume_masks(case, seed, density, dilation, use_l, use_t):
    """extract's map and mask are those of the whole-volume masks: the
    ILM-INL band and the dilated footprint broadcast along depth."""
    volume, boundaries = case
    n_slices, _, width = volume.dims
    footprint = np.random.default_rng(seed).random((n_slices, width)) < density
    cfg = InfusionConfig(use_longitudinal=use_l, use_transverse=use_t, transverse_dilation=dilation,
                         min_component_vox=1)
    prepared = Prepared(boundaries, EnFaceImage(np.zeros((n_slices, width), np.float32)),
                        PixelMask(footprint), ProbabilityMap3D(volume.data))
    result = extract(prepared, cfg)

    dilated = footprint
    if dilation and footprint.any():
        dilated = ndimage.binary_dilation(footprint, structure=np.ones((2 * dilation + 1,) * 2, bool))
    masks = [
        longitudinal_mask_reference(boundaries, volume.dims) if use_l else None,
        np.broadcast_to(dilated[:, None, :], volume.dims) if use_t else None,
    ]
    want = infuse_reference(volume.data, masks)
    assert np.array_equal(result.probability.data, want)
    assert np.array_equal(result.mask.data, binarize_and_label_reference(want, cfg)[0])


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


def _traced_growth(fn, *args) -> int:
    """The bytes `fn(*args)` allocates at its peak above what was live on entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - entry


def test_run_cascade_allocates_at_most_2_75x_volume(desk_phantom):
    """Infusion multiplies each B-scan by its keep image, so no whole-volume
    prior mask is live next to the raw and infused maps."""
    _, volume, _ = desk_phantom
    growth = _traced_growth(run_cascade, volume) / volume.data.nbytes
    assert growth <= 2.75, f"run_cascade allocated {growth:.2f}x the volume's bytes"


def _run_to_files_growth(tmp_path, volume, gt, imported: bool) -> float:
    """run_to_files' traced growth over the volume's bytes, on `volume` read
    from disk with its ground truth and overlays; with `imported`, the
    boundaries and a noisy probability map are read from disk too."""
    write_volume(volume, str(tmp_path / "volume"))
    write_volume(gt.vessel_mask, str(tmp_path / "gt"))
    d = {
        "input": {"volume": str(tmp_path / "volume"), "ground_truth_mask": str(tmp_path / "gt")},
        "output_dir": str(tmp_path / "out"),
        "report": {"overlays": True},
    }
    if imported:
        write_boundaries(gt.boundaries, str(tmp_path / "boundaries.csv"))
        noise = np.random.default_rng(1).normal(0.0, 0.15, volume.dims)
        prob = np.clip(0.75 * gt.vessel_mask.data + noise, 0.0, 1.0).astype(np.float32)
        write_volume(ProbabilityMap3D(prob), str(tmp_path / "prob"))
        del noise, prob
        d["boundaries"] = {"source": "import", "path": str(tmp_path / "boundaries.csv")}
        d["backend"] = {"kind": "import", "path": str(tmp_path / "prob.json")}
    cfg = pipeline.PipelineConfig.from_dict(d)
    return _traced_growth(pipeline.run_to_files, cfg) / volume.data.nbytes


def test_run_to_files_allocates_at_most_3_25x_volume(desk_phantom, tmp_path):
    """The volume read from disk, its ground truth, the outputs and one
    stage's working set: the float volume is freed once `prepare` returns,
    and the raw map before anything is written."""
    _, volume, gt = desk_phantom
    growth = _run_to_files_growth(tmp_path, volume, gt, imported=False)
    assert growth <= 3.25, f"run_to_files allocated {growth:.2f}x the volume's bytes"


def test_classical_run_to_files_allocates_at_most_2_75x_volume(desk_phantom, tmp_path):
    """With both priors, the classical scores of only the voxels they keep
    are read from the volume into the infused map: no raw map is built, and
    the volume is freed before the infused map is binarized."""
    _, volume, gt = desk_phantom
    growth = _run_to_files_growth(tmp_path, volume, gt, imported=False)
    assert growth <= 2.75, f"run_to_files allocated {growth:.2f}x the volume's bytes"


def test_run_to_files_with_imported_sources_allocates_at_most_3_25x_volume(desk_phantom, tmp_path):
    """The same bound with the boundaries and probability map imported."""
    _, volume, gt = desk_phantom
    growth = _run_to_files_growth(tmp_path, volume, gt, imported=True)
    assert growth <= 3.25, f"run_to_files allocated {growth:.2f}x the volume's bytes"


def test_ablate_allocates_at_most_5x_volume(tmp_path):
    """Each variant is scored and its result dropped before the next one is
    extracted, so no two variants' maps and masks are live at once."""
    cfg = default_config("desk", seed=3)
    run = pipeline.PipelineConfig.from_dict({"input": {"phantom": cfg.to_dict()},
                                             "output_dir": str(tmp_path)})
    growth = _traced_growth(pipeline.ablate, run, [3]) / (4 * math.prod(cfg.dims))
    assert growth <= 5.0, f"ablate allocated {growth:.2f}x the volume's bytes"


def test_ablate_on_two_seeds_allocates_at_most_4x_volume(tmp_path):
    """Each seed's volume is dropped once prepared, and its prepared stages
    and ground truth before the next seed is prepared, so a second seed
    raises the peak no higher than the first."""
    cfg = default_config("desk", seed=3)
    run = pipeline.PipelineConfig.from_dict({"input": {"phantom": cfg.to_dict()},
                                             "output_dir": str(tmp_path)})
    growth = _traced_growth(pipeline.ablate, run, [3, 4]) / (4 * math.prod(cfg.dims))
    assert growth <= 4.0, f"ablate allocated {growth:.2f}x the volume's bytes"


def test_generate_allocates_at_most_2x_its_volume(desk_phantom):
    """Each B-scan is built in float64 and stored as float32 as it is done."""
    cfg, volume, _ = desk_phantom
    growth = _traced_growth(generate, cfg) / volume.data.nbytes
    assert growth <= 2.0, f"generate allocated {growth:.2f}x its volume's bytes"


def test_segment_boundaries_allocates_at_most_1_3x_volume(desk_phantom):
    """Each B-scan's float64 cost image goes into the DP's table as it is
    built, so no whole-stack cost array is held next to the table, and the
    slices are traced in groups whose table fits in the volume's bytes."""
    _, volume, _ = desk_phantom
    growth = _traced_growth(segment_boundaries, volume) / volume.data.nbytes
    assert growth <= 1.3, f"segment_boundaries allocated {growth:.2f}x the volume's bytes"


def test_project_rpe_allocates_at_most_0_1x_volume(desk_phantom):
    """Each B-scan's band is summed where it lies, so no depth prefix table
    reaching down from the top of the B-scan is built."""
    _, volume, gt = desk_phantom
    growth = _traced_growth(project_rpe, volume, gt.boundaries) / volume.data.nbytes
    assert growth <= 0.1, f"project_rpe allocated {growth:.2f}x the volume's bytes"


def test_auc_allocates_at_most_1_25x_the_map():
    """ROC area of a desk-size map with nearly all-distinct scores: the
    sorted copy of the map, and one rank per positive."""
    rng = np.random.default_rng(0)
    dims = (32, 192, 160)
    scores = ProbabilityMap3D(rng.random(dims, dtype=np.float32))
    gt = VoxelMask(rng.random(dims) < 0.02)
    growth = _traced_growth(auc, scores, gt) / scores.data.nbytes
    assert growth <= 1.25, f"auc allocated {growth:.2f}x the map's bytes"


def test_auc_of_a_map_with_2_percent_non_zeros_allocates_at_most_0_1x_the_map():
    """The desk-size map with 98% of its scores zeroed, as the priors leave
    it: only the non-zero scores are copied and sorted, so the copy, the
    positive scores and their ranks are each a few percent of the map."""
    rng = np.random.default_rng(0)
    dims = (32, 192, 160)
    data = rng.random(dims, dtype=np.float32)
    data[rng.random(dims) >= 0.02] = 0.0
    scores = ProbabilityMap3D(data)
    gt = VoxelMask(rng.random(dims) < 0.02)
    growth = _traced_growth(auc, scores, gt) / scores.data.nbytes
    assert growth <= 0.1, f"auc allocated {growth:.3f}x the map's bytes"
