import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from oct_cascade.cascade import prepare
from oct_cascade.enface import ShadowConfig, keep_components, project_rpe, segment_shadows
from oct_cascade.errors import ConfigError, ShapeMismatchError
from oct_cascade.fileio import write_volume
from oct_cascade.layers import segment_boundaries
from oct_cascade.model import BoundarySet, EnFaceImage, OctVolume, PixelMask
from oct_cascade.phantom import PhantomConfig, default_config, generate
from oct_cascade.pipeline import StageError, read_typed

from conftest import dice
from shadow_reference import segment_shadows_reference


def flat_boundaries(n_slices, width, ilm=2.0, inl=4.0, rpe=8.0, bm=12.0):
    return BoundarySet(
        {
            "ILM": np.full((n_slices, width), ilm),
            "INL_LOWER": np.full((n_slices, width), inl),
            "RPE_UPPER": np.full((n_slices, width), rpe),
            "BM": np.full((n_slices, width), bm),
        }
    )


def test_constant_band_projects_to_constant():
    data = np.zeros((2, 16, 8))
    data[:, 8:13, :] = 0.9
    img = project_rpe(OctVolume(data), flat_boundaries(2, 8))
    assert np.allclose(img.data, np.float32(0.9), atol=1e-7)


def test_two_value_band_projects_to_mean():
    data = np.zeros((1, 16, 8))
    data[:, 8, :] = 0.8
    data[:, 9, :] = 1.0
    img = project_rpe(OctVolume(data), flat_boundaries(1, 8, rpe=8.0, bm=9.0))
    assert np.allclose(img.data, 0.9, atol=1e-7)


def test_empty_band_falls_back_to_rounded_voxel():
    data = np.zeros((1, 16, 8))
    data[:, 9, :] = 0.77
    b = flat_boundaries(1, 8, rpe=8.6, bm=8.7)  # ceil(8.6)=9 > floor(8.7)=8
    img = project_rpe(OctVolume(data), b)
    assert np.allclose(img.data, np.float32(0.77), atol=1e-7)


def test_projection_scales_linearly():
    rng = np.random.default_rng(0)
    data = rng.uniform(0, 1, size=(3, 16, 9))
    volume = OctVolume(data)
    half = OctVolume(volume.data * np.float32(0.5))
    b = flat_boundaries(3, 9)
    a = project_rpe(volume, b).data
    h = project_rpe(half, b).data
    assert np.array_equal(h, (a.astype(np.float64) * 0.5).astype(np.float32))


def test_uniform_image_gives_empty_mask():
    mask, contrast = segment_shadows(EnFaceImage(np.full((16, 20), 0.8)))
    assert not mask.data.any()
    assert np.all(contrast == 0)


def test_dark_stripe_is_fully_masked():
    img = np.full((16, 20), 0.8)
    img[:, 9:11] = 0.4
    mask, _ = segment_shadows(EnFaceImage(img))
    assert mask.data[:, 9:11].all()
    assert not mask.data[:, :7].any()


def test_threshold_at_or_above_one_masks_nothing():
    img = np.full((16, 20), 0.8)
    img[:, 9:11] = 0.05
    mask, _ = segment_shadows(EnFaceImage(img), ShadowConfig(contrast_threshold=1.0))
    assert not mask.data.any()


def test_small_components_removed():
    img = np.full((16, 20), 0.8)
    img[8, 10] = 0.2  # single dark pixel, below min_component_px
    mask, _ = segment_shadows(EnFaceImage(img))
    assert not mask.data.any()


def test_mask_shrinks_as_threshold_grows():
    rng = np.random.default_rng(2)
    img = EnFaceImage(np.clip(0.7 + 0.2 * rng.standard_normal((24, 24)), 0, 1))
    lo, _ = segment_shadows(img, ShadowConfig(contrast_threshold=0.05, min_component_px=1))
    hi, _ = segment_shadows(img, ShadowConfig(contrast_threshold=0.12, min_component_px=1))
    assert np.all(hi.data <= lo.data)


def test_single_vessel_footprint_darker_by_tenth():
    cfg = PhantomConfig.from_dict(
        {**default_config("desk", seed=7).to_dict(), "n_vessels": 1, "noise_sigma": 0.0}
    )
    volume, gt = generate(cfg)
    img = project_rpe(volume, gt.boundaries)
    fp = gt.shadow_footprint.data
    assert img.data[~fp].mean() - img.data[fp].mean() >= 0.1


def test_phantom_shadow_dice(clean_phantom):
    _, volume, gt = clean_phantom
    boundaries = segment_boundaries(volume)
    mask, _ = segment_shadows(project_rpe(volume, boundaries))
    assert dice(mask.data, gt.shadow_footprint.data) >= 0.90


def test_import_shadow_mask_round_trip(tmp_path, clean_phantom):
    _, volume, gt = clean_phantom
    boundaries = segment_boundaries(volume)
    img = project_rpe(volume, boundaries)
    mask, _ = segment_shadows(img)
    write_volume(mask, str(tmp_path / "sm"))
    back = read_typed(str(tmp_path / "sm"), PixelMask, "shadow source")
    assert np.array_equal(back.data, mask.data)

    all_true = PixelMask(np.ones(img.shape, dtype=bool))
    write_volume(all_true, str(tmp_path / "full"))
    assert read_typed(str(tmp_path / "full"), PixelMask, "shadow source").data.all()

    # the mask's shape is checked against the en-face image when the cascade
    # is prepared
    wrong = PixelMask(np.ones((3, 3), dtype=bool))
    write_volume(wrong, str(tmp_path / "wrong"))
    wrong = read_typed(str(tmp_path / "wrong"), PixelMask, "shadow source")
    with pytest.raises(ShapeMismatchError):
        prepare(volume, boundaries, wrong)

    write_volume(img, str(tmp_path / "img"))
    with pytest.raises(StageError, match=r"img' does not contain a PixelMask"):
        read_typed(str(tmp_path / "img"), PixelMask, "shadow source")


def test_shadow_config_validation():
    with pytest.raises(ConfigError):
        ShadowConfig(background_window=(8, 15))
    with pytest.raises(ConfigError):
        ShadowConfig(contrast_threshold=0.0)
    with pytest.raises(ConfigError):
        ShadowConfig(min_component_px=0)


def _dark_pixels(shape, level, dark):
    """An image at `level` that is 0 at each pixel of `dark`."""
    image = np.full(shape, level, dtype=np.float32)
    for pixel in dark:
        image[pixel] = 0.0
    return image


#: Small images at three scales, the smallest wholly under the 1e-6 contrast floor.
images = st.tuples(st.integers(1, 10), st.integers(1, 10), st.sampled_from([1.0, 1e-3, 1e-6])).flatmap(
    lambda t: hnp.arrays(np.float32, t[:2], elements=st.floats(0.0, 1.0, width=32)).map(
        lambda a: a * np.float32(t[2])))
odd_windows = st.integers(1, 5).map(lambda k: 2 * k + 1)


@settings(max_examples=150)
@given(images, st.tuples(odd_windows, odd_windows), st.floats(0.01, 1.0), st.integers(1, 5))
# a component of exactly min_component_px pixels is kept
@example(_dark_pixels((7, 7), 1.0, [(3, 3)]), (3, 3), 0.5, 1)
# a background under 1e-3 but over the 1e-6 floor divides as itself
@example(_dark_pixels((5, 5), 0.0005, [(2, 2)]), (3, 3), 0.5, 1)
# pixels that touch only at a corner are one component
@example(_dark_pixels((9, 9), 1.0, [(3, 3), (4, 4)]), (3, 3), 0.5, 2)
def test_segment_shadows_equals_whole_image_reference(image, window, threshold, min_px):
    want_mask, want_contrast = segment_shadows_reference(image, window, threshold, min_px)
    # the box means differ from the reference's in rounding, so no pixel may tie the threshold
    assume(np.all(np.abs(want_contrast - threshold) > 1e-7))
    cfg = ShadowConfig(background_window=window, contrast_threshold=threshold, min_component_px=min_px)
    mask, contrast = segment_shadows(EnFaceImage(image), cfg)
    np.testing.assert_allclose(contrast, want_contrast, rtol=0, atol=1e-7)
    assert np.array_equal(mask.data, want_mask)


#: The oracle's structure per connectivity; 8 is a 2D mask, filtered through
#: its (1, slices, width) view with connectivity 26.
_STRUCTURES = {6: ndimage.generate_binary_structure(3, 1), 26: np.ones((3, 3, 3), bool),
               8: np.ones((3, 3), bool)}


@st.composite
def masks(draw):
    """A 3D mask for connectivity 6 or 26, or a 2D one for 8, with 0.1-50% foreground."""
    connectivity = draw(st.sampled_from(sorted(_STRUCTURES)))
    shape = (draw(st.integers(1, 16)), draw(st.integers(1, 16)))
    if connectivity != 8:
        shape = (draw(st.integers(1, 6)), *shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(shape) < draw(st.floats(0.001, 0.5)), connectivity


def _line_and_corner():
    """Four voxels in a row, and one more touching them only at a corner."""
    mask = np.zeros((2, 3, 6), dtype=bool)
    mask[0, 1, :4] = mask[1, 2, 4] = True
    return mask


@settings(max_examples=300)
@given(masks(), st.integers(1, 12))
@example((np.zeros((3, 4, 5), dtype=bool), 26), 1)
@example((np.ones((3, 4, 5), dtype=bool), 6), 60)
@example((np.ones((3, 4, 5), dtype=bool), 26), 61)
@example((np.eye(1, 25, 12, dtype=bool).reshape(5, 5), 8), 1)
@example((_line_and_corner(), 6), 4)  # the row, of exactly min_size, stays; the corner goes
@example((_line_and_corner(), 26), 5)
def test_keep_components_equals_whole_array_labelling(case, min_size):
    """The shared filter, labelling only the foreground's box, keeps the
    mask and count that labelling the whole array does."""
    mask, connectivity = case
    labels = ndimage.label(mask, structure=_STRUCTURES[connectivity])[0]
    keep = np.bincount(labels.ravel()) >= min_size
    keep[0] = False
    got = mask.copy()
    if connectivity == 8:
        count = keep_components(got[None], 26, min_size)
    else:
        count = keep_components(got, connectivity, min_size)
    assert np.array_equal(got, keep[labels])
    assert count == int(keep.sum())
