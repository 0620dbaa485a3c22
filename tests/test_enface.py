import numpy as np
import pytest

from oct_cascade.cascade import prepare
from oct_cascade.enface import ShadowConfig, project_rpe, segment_shadows
from oct_cascade.errors import ConfigError, ShapeMismatchError
from oct_cascade.fileio import write_volume
from oct_cascade.layers import segment_boundaries
from oct_cascade.model import BoundarySet, EnFaceImage, OctVolume, PixelMask
from oct_cascade.phantom import PhantomConfig, default_config, generate
from oct_cascade.pipeline import StageError, read_typed

from conftest import dice


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


def test_dilation_grows_mask():
    img = np.full((16, 20), 0.8)
    img[:, 9:11] = 0.4
    base, _ = segment_shadows(EnFaceImage(img))
    fat, _ = segment_shadows(EnFaceImage(img), ShadowConfig(dilation_radius=1))
    assert np.all(base.data <= fat.data)
    assert fat.data[:, 8].all()


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
