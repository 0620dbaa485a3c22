import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oct_cascade import kernels, phantom
from oct_cascade.errors import ConfigError
from oct_cascade.model import BOUNDARY_NAMES, BoundarySet
from oct_cascade.phantom import PhantomConfig, default_config, generate

import phantom_reference
from conftest import clean_config


def test_same_config_is_byte_identical(desk_phantom):
    cfg, volume, gt = desk_phantom
    v2, gt2 = generate(cfg)
    assert volume.data.tobytes() == v2.data.tobytes()
    assert np.array_equal(gt.vessel_mask.data, gt2.vessel_mask.data)
    for name in gt.boundaries.surfaces:
        assert np.array_equal(gt.boundaries[name], gt2.boundaries[name])


def test_no_vessels_means_empty_ground_truth():
    cfg = PhantomConfig.from_dict({**default_config("desk").to_dict(), "n_vessels": 0})
    _, gt = generate(cfg)
    assert gt.vessel_mask.count() == 0
    assert not gt.shadow_footprint.data.any()
    assert gt.centerlines == ()


def test_vessels_confined_to_ilm_inl_band(desk_phantom):
    _, _, gt = desk_phantom
    s, z, x = np.nonzero(gt.vessel_mask.data)
    assert len(s) > 0
    ilm = gt.boundaries["ILM"][s, x]
    inl = gt.boundaries["INL_LOWER"][s, x]
    assert np.all(z >= ilm)
    assert np.all(z <= inl)


def test_footprint_is_projection_of_vessel_mask(desk_phantom):
    _, _, gt = desk_phantom
    assert np.array_equal(gt.shadow_footprint.data, gt.vessel_mask.data.any(axis=1))


def test_boundary_ordering_every_cell(desk_phantom):
    _, _, gt = desk_phantom
    b = gt.boundaries
    assert np.all(b["ILM"] <= b["INL_LOWER"])
    assert np.all(b["INL_LOWER"] <= b["RPE_UPPER"])
    assert np.all(b["RPE_UPPER"] <= b["BM"])


def _rpe_band_mean(volume, gt):
    lo = np.ceil(gt.boundaries["RPE_UPPER"]).astype(int)
    hi = np.floor(gt.boundaries["BM"]).astype(int)
    n_slices, _, width = volume.dims
    out = np.zeros((n_slices, width))
    for s in range(n_slices):
        for x in range(width):
            out[s, x] = volume.data[s, lo[s, x] : hi[s, x] + 1, x].mean()
    return out


def test_shadow_columns_darken_rpe_band(clean_phantom):
    _, volume, gt = clean_phantom
    band = _rpe_band_mean(volume, gt)
    fp = gt.shadow_footprint.data
    assert band[~fp].mean() - band[fp].mean() >= 0.15


def test_shadow_causality_against_unattenuated_twin(clean_phantom):
    cfg, volume, gt = clean_phantom
    twin_cfg = PhantomConfig.from_dict({**cfg.to_dict(), "shadow_attenuation": 1.0})
    twin, twin_gt = generate(twin_cfg)
    assert np.array_equal(gt.shadow_footprint.data, twin_gt.shadow_footprint.data)
    band = _rpe_band_mean(volume, gt)
    twin_band = _rpe_band_mean(twin, twin_gt)
    fp = gt.shadow_footprint.data
    assert np.all(band[fp] < twin_band[fp])


def test_adding_vessels_keeps_surfaces_fixed():
    base = default_config("desk", seed=5)
    few = PhantomConfig.from_dict({**base.to_dict(), "n_vessels": 2})
    many = PhantomConfig.from_dict({**base.to_dict(), "n_vessels": 5})
    _, gt_few = generate(few)
    _, gt_many = generate(many)
    for name in gt_few.boundaries.surfaces:
        assert np.array_equal(gt_few.boundaries[name], gt_many.boundaries[name])
    # earlier tubes are untouched by later ones
    for v in range(2):
        assert np.array_equal(gt_few.centerlines[v], gt_many.centerlines[v])


def test_band_too_thin_for_radius_is_config_error():
    cfg_dict = default_config("desk").to_dict()
    cfg_dict["vessel_depth_fraction_range"] = [0.0, 1.0]  # tube tops poke out of the band
    with pytest.raises(ConfigError, match="too thin"):
        generate(PhantomConfig.from_dict(cfg_dict))


def test_config_invariants():
    with pytest.raises(ConfigError):
        PhantomConfig(shadow_attenuation=0.0)
    with pytest.raises(ConfigError):
        PhantomConfig(vessel_depth_fraction_range=(0.8, 0.2))
    with pytest.raises(ConfigError):
        PhantomConfig(layer_levels={**default_config("desk").layer_levels, "rpe": 0.2})


def test_default_configs():
    desk = default_config("desk")
    assert desk.dims == (32, 192, 160)
    assert desk.n_vessels == 4
    assert desk.vessel_radius == 2.0
    assert desk.shadow_attenuation == 0.4
    assert desk.noise_sigma == 0.03
    paper = default_config("paper")
    assert paper.dims[1:] == (496, 384)
    assert default_config("paper", n_slices=7).dims[0] == 7
    with pytest.raises(ConfigError):
        default_config("poster")


def test_noise_free_vitreous_is_flat():
    cfg = clean_config(2)
    volume, _ = generate(cfg)
    # rows above every ILM are pure vitreous plateau when noise is off
    assert np.all(volume.data[:, :5, :] == np.float32(cfg.layer_levels["vitreous"]))


@st.composite
def tube_scenes(draw):
    """A small volume with some voxels already inside vessels, and tubes
    whose axes may sit past any edge of it, so chords are clipped at the
    top, bottom, left and right. Axes drawn from a few rows and columns
    make overlapping tubes common."""
    n_slices, height, width = draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    radius = draw(st.floats(0.5, 4.0))
    n_vessels = draw(st.integers(0, 4))
    reach = radius + 2.0
    zs = st.sampled_from([-reach, -1.0, 0.0, 0.5, height / 2, height - 1.0, height - 0.5, height + reach])
    xs = st.sampled_from([-reach, -0.5, 0.0, 1.25, width / 2, width - 1.0, width + 0.5, width + reach])
    axes = st.one_of(zs, st.floats(-reach, height + reach)), st.one_of(xs, st.floats(-reach, width + reach))
    zc = draw(hnp.arrays(np.float64, (n_vessels, n_slices), elements=axes[0]))
    xc = draw(hnp.arrays(np.float64, (n_vessels, n_slices), elements=axes[1]))
    dims = (n_slices, height, width)
    data = draw(hnp.arrays(np.float64, dims, elements=st.floats(0.0, 1.0)))
    vmask = draw(hnp.arrays(np.bool_, dims))
    level = draw(st.floats(0.0, 1.0))
    atten = draw(st.floats(0.01, 1.0))
    return data, vmask, zc, xc, radius, level, atten


@settings(max_examples=300)
@given(tube_scenes())
def test_tube_passes_write_the_bytes_of_the_reference(scene):
    data, vmask, zc, xc, radius, level, atten = scene
    got, want = (data.copy(), vmask.copy()), (data.copy(), vmask.copy())
    for module, (d, m) in ((kernels, got), (phantom_reference, want)):
        module.raster_tubes(d, m, zc, xc, radius, level)
        module.apply_shadows(d, m, zc, xc, radius, atten)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])


def test_tube_above_the_volume_shades_every_row():
    for module in (kernels, phantom_reference):
        data = np.ones((1, 10, 3))
        vmask = np.zeros(data.shape, dtype=bool)
        module.apply_shadows(data, vmask, np.array([[-6.0]]), np.array([[1.0]]), 2.0, 0.5)
        assert np.all(data[0, :, 1] == 0.5), module.__name__


@st.composite
def layer_scenes(draw):
    """A drawn phantom config with the RPE strictly brightest, and either its
    own surfaces or ordered depths on a half-voxel grid, where rows sit
    exactly on surfaces and surfaces coincide."""
    n_slices, height, width = draw(st.integers(1, 4)), draw(st.integers(16, 64)), draw(st.integers(16, 48))
    others = draw(st.lists(st.floats(0.0, 0.99), min_size=4, max_size=4))
    levels = dict(zip(("vitreous", "inner_retina", "middle_retina", "choroid"), others))
    levels["rpe"] = draw(st.floats(max(others), 1.0, exclude_min=True))
    cfg = PhantomConfig(dims=(n_slices, height, width), layer_levels=levels, seed=draw(st.integers(0, 2**64 - 1)))
    if draw(st.booleans()):
        return cfg, phantom._surfaces(cfg)
    halves = st.integers(0, 2 * height - 2).map(lambda k: k / 2)
    depths = np.sort(draw(hnp.arrays(np.float64, (n_slices, width, 4), elements=halves)), axis=2)
    return cfg, BoundarySet(dict(zip(BOUNDARY_NAMES, np.moveaxis(depths, 2, 0))))


def _hand_built(ilm, inl, rpe, bm):
    """A one-slice, 16-column scene from per-column surface depths."""
    cfg = PhantomConfig(dims=(1, 16, 16))
    return cfg, BoundarySet({n: np.asarray(d, dtype=np.float64)[None, :] for n, d in zip(BOUNDARY_NAMES, (ilm, inl, rpe, bm))})


_X = np.arange(16)
# Integer depths: each BM row is where `z > BM` and `z >= BM` differ; BM ==
# RPE_UPPER in every third column, and ILM == INL_LOWER in every fourth.
_INTEGER_DEPTHS = _hand_built(2 + _X % 3, 2 + _X % 3 + _X % 4, 3 + _X % 3 + _X % 4 + _X % 2,
                              3 + _X % 3 + _X % 4 + _X % 2 + _X % 3)
# BM within a voxel of RPE_UPPER in every column: the RPE tail is empty.
_EMPTY_TAIL = _hand_built(np.full(16, 3.5), np.full(16, 6.0), 8.0 + _X / 8, 8.0 + _X / 8 + (_X % 4) / 4)


@settings(max_examples=200)
@given(layer_scenes())
@example(_INTEGER_DEPTHS)
@example(_EMPTY_TAIL)
def test_layer_cake_paints_the_bytes_of_the_summed_layer_index(scene):
    cfg, boundaries = scene
    for s in range(cfg.dims[0]):
        got = phantom._layer_cake(cfg, boundaries, s)
        want = phantom_reference.layer_cake(cfg, boundaries, s)
        assert got.shape == want.shape == (1, *cfg.dims[1:])
        assert got.tobytes() == want.tobytes()
