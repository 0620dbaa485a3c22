import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from oct_cascade.cascade import (
    InfusionConfig,
    VesselBackendConfig,
    binarize_and_label,
    infuse,
    longitudinal_mask,
    run_cascade,
    transverse_mask,
    vessel_probability,
)
from oct_cascade.errors import ConfigError, InfeasibleBandError, ShapeMismatchError
from oct_cascade.fileio import read_volume, write_volume
from oct_cascade.layers import segment_boundaries
from oct_cascade.model import (
    OctVolume,
    PixelMask,
    ProbabilityMap3D,
    BOUNDARY_NAMES,
    VoxelMask,
)
from oct_cascade.phantom import PhantomConfig, generate

from test_enface import flat_boundaries


def test_longitudinal_mask_rounding():
    dims = (1, 16, 8)
    for ilm, inl, depths in ((2.0, 5.0, {2, 3, 4, 5}), (1.2, 3.8, {2, 3}), (4.0, 4.0, {4})):
        b = flat_boundaries(1, 8, ilm=ilm, inl=inl, rpe=8.0, bm=12.0)
        mask = longitudinal_mask(b, dims)
        z = set(np.nonzero(mask.data[0, :, 0])[0].tolist())
        assert z == depths, (ilm, inl)


def test_longitudinal_mask_shape_checked():
    b = flat_boundaries(2, 8)
    with pytest.raises(ShapeMismatchError):
        longitudinal_mask(b, (2, 16, 9))


def test_transverse_mask_extrusion():
    dims = (5, 7, 6)
    empty = transverse_mask(PixelMask(np.zeros((5, 6), dtype=bool)), dims)
    assert not empty.data.any()

    pm = np.zeros((5, 6), dtype=bool)
    pm[2, 3] = True
    single = transverse_mask(PixelMask(pm), dims, dilation=0)
    assert single.count() == 7  # one full-depth column
    assert single.data[2, :, 3].all()

    nine = transverse_mask(PixelMask(pm), dims, dilation=1)
    assert nine.count() == 9 * 7
    assert nine.data[1:4, :, 2:5].all()


def test_transverse_mask_depth_invariant():
    rng = np.random.default_rng(0)
    pm = PixelMask(rng.random((6, 9)) < 0.3)
    mask = transverse_mask(pm, (6, 5, 9), dilation=1).data
    assert np.all(mask == mask[:, :1, :])


def dilated(footprint: np.ndarray, radius: int) -> np.ndarray:
    """A footprint grown by a (2r+1)^2 square, as a second dilation before
    the transverse mask would grow it."""
    if radius == 0 or not footprint.any():
        return footprint
    return ndimage.binary_dilation(footprint, structure=np.ones((2 * radius + 1,) * 2, dtype=bool))


@settings(max_examples=300)
@given(st.integers(1, 8), st.integers(1, 12), st.sampled_from([0.0, 0.05, 0.2, 0.6]),
       st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3))
def test_square_dilations_compose_in_the_transverse_mask(n_slices, width, density, seed, r1, r2):
    # Square dilations compose, borders included: dilating the shadow mask
    # by r1 before the transverse mask's own r2 is one dilation by r1 + r2.
    fp = np.random.default_rng(seed).random((n_slices, width)) < density
    dims = (n_slices, 3, width)
    assert np.array_equal(
        transverse_mask(PixelMask(dilated(fp, r1)), dims, r2).data,
        transverse_mask(PixelMask(fp), dims, r1 + r2).data,
    )


def test_constant_volume_yields_zero_map_with_warning():
    volume = OctVolume(np.full((1, 16, 8), 0.5, dtype=np.float32))
    with pytest.warns(RuntimeWarning, match="degenerate"):
        p = vessel_probability(volume, flat_boundaries(1, 8), VesselBackendConfig())
    assert not p.data.any()


def test_brighter_voxel_scores_higher():
    data = np.full((1, 16, 8), 0.1)
    data[0, 5, 3] = 0.9
    data[0, 10, 3] = 0.3
    volume = OctVolume(data)
    p = vessel_probability(volume, flat_boundaries(1, 8, bm=14.0), VesselBackendConfig())
    assert p.data[0, 5, 3] > p.data[0, 10, 3]


def test_import_backend_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    volume = OctVolume(rng.uniform(0, 1, (2, 16, 8)))
    p = ProbabilityMap3D(rng.uniform(0, 1, (2, 16, 8)).astype(np.float32))
    write_volume(p, str(tmp_path / "p"))
    cfg = VesselBackendConfig(kind="import", path=str(tmp_path / "p"))
    back = run_cascade(volume, flat_boundaries(2, 8), backend_cfg=cfg,
                       probability=read_volume(str(tmp_path / "p")))
    assert np.array_equal(back.raw_probability.data, p.data)

    small = ProbabilityMap3D(rng.uniform(0, 1, (1, 16, 8)).astype(np.float32))
    with pytest.raises(ShapeMismatchError, match="imported probability map vs volume"):
        run_cascade(volume, flat_boundaries(2, 8), backend_cfg=cfg, probability=small)

    # the cascade reads no file: an import backend without its map is refused
    with pytest.raises(ConfigError, match="import backend"):
        vessel_probability(volume, flat_boundaries(2, 8), cfg)
    with pytest.raises(ConfigError, match="import backend"):
        run_cascade(volume, flat_boundaries(2, 8), backend_cfg=cfg)


def test_backend_weights_validated():
    # the shadow evidence enters once, as the transverse mask: no score weights
    for weight in ("w_intensity", "w_shadow"):
        with pytest.raises(ConfigError, match=f"unknown backend config fields \\['{weight}'\\]"):
            VesselBackendConfig.from_dict({weight: 1.0})
    with pytest.raises(ConfigError):
        VesselBackendConfig(kind="import")
    with pytest.raises(ConfigError, match="classical backend takes no path"):
        VesselBackendConfig(path="prob.json")


def _random_case(rng, dims=(3, 10, 6)):
    p = ProbabilityMap3D(rng.uniform(0, 1, dims).astype(np.float32))
    lm = VoxelMask(rng.random(dims) < 0.5)
    tm = VoxelMask(rng.random(dims) < 0.5)
    return p, lm, tm


def test_infuse_identity_and_annihilation():
    rng = np.random.default_rng(2)
    p, _, _ = _random_case(rng)
    ones = VoxelMask(np.ones(p.dims, dtype=bool))
    zeros = VoxelMask(np.zeros(p.dims, dtype=bool))
    assert np.array_equal(infuse(p, ones, ones).data, p.data)
    assert np.array_equal(infuse(p).data, p.data)
    assert not infuse(p, None, zeros).data.any()
    # masked-out voxel goes to exactly zero
    lm = np.ones(p.dims, dtype=bool)
    lm[1, 2, 3] = False
    out = infuse(p, VoxelMask(lm), None)
    assert out.data[1, 2, 3] == 0.0


def test_infuse_idempotent_never_increases_and_commutes():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, lm, tm = _random_case(rng)
        once = infuse(p, lm, tm)
        twice = infuse(once, lm, tm)
        assert np.array_equal(once.data, twice.data)
        assert np.all(once.data <= p.data)
        split = infuse(infuse(p, lm, None), None, tm)
        assert np.array_equal(once.data, split.data)


def test_binarize_counts_components():
    p = np.zeros((6, 10, 10), dtype=np.float32)
    p[0:2, 0:2, 0:2] = 0.9
    p[4:6, 6:8, 6:8] = 0.9
    cfg = InfusionConfig(min_component_vox=1)
    mask, n = binarize_and_label(ProbabilityMap3D(p), cfg)
    assert n == 2
    assert mask.count() == 16


def test_binarize_drops_small_components():
    p = np.zeros((4, 8, 8), dtype=np.float32)
    p[1, 2, 2] = 0.9
    mask, n = binarize_and_label(ProbabilityMap3D(p), InfusionConfig(min_component_vox=2))
    assert n == 0
    assert not mask.data.any()


def test_corner_neighbors_depend_on_connectivity():
    p = np.zeros((4, 8, 8), dtype=np.float32)
    p[1, 1, 1] = 0.9
    p[2, 2, 2] = 0.9  # shares only a corner
    _, n26 = binarize_and_label(ProbabilityMap3D(p), InfusionConfig(min_component_vox=1, connectivity=26))
    _, n6 = binarize_and_label(ProbabilityMap3D(p), InfusionConfig(min_component_vox=1, connectivity=6))
    assert n26 == 1
    assert n6 == 2


def test_threshold_is_strict():
    p = np.full((1, 8, 8), 0.5, dtype=np.float32)
    mask, n = binarize_and_label(ProbabilityMap3D(p), InfusionConfig(min_component_vox=1))
    assert n == 0 and not mask.data.any()


def test_flags_off_equals_plain_binarization(clean_phantom):
    _, volume, _ = clean_phantom
    boundaries = segment_boundaries(volume)
    result = run_cascade(
        volume,
        boundaries=boundaries,
        infusion_cfg=InfusionConfig(use_longitudinal=False, use_transverse=False),
    )
    direct, _ = binarize_and_label(result.raw_probability, InfusionConfig())
    assert np.array_equal(result.mask.data, direct.data)
    assert np.array_equal(result.probability.data, result.raw_probability.data)


def test_empty_shadow_mask_forces_empty_result(clean_phantom):
    _, volume, _ = clean_phantom
    empty = PixelMask(np.zeros((volume.n_slices, volume.width), dtype=bool))
    result = run_cascade(volume, shadow_source=empty)
    assert not result.mask.data.any()
    assert not result.probability.data.any()


def test_band_argmax_lands_on_vessels(clean_phantom):
    _, volume, gt = clean_phantom
    boundaries = segment_boundaries(volume)
    prob = vessel_probability(volume, boundaries)
    band = longitudinal_mask(gt.boundaries, volume.dims).data
    vm = gt.vessel_mask.data
    hits = total = 0
    for s in range(volume.n_slices):
        if not vm[s].any():
            continue
        total += 1
        in_band = np.where(band[s], prob.data[s], -1.0)
        z, x = np.unravel_index(np.argmax(in_band), in_band.shape)
        hits += bool(vm[s, z, x])
    assert total > 0
    assert hits / total >= 0.9


def test_final_mask_within_enabled_masks(desk_phantom):
    _, volume, _ = desk_phantom
    result = run_cascade(volume)
    lm = longitudinal_mask(result.boundaries, volume.dims)
    tm = transverse_mask(result.shadow_mask, volume.dims, InfusionConfig().transverse_dilation)
    assert not (result.mask.data & ~lm.data).any()
    assert not (result.mask.data & ~tm.data).any()
    assert result.component_count >= 1


def test_infusion_config_validation():
    with pytest.raises(ConfigError):
        InfusionConfig(binarize_threshold=0.0)
    with pytest.raises(ConfigError):
        InfusionConfig(connectivity=18)
    with pytest.raises(ConfigError):
        InfusionConfig(min_component_vox=0)


@st.composite
def phantom_configs(draw):
    """Valid phantoms of at most 8x96x64 voxels."""
    return PhantomConfig(
        dims=(draw(st.integers(1, 8)), draw(st.integers(16, 96)), draw(st.integers(16, 64))),
        n_vessels=draw(st.integers(0, 4)),
        vessel_radius=draw(st.floats(0.5, 4.0)),
        shadow_attenuation=draw(st.floats(0.05, 1.0)),
        noise_sigma=draw(st.floats(0.0, 0.2)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=150)
@given(phantom_configs(), st.booleans(), st.booleans(), st.integers(0, 2))
def test_random_phantoms_keep_the_cascade_invariants(cfg, use_l, use_t, dilation):
    """The cascade either refuses a phantom (a band too thin for its vessels,
    or no feasible boundary path) or returns ordered boundaries,
    probabilities in [0, 1] and a mask inside the enabled priors, infused
    idempotently without raising any voxel. A grid that fails its own
    invariants inside the cascade is a fault, not a refusal."""
    infusion = InfusionConfig(use_longitudinal=use_l, use_transverse=use_t,
                              transverse_dilation=dilation)
    try:
        volume, _ = generate(cfg)
        r = run_cascade(volume, infusion_cfg=infusion)
    except (ConfigError, InfeasibleBandError):
        return
    r.boundaries.check_against(volume.dims)
    surfaces = np.stack([r.boundaries[name] for name in BOUNDARY_NAMES])
    assert (np.diff(surfaces, axis=0) >= 0).all()
    for p in (r.raw_probability, r.probability):
        assert p.data.min(initial=0.0) >= 0.0 and p.data.max(initial=0.0) <= 1.0
    lm = longitudinal_mask(r.boundaries, volume.dims) if use_l else None
    tm = transverse_mask(r.shadow_mask, volume.dims, dilation) if use_t else None
    for prior in (lm, tm):
        if prior is not None:
            assert not (r.mask.data & ~prior.data).any()
    assert (r.probability.data <= r.raw_probability.data).all()
    assert np.array_equal(infuse(r.probability, lm, tm).data, r.probability.data)
