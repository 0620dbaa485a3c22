import json

import numpy as np
import pytest

from oct_cascade.fileio import write_boundaries
from oct_cascade.errors import ConfigError
from oct_cascade.layers import DpConfig, segment_boundaries, trace_boundary
from oct_cascade.model import BOUNDARY_NAMES, OctVolume
from oct_cascade.phantom import generate
from oct_cascade.pipeline import StageError, read_boundary_csv, read_config

from conftest import clean_config


def surface_errors(est, true):
    return {name: float(np.mean(np.abs(est[name] - true[name]))) for name in BOUNDARY_NAMES}


def test_noise_free_accuracy(clean_phantom):
    _, volume, gt = clean_phantom
    est = segment_boundaries(volume)
    errs = surface_errors(est, gt.boundaries)
    assert all(e <= 1.0 for e in errs.values()), errs


def test_noisy_accuracy(desk_phantom):
    _, volume, gt = desk_phantom
    est = segment_boundaries(volume)
    errs = surface_errors(est, gt.boundaries)
    assert all(e <= 2.0 for e in errs.values()), errs


def test_constant_volume_keeps_ordering():
    volume = OctVolume(np.full((2, 64, 16), 0.5, dtype=np.float32))
    est = segment_boundaries(volume)
    assert np.all(est["ILM"] <= est["INL_LOWER"])
    assert np.all(est["INL_LOWER"] <= est["RPE_UPPER"])
    assert np.all(est["RPE_UPPER"] <= est["BM"])


def test_translation_equivariance():
    cfg = clean_config(1)
    volume, _ = generate(cfg)
    k = 3
    vitreous = cfg.layer_levels["vitreous"]
    shifted = np.empty_like(volume.data)
    shifted[:, :k, :] = np.float32(vitreous)
    shifted[:, k:, :] = volume.data[:, :-k, :]
    est = segment_boundaries(volume)
    est_shifted = segment_boundaries(OctVolume(shifted))
    for name in BOUNDARY_NAMES:
        assert np.array_equal(est_shifted[name], est[name] + k), name


def test_import_round_trip_matches(tmp_path, clean_phantom):
    _, volume, _ = clean_phantom
    est = segment_boundaries(volume)
    path = tmp_path / "b.csv"
    write_boundaries(est, str(path))
    back = read_boundary_csv(str(path), volume)
    for name in BOUNDARY_NAMES:
        assert np.allclose(back[name], est[name], atol=1e-9)


def test_import_rejects_wrong_width(tmp_path, clean_phantom):
    _, volume, _ = clean_phantom
    surfaces = {
        "ILM": np.full((volume.n_slices, 4), 2.0),
        "INL_LOWER": np.full((volume.n_slices, 4), 4.0),
        "RPE_UPPER": np.full((volume.n_slices, 4), 8.0),
        "BM": np.full((volume.n_slices, 4), 11.0),
    }
    from oct_cascade.model import BoundarySet

    path = tmp_path / "bad.csv"
    write_boundaries(BoundarySet(surfaces), str(path))
    with pytest.raises(StageError, match=r"bad\.csv': boundary grid") as err:
        read_boundary_csv(str(path), volume)
    assert err.value.stage == "boundary source"


def test_dp_config_validation(tmp_path):
    from oct_cascade.errors import ConfigError

    with pytest.raises(ConfigError):
        DpConfig(smoothness=-0.5)
    with pytest.raises(ConfigError):
        DpConfig(max_jump=0)
    # each boundary's cost kind follows from the anatomy, so it is no field
    path = tmp_path / "dp.json"
    path.write_text(json.dumps({"cost_kinds": ["sobel", "x", "y", "z"]}))
    with pytest.raises(StageError, match=r"dp\.json': unknown DP config fields \['cost_kinds'\]") as err:
        read_config(str(path), DpConfig, "DP config")
    assert err.value.stage == "DP config"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("depths", [[0, 1, 2, 3], [0, 2, 4]], ids=["unit steps", "two-row steps"])
def test_smoothness_overflowing_the_path_cost_is_a_config_error(depths):
    """A path cost that overflows to +inf would read as an unreachable
    state, and a feasible band as an infeasible one; with two-row steps
    the step penalty itself overflows, with no warning."""
    with pytest.raises(ConfigError, match=r"^smoothness 1e\+308 overflows"):
        trace_boundary(np.zeros((6, len(depths))), depths, depths, smoothness=1e308, max_jump=2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_staircase_band_traces_with_a_huge_smoothness():
    depths = [0, 1, 2, 3]
    assert trace_boundary(np.zeros((6, 4)), depths, depths, smoothness=1e300, max_jump=2).tolist() == depths


def test_dp_config_refuses_a_smoothness_no_volume_can_trace():
    with pytest.raises(ConfigError, match=r"DP config field 'smoothness' 1e\+308 overflows"):
        DpConfig(smoothness=1e308)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_segment_boundaries_refuses_a_smoothness_overflowing_at_its_width():
    volume = OctVolume(np.zeros((2, 96, 64), dtype=np.float32))
    with pytest.raises(ConfigError, match=r"^smoothness 1e\+306 overflows .* over 64 columns"):
        segment_boundaries(volume, DpConfig(smoothness=1e306))
