import json

import numpy as np
import pytest

from oct_cascade.fileio import write_boundaries
from oct_cascade.layers import DpConfig, segment_boundaries
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
