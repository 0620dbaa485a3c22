"""End-to-end pipeline runs where every stage comes from imported files,
the contract through which externally trained models replace the classical
stages."""

import json

import numpy as np

from oct_cascade import cli
from oct_cascade.cascade import run_cascade
from oct_cascade.fileio import read_volume, write_boundaries, write_volume
from oct_cascade.layers import segment_boundaries
from oct_cascade.enface import project_rpe, segment_shadows
from oct_cascade.model import ProbabilityMap3D, VoxelMask
from oct_cascade.phantom import PhantomConfig, default_config, generate


def test_all_stages_imported_from_files(tmp_path):
    cfg = PhantomConfig.from_dict(
        {**default_config("desk", seed=9).to_dict(), "dims": [8, 96, 64], "n_vessels": 2}
    )
    volume, gt = generate(cfg)

    # stand-ins for external model outputs: the classical results, exported
    boundaries = segment_boundaries(volume)
    image = project_rpe(volume, boundaries)
    shadow_mask, contrast = segment_shadows(image)
    write_volume(volume, str(tmp_path / "vol"))
    write_volume(gt.vessel_mask, str(tmp_path / "gt"))
    write_boundaries(boundaries, str(tmp_path / "b.csv"))
    write_volume(shadow_mask, str(tmp_path / "shadow"))
    rng = np.random.default_rng(0)
    external_prob = ProbabilityMap3D(
        np.where(gt.vessel_mask.data, 0.95, rng.uniform(0, 0.4, volume.dims)).astype(np.float32)
    )
    write_volume(external_prob, str(tmp_path / "prob"))

    pipeline = {
        "input": {"volume": str(tmp_path / "vol.json"),
                  "ground_truth_mask": str(tmp_path / "gt.json")},
        "boundaries": {"source": "import", "path": str(tmp_path / "b.csv")},
        "shadows": {"source": "import", "path": str(tmp_path / "shadow.json")},
        "backend": {"kind": "import", "path": str(tmp_path / "prob.json")},
        "output_dir": str(tmp_path / "out"),
        "report": {"overlays": False},
    }
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(pipeline))

    assert cli.main(["run", "--config", str(cfg_path)]) == 0

    mask = read_volume(str(tmp_path / "out" / "mask"))
    assert isinstance(mask, VoxelMask)
    # an external map that scores the true vessels highly segments them
    assert mask.count() > 0
    assert not (mask.data & ~gt.vessel_mask.data).any()

    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert float(row["iou"]) > 0.9
    assert float(row["auc"]) == 1.0


def test_imported_probability_map_used_verbatim(tmp_path):
    cfg = PhantomConfig.from_dict(
        {**default_config("desk", seed=4).to_dict(), "dims": [6, 96, 64], "n_vessels": 1}
    )
    volume, gt = generate(cfg)
    rng = np.random.default_rng(1)
    prob = ProbabilityMap3D(rng.uniform(0, 1, volume.dims).astype(np.float32))
    write_volume(prob, str(tmp_path / "p"))

    from oct_cascade.cascade import VesselBackendConfig

    result = run_cascade(
        volume,
        backend_cfg=VesselBackendConfig(kind="import", path=str(tmp_path / "p")),
        probability=read_volume(str(tmp_path / "p")),
    )
    assert np.array_equal(result.raw_probability.data, prob.data)
