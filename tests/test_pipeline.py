"""The ablation runs the cascade's own stage path: one `prepare` per seed,
one `extract` per variant, scored by `metrics.score`."""

import csv
import dataclasses
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oct_cascade import cascade, fileio, pipeline
from oct_cascade.cascade import extract, prepare, run_cascade
from oct_cascade.fileio import read_volume, write_volume
from oct_cascade.metrics import score
from oct_cascade.model import PixelMask, ProbabilityMap3D, VoxelMask
from oct_cascade.phantom import PhantomConfig, generate
from oct_cascade.pipeline import VARIANTS, PipelineConfig, StageError, ablate

SEEDS = [1, 2]
PHANTOM = {"dims": [8, 96, 64], "n_vessels": 2, "vessel_radius": 2.0, "noise_sigma": 0.03}


def small_config(tmp_path, **sections) -> PipelineConfig:
    return PipelineConfig.from_dict(
        {"input": {"phantom": PHANTOM}, "output_dir": str(tmp_path / "ablate"), **sections}
    )


def write_footprint(tmp_path, shape) -> str:
    rng = np.random.default_rng(5)
    path = str(tmp_path / "footprint")
    write_volume(PixelMask(rng.random(shape) < 0.2), path)
    return path


@pytest.mark.parametrize("case", ["classical", "imported shadow mask"])
@settings(max_examples=6)
@given(
    seeds=st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
    imported_map=st.booleans(),
    infusion=st.fixed_dictionaries({
        "transverse_dilation": st.integers(0, 2),
        "connectivity": st.sampled_from([6, 26]),
        "min_component_vox": st.integers(1, 12),
    }),
)
def test_ablate_rows_equal_run_cascade(case, seeds, imported_map, infusion):
    with tempfile.TemporaryDirectory() as root:
        root = pathlib.Path(root)
        sections, shadow, probability = {"infusion": infusion}, None, None
        if case == "imported shadow mask":
            path = write_footprint(root, (8, 64))
            sections["shadows"] = {"source": "import", "path": path}
            shadow = read_volume(path)
        if imported_map:
            prob = np.random.default_rng(7).random((8, 96, 64), dtype=np.float32) ** 4
            write_volume(ProbabilityMap3D(prob), str(root / "prob"))
            sections["backend"] = {"kind": "import", "path": str(root / "prob.json")}
            probability = read_volume(str(root / "prob"))
        cfg = small_config(root, **sections)
        ablate(cfg, seeds)

        with open(root / "ablate" / "ablation_runs.csv", newline="") as fh:
            written = list(csv.reader(fh))[2:]
    expected = []
    for seed in seeds:
        volume, gt = generate(cfg.with_seed(seed).phantom)
        for label, use_l, use_t in VARIANTS:
            infusion = dataclasses.replace(cfg.infusion, use_longitudinal=use_l, use_transverse=use_t)
            r = run_cascade(volume, shadow_source=shadow, backend_cfg=cfg.backend, infusion_cfg=infusion,
                            dp_cfg=cfg.dp, shadow_cfg=cfg.shadow, probability=probability)
            report = score(label, r.mask, r.probability, gt.vessel_mask)
            expected.append([str(seed), *pipeline._report_row(report)])
    assert written == expected


def test_ablate_wrong_shape_shadow_mask_is_cascade_stage_error(tmp_path):
    # the imported mask is checked against the volume as the shadow source
    cfg = small_config(
        tmp_path, shadows={"source": "import", "path": write_footprint(tmp_path, (8, 63))}
    )
    with pytest.raises(StageError, match="shadow mask shape") as err:
        ablate(cfg, [0])
    assert err.value.stage == "shadow source"


def test_wrong_shape_shadow_mask_fails_before_boundary_segmentation(tmp_path, monkeypatch):
    path = write_footprint(tmp_path, (8, 63))
    cfg = small_config(tmp_path, shadows={"source": "import", "path": path})
    monkeypatch.setattr(pipeline, "segment_boundaries", lambda *a: pytest.fail("DP ran"))
    with pytest.raises(StageError, match=r"footprint'.*\(8, 63\) != en-face shape \(8, 64\)") as err:
        pipeline.execute(cfg)
    assert err.value.stage == "shadow source"


@pytest.mark.parametrize("imported, segmentations", [(False, 1), (True, 0)])
def test_prepare_segments_shadows_only_when_needed(monkeypatch, imported, segmentations):
    volume, gt = generate(PhantomConfig.from_dict(PHANTOM))
    calls = []
    segment = cascade.segment_shadows
    monkeypatch.setattr(cascade, "segment_shadows", lambda *a: calls.append(1) or segment(*a))
    backend = cascade.VesselBackendConfig()
    source = gt.shadow_footprint if imported else None
    prepared = prepare(volume, shadow_source=source, backend_cfg=backend)
    assert len(calls) == segmentations
    if imported:
        assert prepared.shadow_mask is source
    # every variant extracted from one preparation equals its full run
    for _, use_l, use_t in VARIANTS:
        infusion = cascade.InfusionConfig(use_longitudinal=use_l, use_transverse=use_t)
        got = extract(prepared, infusion)
        want = run_cascade(volume, prepared.boundaries, source, backend, infusion)
        assert np.array_equal(got.mask.data, want.mask.data)
        assert np.array_equal(got.probability.data, want.probability.data)
        assert got.component_count == want.component_count


def test_wrong_kind_backend_map_fails_before_boundary_segmentation(tmp_path, monkeypatch):
    _, gt = generate(PhantomConfig.from_dict(PHANTOM))
    write_volume(gt.vessel_mask, str(tmp_path / "gt"))
    cfg = small_config(tmp_path, backend={"kind": "import", "path": str(tmp_path / "gt.json")})
    monkeypatch.setattr(pipeline, "segment_boundaries", lambda *a: pytest.fail("DP ran"))
    with pytest.raises(StageError, match="does not contain a ProbabilityMap3D") as err:
        pipeline.execute(cfg)
    assert err.value.stage == "backend"


def test_wrong_dims_backend_map_fails_before_boundary_segmentation(tmp_path, monkeypatch):
    write_volume(ProbabilityMap3D(np.zeros((8, 96, 63), dtype=np.float32)), str(tmp_path / "p"))
    cfg = small_config(tmp_path, backend={"kind": "import", "path": str(tmp_path / "p.json")})
    monkeypatch.setattr(pipeline, "segment_boundaries", lambda *a: pytest.fail("DP ran"))
    with pytest.raises(StageError, match=r"\(8, 96, 63\) != \(8, 96, 64\)") as err:
        pipeline.execute(cfg)
    assert err.value.stage == "backend"


def test_wrong_dims_ground_truth_fails_before_boundary_segmentation(tmp_path, monkeypatch):
    volume, _ = generate(PhantomConfig.from_dict(PHANTOM))
    write_volume(volume, str(tmp_path / "vol"))
    write_volume(VoxelMask(np.zeros((8, 96, 63), dtype=bool)), str(tmp_path / "gt"))
    cfg = PipelineConfig.from_dict({
        "input": {"volume": str(tmp_path / "vol.json"), "ground_truth_mask": str(tmp_path / "gt.json")},
        "output_dir": str(tmp_path / "out"),
    })
    monkeypatch.setattr(pipeline, "segment_boundaries", lambda *a: pytest.fail("DP ran"))
    with pytest.raises(StageError, match=r"gt\.json'.*\(8, 96, 63\) != volume dims \(8, 96, 64\)") as err:
        pipeline.execute(cfg)
    assert err.value.stage == "ground truth"


def test_deeply_nested_json_is_a_stage_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(StageError, match=r"malformed JSON in .*deep\.json") as err:
        pipeline.read_json(str(path), "pipeline config")
    assert err.value.stage == "pipeline config"


def test_imported_backend_map_is_read_once(tmp_path, monkeypatch):
    volume, _ = generate(PhantomConfig.from_dict(PHANTOM))
    rng = np.random.default_rng(0)
    write_volume(ProbabilityMap3D(rng.random(volume.dims, dtype=np.float32)), str(tmp_path / "p"))
    cfg = small_config(tmp_path, backend={"kind": "import", "path": str(tmp_path / "p.json")})
    opened = []
    monkeypatch.setattr(fileio, "open", lambda name, *a: opened.append(name) or open(name, *a),
                        raising=False)
    result, _, _ = pipeline.execute(cfg)
    assert opened.count(str(tmp_path / "p.raw")) == 1
    assert np.array_equal(result.raw_probability.data, read_volume(str(tmp_path / "p")).data)


def test_ablate_reads_each_import_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    dims = tuple(PHANTOM["dims"])
    write_volume(ProbabilityMap3D(rng.random(dims, dtype=np.float32)), str(tmp_path / "p"))
    footprint = write_footprint(tmp_path, (dims[0], dims[2]))
    cfg = small_config(tmp_path, shadows={"source": "import", "path": footprint},
                       backend={"kind": "import", "path": str(tmp_path / "p.json")})
    opened = []
    monkeypatch.setattr(fileio, "open",
                        lambda name, *a, **kw: opened.append(name) or open(name, *a, **kw),
                        raising=False)
    ablate(cfg, SEEDS)
    assert opened.count(str(tmp_path / "p.raw")) == 1
    assert opened.count(footprint + ".raw") == 1


@pytest.mark.parametrize("field, stage", [
    ("boundary_import_path", "boundary source"), ("shadow_import_path", "shadow source"),
])
def test_classical_source_with_a_path_is_refused(field, stage):
    with pytest.raises(StageError, match="classical source takes no path") as err:
        PipelineConfig(phantom=PhantomConfig.from_dict(PHANTOM), **{field: "x.json"})
    assert err.value.stage == stage
