import argparse
import hashlib
import json
import os
import re
import resource
import signal
import subprocess
import sys

import numpy as np
import pytest

from oct_cascade import cli, pipeline
from oct_cascade.fileio import read_volume, write_boundaries, write_volume
from oct_cascade.model import EnFaceImage, OctVolume, PixelMask, ProbabilityMap3D, VoxelMask
from oct_cascade.phantom import PhantomConfig, generate
from oct_cascade.pipeline import PipelineConfig, StageError

from test_enface import flat_boundaries


def run_cli(args):
    return cli.main([str(a) for a in args])


def pipeline_config(tmp_path, *, seed=0, noise=0.03, overlays=True, montage=False,
                    shadows=None, out_name="out"):
    cfg = {
        "input": {
            "phantom": {
                "dims": [8, 96, 64],
                "n_vessels": 2,
                "vessel_radius": 2.0,
                "noise_sigma": noise,
                "seed": seed,
            }
        },
        "output_dir": str(tmp_path / out_name),
        "report": {"overlays": overlays, "montage": montage},
    }
    if shadows:
        cfg["shadows"] = shadows
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(cfg))
    return path


def read_metrics(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def file_hashes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            p = os.path.join(dirpath, name)
            rel = os.path.relpath(p, root)
            out[rel] = hashlib.sha256(open(p, "rb").read()).hexdigest()
    return out


def test_phantom_gen_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli(["phantom", "gen", "--scale", "desk", "--seed", 42, "--out", out]) == 0
    for name in (
        "volume.json", "volume.raw", "gt_boundaries.csv", "gt_vessel_mask.json",
        "gt_vessel_mask.raw", "gt_shadow_footprint.json", "gt_shadow_footprint.raw",
        "gt_centerlines.csv", "phantom_config.json",
    ):
        assert (out / name).exists(), name
    summary = capsys.readouterr().out
    assert "seed=42" in summary and "n_vessels=4" in summary
    assert isinstance(read_volume(str(out / "volume")), OctVolume)


def test_phantom_gen_is_idempotent(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(["phantom", "gen", "--seed", 7, "--out", out1])
    run_cli(["phantom", "gen", "--seed", 7, "--out", out2])
    assert file_hashes(out1) == file_hashes(out2)
    held = tmp_path / "held"  # hard links to the first run's files
    held.mkdir()
    for name in os.listdir(out1):
        os.link(out1 / name, held / name)
    run_cli(["phantom", "gen", "--seed", 7, "--out", out1])  # rerun: each file written new
    assert file_hashes(out1) == file_hashes(out2) == file_hashes(held)
    assert all(os.stat(out1 / name).st_ino != os.stat(held / name).st_ino for name in os.listdir(held))


def test_phantom_gen_zero_vessels(tmp_path):
    out = tmp_path / "d"
    run_cli(["phantom", "gen", "--seed", 1, "--n-vessels", 0, "--out", out])
    gt = read_volume(str(out / "gt_vessel_mask"))
    assert isinstance(gt, VoxelMask) and gt.count() == 0
    fp = read_volume(str(out / "gt_shadow_footprint"))
    assert isinstance(fp, PixelMask) and not fp.data.any()


def test_run_writes_reports(tmp_path):
    cfg = pipeline_config(tmp_path)
    assert run_cli(["run", "--config", cfg]) == 0
    out = tmp_path / "out"
    for name in ("mask.json", "mask.raw", "prob.json", "prob.raw", "boundaries.csv",
                 "enface.pgm", "shadow_mask.pgm", "metrics.csv"):
        assert (out / name).exists(), name
    overlays = sorted((out / "overlays").iterdir())
    assert len(overlays) == 8 and overlays[0].name == "slice_000.pgm"
    rows = read_metrics(out / "metrics.csv")
    assert len(rows) == 1
    assert rows[0]["method"] == "+longitudinal+transverse"
    assert 0.0 <= float(rows[0]["iou"]) <= 1.0
    assert isinstance(read_volume(str(out / "prob")), ProbabilityMap3D)


def test_run_without_overlays(tmp_path):
    cfg = pipeline_config(tmp_path, overlays=False)
    assert run_cli(["run", "--config", cfg]) == 0
    assert not (tmp_path / "out" / "overlays").exists()


def test_run_montage(tmp_path):
    cfg = pipeline_config(tmp_path, montage=True)
    assert run_cli(["run", "--config", cfg]) == 0
    assert (tmp_path / "out" / "montage.pgm").exists()


def test_run_is_idempotent(tmp_path):
    cfg = pipeline_config(tmp_path)
    run_cli(["run", "--config", cfg])
    first = file_hashes(tmp_path / "out")
    run_cli(["run", "--config", cfg])
    assert file_hashes(tmp_path / "out") == first


@pytest.mark.parametrize("command, stage", [
    ("run", "input"), ("ablate", "input"), ("phantom gen", "phantom config"),
])
def test_a_band_too_thin_for_the_vessels_names_the_stage(tmp_path, capsys, command, stage):
    phantom = {"dims": [2, 64, 48], "vessel_radius": 9.0}
    config = tmp_path / "config.json"
    if command == "phantom gen":
        config.write_text(json.dumps(phantom))
        args = ["phantom", "gen", "--config", config, "--out", tmp_path / "gen"]
    else:
        config.write_text(json.dumps({"input": {"phantom": phantom}, "output_dir": str(tmp_path / "out")}))
        args = [command, "--config", config, *(["--seeds", "0"] if command == "ablate" else [])]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage}: ILM-INL band") and "too thin" in err


def test_missing_shadow_import_names_stage(tmp_path, capsys):
    cfg = pipeline_config(
        tmp_path, shadows={"source": "import", "path": str(tmp_path / "absent.json")}
    )
    assert run_cli(["run", "--config", cfg]) == 2
    assert "shadow source" in capsys.readouterr().err


def test_missing_backend_import_names_stage(tmp_path, capsys):
    cfg_dict = json.loads(pipeline_config(tmp_path).read_text())
    cfg_dict["backend"] = {"kind": "import", "path": str(tmp_path / "absent.json")}
    path = tmp_path / "pipeline2.json"
    path.write_text(json.dumps(cfg_dict))
    assert run_cli(["run", "--config", path]) == 2
    assert "backend" in capsys.readouterr().err


def test_malformed_inputs_exit_2_without_traceback(tmp_path):
    """A config section that is not an object, a path that is not a string,
    a config field of the wrong type or unknown, a corrupt grid header for
    the volume, ground truth or shadow mask, and a non-integer boundary cell
    each stop `run` with exit code 2 and a one-line error naming the stage
    (or the config field) and the culprit."""
    good = json.loads(pipeline_config(tmp_path).read_text())
    bad_sections = []
    for i, (change, stage, culprit) in enumerate((
        (lambda c: c.update(report="yes"), "report", "'report' section"),
        (lambda c: c.update(backend="x"), "backend", "'backend' section"),
        (lambda c: c.update(infusion=3), "infusion", "'infusion' section"),
        (lambda c: c["input"].update(phantom="x"), "input", "'phantom' section"),
        (lambda c: c.update(boundaries={"dp": "x"}), "boundary source", "'dp' section"),
        (lambda c: c.update(shadows={"config": 5}), "shadow source", "'config' section"),
        (lambda c: c.update(input={"volume": 5}), "input volume", "'volume' must be a path"),
        (lambda c: c.update(input={"volume": "v", "ground_truth_mask": 5}),
         "ground truth", "'ground_truth_mask' must be a path"),
        (lambda c: c.update(output_dir=7), "output", "'output_dir' must be a path"),
        (lambda c: c.update(boundaries={"source": "import", "path": 5}),
         "boundary source", "'path' must be a path"),
        (lambda c: c.update(shadows={"source": "import", "path": 5}),
         "shadow source", "'path' must be a path"),
        (lambda c: c.update(backend={"kind": "import", "path": 5}), "backend", "'path' must be a path"),
        # each source section takes its own config key, and a path only to import
        (lambda c: c.update(boundaries={"source": "import", "path": "x.csv", "typo": 1}),
         "boundary source", "unknown keys ['typo']"),
        (lambda c: c.update(boundaries={"config": 5}), "boundary source", "unknown keys ['config']"),
        (lambda c: c.update(shadows={"dp": {"max_jump": "x"}}), "shadow source", "unknown keys ['dp']"),
        (lambda c: c.update(shadows={"path": "x"}), "shadow source", "classical source takes no path"),
        (lambda c: c["input"].update(typo=1), "input", "unknown keys ['typo']"),
        (lambda c: c.update(input={"volume": "v.json", "phantom_typo": {}}),
         "input", "unknown keys ['phantom_typo']"),
        (lambda c: c["input"].update(ground_truth_mask="gt.json"),
         "ground truth", "a phantom input takes no ground_truth_mask"),
    )):
        cfg = json.loads(json.dumps(good))
        change(cfg)
        with pytest.raises(StageError, match=re.escape(culprit)) as err:
            PipelineConfig.from_dict(cfg)
        assert err.value.stage == stage
        path = tmp_path / f"bad_section_{i}.json"
        path.write_text(json.dumps(cfg))
        bad_sections.append((path, stage, culprit))

    bad_fields = []
    for i, (section, fields, stage, culprit) in enumerate((
        ("infusion", {"transverse_dilation": "x"}, "infusion", "'transverse_dilation' must be an integer"),
        ("backend", {"kind": 5}, "backend", "'kind' must be a string"),
        ("shadows", {"config": {"background_window": 9}}, "shadow source",
         "'background_window' must be a list"),
        ("report", {"overlays": "no"}, "report", "'overlays' must be true or false"),
        ("report", {"extra": 1}, "report", "unknown report config fields"),
        ("backend", {"path": "prob.json"}, "backend", "classical backend takes no path"),
        # the shadow evidence enters once, as the transverse mask
        ("backend", {"w_shadow": 0.0}, "backend", "unknown backend config fields ['w_shadow']"),
        ("shadows", {"config": {"dilation_radius": 1}}, "shadow source",
         "unknown shadow config fields ['dilation_radius']"),
    )):
        cfg = {**good, section: fields}
        with pytest.raises(StageError, match=re.escape(culprit)) as err:
            PipelineConfig.from_dict(cfg)
        assert err.value.stage == stage
        path = tmp_path / f"bad_field_{i}.json"
        path.write_text(json.dumps(cfg))
        bad_fields.append((path, stage, culprit))

    (tmp_path / "vol.json").write_text("[1, 2, 3]")
    (tmp_path / "vol.raw").write_bytes(b"")
    bad_header = tmp_path / "bad_header.json"
    bad_header.write_text(json.dumps(
        {"input": {"volume": str(tmp_path / "vol")}, "output_dir": str(tmp_path / "o1")}
    ))

    write_volume(OctVolume(np.zeros((1, 16, 8), dtype=np.float32)), str(tmp_path / "flat"))
    csv_path = tmp_path / "b.csv"
    csv_path.write_text("boundary,slice,column,depth\nILM,zero,0,2.0\n")
    bad_csv = tmp_path / "bad_csv.json"
    bad_csv.write_text(json.dumps({
        "input": {"volume": str(tmp_path / "flat")},
        "boundaries": {"source": "import", "path": str(csv_path)},
        "output_dir": str(tmp_path / "o2"),
    }))

    # spacing that is not 3 numbers, on a ground truth and a shadow mask
    write_volume(VoxelMask(np.zeros((1, 16, 8), dtype=bool)), str(tmp_path / "gt"))
    write_volume(PixelMask(np.zeros((1, 8), dtype=bool)), str(tmp_path / "shadow"))
    for name in ("gt", "shadow"):
        header = json.loads((tmp_path / f"{name}.json").read_text())
        (tmp_path / f"{name}.json").write_text(json.dumps({**header, "spacing": "abc"}))
    bad_gt = tmp_path / "bad_gt.json"
    bad_gt.write_text(json.dumps({
        "input": {"volume": str(tmp_path / "flat"), "ground_truth_mask": str(tmp_path / "gt")},
        "output_dir": str(tmp_path / "o3"),
    }))
    bad_shadow = tmp_path / "bad_shadow.json"
    bad_shadow.write_text(json.dumps({
        "input": {"volume": str(tmp_path / "flat")},
        "shadows": {"source": "import", "path": str(tmp_path / "shadow")},
        "output_dir": str(tmp_path / "o4"),
    }))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for config, stage, culprit in bad_sections + bad_fields + [
        (bad_header, "input volume", "vol.json"),
        (bad_csv, "boundary source", "b.csv' row 2"),
        (bad_gt, "ground truth", "gt.json': spacing"),
        (bad_shadow, "shadow source", "shadow.json': spacing"),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "oct_cascade", "run", "--config", str(config)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert stage in proc.stderr and culprit in proc.stderr


@pytest.fixture
def stage_inputs(tmp_path):
    """A valid volume, boundary CSV, en-face image, mask and probability map."""
    write_volume(OctVolume(np.zeros((1, 16, 8), dtype=np.float32)), str(tmp_path / "vol"))
    write_boundaries(flat_boundaries(1, 8), str(tmp_path / "b.csv"))
    write_volume(EnFaceImage(np.zeros((1, 8), dtype=np.float32)), str(tmp_path / "enface"))
    write_volume(VoxelMask(np.zeros((1, 16, 8), dtype=bool)), str(tmp_path / "mask"))
    write_volume(ProbabilityMap3D(np.zeros((1, 16, 8), dtype=np.float32)), str(tmp_path / "prob"))
    (tmp_path / "mask_backend.json").write_text(json.dumps({
        "input": {"volume": str(tmp_path / "vol")},
        "backend": {"kind": "import", "path": str(tmp_path / "mask.json")},
        "output_dir": str(tmp_path / "out"),
    }))
    return tmp_path


@pytest.mark.parametrize("args, stage", [
    (["phantom", "gen", "--out", "{d}/gen"], "phantom config"),
    (["run"], "pipeline config"),
    (["ablate", "--seeds", "0"], "pipeline config"),
    (["layers", "--in", "{d}/vol.json", "--out", "{d}/out.csv"], "DP config"),
    (["shadows", "--in", "{d}/enface.json", "--out", "{d}/sm"], "shadow config"),
    (["vessels", "--in", "{d}/vol.json", "--boundaries", "{d}/b.csv", "--out", "{d}/p"],
     "backend config"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
@pytest.mark.parametrize("content, culprit", [
    ("{not json", "malformed JSON"),
    (None, "No such file"),
    ("[1, 2]", "does not hold a JSON object"),
    ('{"no_such_field": 1}', "['no_such_field']"),
], ids=["invalid", "missing", "list", "unknown-field"])
def test_bad_config_exits_2_naming_the_stage(stage_inputs, capsys, args, stage, content, culprit):
    config = stage_inputs / "config.json"
    if content is not None:
        config.write_text(content)
    assert run_cli([*(a.format(d=stage_inputs) for a in args), "--config", config]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: {stage}: " in err and culprit in err and "config.json" in err


@pytest.mark.parametrize("args, stage, culprit", [
    (["layers", "--in", "{d}/mask.json", "--out", "{d}/b2.csv"], "input volume", "an OctVolume"),
    (["enface", "--in", "{d}/mask.json", "--boundaries", "{d}/b.csv", "--out", "{d}/e"],
     "input volume", "an OctVolume"),
    (["shadows", "--in", "{d}/vol.json", "--out", "{d}/sm"], "en-face image", "an EnFaceImage"),
    (["eval", "--pred", "{d}/prob.json", "--gt", "{d}/mask.json", "--out", "{d}"],
     "prediction", "a VoxelMask"),
    (["eval", "--pred", "{d}/mask.json", "--gt", "{d}/absent.json", "--out", "{d}"],
     "ground truth", "no such file"),
    (["eval", "--pred", "{d}/mask.json", "--gt", "{d}/mask.json", "--prob", "{d}/mask.json",
      "--out", "{d}"], "probability map", "a ProbabilityMap3D"),
    (["run", "--config", "{d}/mask_backend.json"], "backend", "a ProbabilityMap3D"),
], ids=["layers", "enface", "shadows", "eval-pred", "eval-gt", "eval-prob", "run-backend"])
def test_wrong_kind_input_exits_2_naming_the_stage(stage_inputs, capsys, args, stage, culprit):
    assert run_cli([a.format(d=stage_inputs) for a in args]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count(stage) == 1 and culprit in err


@pytest.mark.parametrize("args, stage, culprit", [
    (["eval", "--pred", "{d}/mask.json", "--gt", "{d}/narrow_mask.json", "--out", "{d}"],
     "ground truth", "narrow_mask.json': dims (1, 16, 7) != prediction dims (1, 16, 8)"),
    (["eval", "--pred", "{d}/mask.json", "--gt", "{d}/mask.json", "--prob", "{d}/narrow_prob.json",
      "--out", "{d}"], "probability map", "narrow_prob.json': dims (1, 16, 7) != prediction dims"),
], ids=["eval-gt", "eval-prob"])
def test_wrong_dims_input_exits_2_naming_the_stage(stage_inputs, capsys, args, stage, culprit):
    write_volume(VoxelMask(np.zeros((1, 16, 7), dtype=bool)), str(stage_inputs / "narrow_mask"))
    write_volume(ProbabilityMap3D(np.zeros((1, 16, 7), dtype=np.float32)),
                 str(stage_inputs / "narrow_prob"))
    assert run_cli([a.format(d=stage_inputs) for a in args]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {stage}: ") and culprit in err


@pytest.mark.parametrize("map_name, culprit", [
    ("mask.json", "does not contain a ProbabilityMap3D"),
    ("absent.json", "no such file"),
    ("narrow.json", "imported probability map vs volume: (1, 16, 7) != (1, 16, 8)"),
], ids=["wrong-kind", "missing", "wrong-dims"])
def test_vessels_bad_import_backend_exits_2_naming_the_stage(stage_inputs, capsys, map_name, culprit):
    write_volume(ProbabilityMap3D(np.zeros((1, 16, 7), dtype=np.float32)), str(stage_inputs / "narrow"))
    config = stage_inputs / "backend.json"
    config.write_text(json.dumps({"kind": "import", "path": str(stage_inputs / map_name)}))
    args = ["vessels", "--in", stage_inputs / "vol.json", "--boundaries", stage_inputs / "b.csv",
            "--out", stage_inputs / "p3", "--config", config]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: backend: ")
    assert map_name in err and culprit in err


def test_vessels_import_backend_writes_the_imported_map(stage_inputs):
    rng = np.random.default_rng(3)
    prob = ProbabilityMap3D(rng.random((1, 16, 8), dtype=np.float32))
    write_volume(prob, str(stage_inputs / "external"))
    config = stage_inputs / "backend.json"
    config.write_text(json.dumps({"kind": "import", "path": str(stage_inputs / "external.json")}))
    out = stage_inputs / "p4"
    assert run_cli(["vessels", "--in", stage_inputs / "vol.json", "--boundaries",
                    stage_inputs / "b.csv", "--out", out, "--config", config]) == 0
    assert np.array_equal(read_volume(str(out)).data, prob.data)


@pytest.mark.parametrize("command", ["enface", "vessels"])
@pytest.mark.parametrize("content, culprit", [
    (None, "no such file"),
    ("boundary,slice,column,depth\nILM,zero,0,2.0\n", "bad.csv' row 2"),
    (b"boundary,slice,column,depth\nILM,0,0,\xff\n", "bad.csv': 'utf-8' codec"),
    ("boundary,slice,column,depth\nILM,0,0," + "x" * 140_000 + "\n",
     "bad.csv' row 2: field larger"),
], ids=["absent", "bad-cell", "not-utf8", "huge-field"])
def test_bad_boundaries_exit_2_naming_the_stage(stage_inputs, capsys, command, content, culprit):
    csv_path = stage_inputs / "bad.csv"
    if isinstance(content, bytes):
        csv_path.write_bytes(content)
    elif content is not None:
        csv_path.write_text(content)
    args = [command, "--in", stage_inputs / "vol.json", "--boundaries", csv_path,
            "--out", stage_inputs / "out"]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: boundary source: ")
    assert err.count("boundary source") == 1 and culprit in err


@pytest.mark.parametrize("args, culprit", [
    (["phantom", "gen", "--out", "{d}/taken"], "taken"),
    (["run", "--config", "{d}/pipeline.json", "--out", "{d}/taken"], "taken"),
    (["ablate", "--config", "{d}/pipeline.json", "--seeds", "0", "--out", "{d}/taken"], "taken"),
    (["eval", "--pred", "{d}/mask.json", "--gt", "{d}/mask.json", "--out", "{d}/taken"], "taken"),
    (["layers", "--in", "{d}/vol.json", "--out", "{d}/dir"], "dir"),
], ids=["phantom-gen", "run", "ablate", "eval", "layers"])
def test_unwritable_output_exits_2_naming_the_stage(stage_inputs, capsys, args, culprit):
    """An --out that is an existing file, where a directory is written, or a
    directory, where a file is written, is the output stage's error."""
    pipeline_config(stage_inputs)
    (stage_inputs / "taken").write_text("")
    (stage_inputs / "dir").mkdir()
    assert run_cli([a.format(d=stage_inputs) for a in args]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: output: ") and repr(str(stage_inputs / culprit)) in err


def test_run_into_an_existing_file_fails_before_boundary_segmentation(tmp_path, capsys, monkeypatch):
    """`run` makes its output directory before any stage runs."""
    calls = []
    segment = pipeline.segment_boundaries
    monkeypatch.setattr(pipeline, "segment_boundaries", lambda *a: calls.append(1) or segment(*a))
    (tmp_path / "taken").write_text("")
    assert run_cli(["run", "--config", pipeline_config(tmp_path), "--out", tmp_path / "taken"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output: ") and repr(str(tmp_path / "taken")) in err
    assert calls == []


def _limit_file_size():
    # runs in the child alone: files it writes stop at 100 kB, and a write
    # past that fails with EFBIG instead of killing it with SIGXFSZ
    resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, 100_000))
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)


@pytest.mark.slow
def test_run_past_the_file_size_limit_names_the_file_and_removes_it(tmp_path):
    """prob.raw, 196 kB, is the first output past the limit."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "oct_cascade", "run", "--config", str(pipeline_config(tmp_path))],
        env=env, capture_output=True, text=True, preexec_fn=_limit_file_size,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    prob = tmp_path / "out" / "prob.raw"
    assert proc.stderr == f"error: output: cannot write {str(prob)!r}: File too large\n"
    assert not prob.exists() and (tmp_path / "out" / "mask.raw").stat().st_size == 8 * 96 * 64


def test_run_with_a_background_window_beyond_its_cap_fails_before_any_stage(tmp_path, capsys, monkeypatch):
    """The criterion-8 phantom run with a window no box filter should
    allocate for is the shadow source's config error."""
    calls = []
    segment = pipeline.segment_boundaries
    monkeypatch.setattr(pipeline, "segment_boundaries", lambda *a: calls.append(1) or segment(*a))
    window = {"config": {"background_window": [1000000001, 1000000001]}}
    assert run_cli(["run", "--config", pipeline_config(tmp_path, seed=3, shadows=window)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: shadow source: ") and "must be in [3, 65535], got 1000000001" in err
    assert calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("dp, culprit", [
    ({"ilm_band": [10**30, 0.45]}, f"'ilm_band'[0] must be in [0, 65535], got {10**30}"),
    ({"rpe_band": [0.06, 10**21]}, f"'rpe_band'[1] must be in [0, 65535], got {10**21}"),
], ids=["ilm_band", "rpe_band"])
def test_run_with_dp_rows_beyond_int64_exits_2_naming_the_stage(tmp_path, capsys, dp, culprit):
    """Row counts no int64 holds are refused as the boundary source's
    config error, not raised as an OverflowError by the band arithmetic."""
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps({"input": {"phantom": {"dims": [2, 96, 64], "n_vessels": 2}},
                               "boundaries": {"dp": dp}, "output_dir": str(tmp_path / "out")}))
    assert run_cli(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: boundary source: ") and culprit in err
    assert not (tmp_path / "out").exists()


def _phantom_run_config(tmp_path, n_vessels):
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps({"input": {"phantom": {"dims": [2, 96, 64], "n_vessels": n_vessels}},
                                "output_dir": str(tmp_path / "out")}))
    return path


@pytest.mark.parametrize("command, stage", [
    (lambda d, n: ["run", "--config", _phantom_run_config(d, n)], "input"),
    (lambda d, n: ["phantom", "gen", "--n-vessels", n, "--out", d / "out"], "phantom config"),
], ids=["run", "phantom gen"])
def test_a_vessel_count_beyond_its_cap_exits_2_naming_the_stage(tmp_path, capsys, command, stage):
    """Refused before the vessel paths are allocated, where numpy raised a
    bare ValueError for a count no array dimension holds."""
    assert run_cli(command(tmp_path, 10**30)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage}: ")
    assert f"'n_vessels' must be in [0, 65535], got {10**30}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("message, shown", [("Unable to allocate 7.28 TiB", "Unable to allocate 7.28 TiB"),
                                            ("", "an allocation failed")])
def test_run_out_of_memory_exits_2_naming_the_stage(tmp_path, capsys, monkeypatch, message, shown):
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(pipeline, "segment_boundaries", exhausted)
    assert run_cli(["run", "--config", pipeline_config(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: boundary segmentation: out of memory: {shown}\n"


@pytest.mark.parametrize("args, function, stage", [
    (["layers", "--in", "{d}/vol.json", "--out", "{d}/b2.csv"], "segment_boundaries",
     "boundary segmentation"),
    (["enface", "--in", "{d}/vol.json", "--boundaries", "{d}/b.csv", "--out", "{d}/e"],
     "project_rpe", "en-face projection"),
    (["shadows", "--in", "{d}/enface.json", "--out", "{d}/sm"], "segment_shadows",
     "shadow segmentation"),
    (["vessels", "--in", "{d}/vol.json", "--boundaries", "{d}/b.csv", "--out", "{d}/p"],
     "vessel_probability", "vessel scoring"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_stage_command_out_of_memory_exits_2_naming_the_stage(stage_inputs, capsys, monkeypatch,
                                                              args, function, stage):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, function, exhausted)
    assert run_cli([a.format(d=stage_inputs) for a in args]) == 2
    assert capsys.readouterr().err == f"error: {stage}: out of memory: Unable to allocate 7.28 TiB\n"


def test_layers_with_an_empty_search_band_names_the_stage(stage_inputs, capsys):
    config = stage_inputs / "dp.json"
    config.write_text(json.dumps({"ilm_band": [2, 0.0]}))
    args = ["layers", "--in", stage_inputs / "vol.json", "--out", stage_inputs / "b2.csv",
            "--config", config]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: boundary segmentation: empty search band at column 0")


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.skipif(sys.platform != "linux", reason="address-space limit via setrlimit")
def test_run_on_a_phantom_too_large_to_allocate_exits_2_naming_the_stage(tmp_path):
    """Refused by the voxel cap as a config fault naming `dims`, before
    anything is allocated: under a 3 GiB address-space limit, so an
    allocation would fail wherever the machine would otherwise grant it."""
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({
        "input": {"phantom": {"dims": [1000000, 1000000, 1000000]}},
        "output_dir": str(tmp_path / "out"),
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "oct_cascade", "run", "--config", str(cfg)],
        capture_output=True, text=True, preexec_fn=_limit_address_space, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: input: ")
    assert "dims [1000000, 1000000, 1000000] hold" in proc.stderr and "out of memory" not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_run_out_of_memory_in_the_phantom_exits_2_naming_the_input(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 512 MiB")

    monkeypatch.setattr(pipeline, "generate", exhausted)
    assert run_cli(["run", "--config", pipeline_config(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: input: out of memory: Unable to allocate 512 MiB\n"


def test_eval_identical_masks(tmp_path):
    rng = np.random.default_rng(0)
    mask = VoxelMask(rng.random((3, 8, 8)) < 0.2)
    write_volume(mask, str(tmp_path / "m"))
    assert run_cli(["eval", "--pred", tmp_path / "m.json", "--gt", tmp_path / "m.json",
                    "--out", tmp_path]) == 0
    row = read_metrics(tmp_path / "metrics.csv")[0]
    assert float(row["iou"]) == 1.0
    assert row["auc"] == "NA"
    assert "auc_unavailable" in row["flags"]


def test_eval_disjoint_masks_and_prob(tmp_path):
    a = np.zeros((2, 8, 8), dtype=bool)
    b = np.zeros((2, 8, 8), dtype=bool)
    a[0, 0, 0] = True
    b[1, 1, 1] = True
    write_volume(VoxelMask(a), str(tmp_path / "a"))
    write_volume(VoxelMask(b), str(tmp_path / "b"))
    prob = np.zeros((2, 8, 8), dtype=np.float32)
    prob[1, 1, 1] = 0.9
    write_volume(ProbabilityMap3D(prob), str(tmp_path / "p"))
    assert run_cli(["eval", "--pred", tmp_path / "a.json", "--gt", tmp_path / "b.json",
                    "--prob", tmp_path / "p.json", "--out", tmp_path]) == 0
    row = read_metrics(tmp_path / "metrics.csv")[0]
    assert float(row["iou"]) == 0.0
    assert float(row["auc"]) == 1.0


def test_ablate_aggregate_shape_and_ordering_line(tmp_path, capsys):
    cfg = pipeline_config(tmp_path)
    code = run_cli(["ablate", "--config", cfg, "--seeds", "0-2", "--out", tmp_path / "ab"])
    out = capsys.readouterr().out
    assert "ORDERING:" in out
    rows = read_metrics(tmp_path / "ab" / "ablation.csv")
    assert [r["variant"] for r in rows] == [
        "base", "+longitudinal", "+transverse", "+longitudinal+transverse"
    ]
    runs = read_metrics(tmp_path / "ab" / "ablation_runs.csv")
    assert len(runs) == 12  # 3 seeds x 4 variants
    if code == 0:
        ious = [float(r["iou_mean"]) for r in rows]
        assert all(a < b for a, b in zip(ious, ious[1:]))


@pytest.mark.slow
def test_ablate_desk_defaults_passes_ordering(tmp_path, capsys):
    cfg_path = tmp_path / "desk.json"
    cfg_path.write_text(json.dumps({"input": {"phantom": {}}, "output_dir": str(tmp_path / "ab")}))
    assert run_cli(["ablate", "--config", cfg_path, "--seeds", "0-9"]) == 0
    assert "ORDERING: PASS" in capsys.readouterr().out
    rows = read_metrics(tmp_path / "ab" / "ablation.csv")
    assert len(rows) == 4
    ious = [float(r["iou_mean"]) for r in rows]
    assert all(a < b for a, b in zip(ious, ious[1:]))


def test_ablate_single_seed_zero_std_and_idempotent(tmp_path):
    cfg = pipeline_config(tmp_path)
    run_cli(["ablate", "--config", cfg, "--seeds", "3", "--out", tmp_path / "ab1"])
    rows = read_metrics(tmp_path / "ab1" / "ablation.csv")
    assert all(float(r["iou_std"]) == 0.0 for r in rows)
    first = file_hashes(tmp_path / "ab1")
    run_cli(["ablate", "--config", cfg, "--seeds", "3", "--out", tmp_path / "ab1"])
    assert file_hashes(tmp_path / "ab1") == first


def test_stage_commands_chain(tmp_path):
    gen = tmp_path / "gen"
    run_cli(["phantom", "gen", "--seed", 5, "--out", gen])
    vol = gen / "volume.json"

    boundaries = tmp_path / "b.csv"
    assert run_cli(["layers", "--in", vol, "--out", boundaries]) == 0
    assert boundaries.exists()

    ef = tmp_path / "enface.json"
    assert run_cli(["enface", "--in", vol, "--boundaries", boundaries, "--out", ef,
                    "--pgm", tmp_path / "enface.pgm"]) == 0
    assert (tmp_path / "enface.pgm").exists()

    sm = tmp_path / "shadow.json"
    contrast = tmp_path / "contrast.json"
    assert run_cli(["shadows", "--in", ef, "--out", sm, "--contrast", contrast]) == 0
    assert isinstance(read_volume(str(sm)), PixelMask)

    prob = tmp_path / "prob.json"
    assert run_cli(["vessels", "--in", vol, "--boundaries", boundaries, "--out", prob]) == 0
    assert isinstance(read_volume(str(prob)), ProbabilityMap3D)

    # the staged chain reproduces the library path
    from oct_cascade.cascade import vessel_probability
    from oct_cascade.pipeline import read_boundary_csv

    volume = read_volume(str(vol))
    b = read_boundary_csv(str(boundaries), volume)
    direct = vessel_probability(volume, b)
    assert np.array_equal(read_volume(str(prob)).data, direct.data)


def test_layers_with_a_huge_max_jump_writes_what_height_minus_one_does(tmp_path):
    """A jump as deep as the DP's table or deeper reaches only its +inf
    pads, so it is clamped rather than allocated."""
    write_volume(generate(PhantomConfig(dims=(2, 96, 64)))[0], str(tmp_path / "vol"))
    for jump in (95, 10**12):
        (tmp_path / "dp.json").write_text(json.dumps({"max_jump": jump}))
        assert run_cli(["layers", "--in", tmp_path / "vol.json", "--out", tmp_path / f"{jump}.csv",
                        "--config", tmp_path / "dp.json"]) == 0
    assert (tmp_path / f"{10**12}.csv").read_bytes() == (tmp_path / "95.csv").read_bytes()


@pytest.mark.parametrize("section, huge, clamped", [
    (lambda v: {"boundaries": {"dp": {"max_jump": v}}}, 10**12, 95),
    (lambda v: {"infusion": {"transverse_dilation": v}}, 10**6, 64),
], ids=["max_jump", "transverse_dilation"])
def test_run_with_a_huge_value_writes_what_the_clamped_value_does(tmp_path, section, huge, clamped):
    """The criterion-8 phantom run with a max_jump beyond its height or a
    transverse dilation beyond its longest en-face side."""
    hashes = []
    for value in (huge, clamped):
        cfg = {
            "input": {"phantom": {"dims": [8, 96, 64], "n_vessels": 2, "seed": 3}},
            "output_dir": str(tmp_path / str(value)),
            **section(value),
        }
        (tmp_path / "pipeline.json").write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", tmp_path / "pipeline.json"]) == 0
        hashes.append(file_hashes(tmp_path / str(value)))
    assert hashes[0] == hashes[1]


def test_seed_parsing():
    assert cli._parse_seeds("0-3") == [0, 1, 2, 3]
    assert cli._parse_seeds("0,5,9") == [0, 5, 9]
    assert cli._parse_seeds("2") == [2]
    with pytest.raises(argparse.ArgumentTypeError, match="'5-3'"):
        cli._parse_seeds("0-2,5-3")


@pytest.mark.slow
def test_outputs_identical_across_reruns(tmp_path):
    cfg = pipeline_config(tmp_path)
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = subprocess.run(
            [sys.executable, "-m", "oct_cascade", "run", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert code.returncode == 0, code.stderr
        hashes.append(file_hashes(out))
    assert hashes[0] == hashes[1]
