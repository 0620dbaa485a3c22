"""What `run_to_files` writes equals the in-memory cascade of `execute`,
over drawn configs: classical or imported sources, the infusion flags and
the report images; a second run writes the same files byte for byte. `run_to_files` frees the volume after `prepare` and
draws its overlays from 8-bit gray levels, so each overlay and the montage
are checked against `write_pgm` of the float64 overlay that B-scan's
intensities give, white where the mask is set.

A rerun into the same directory writes every file as a new one: a hard
link or symlink at an output path keeps what it held, and the report files
the rerun does not write are removed."""

import dataclasses
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oct_cascade import pipeline
from oct_cascade.fileio import read_boundaries, read_volume, write_boundaries, write_pgm, write_volume
from oct_cascade.metrics import score
from oct_cascade.model import BOUNDARY_NAMES, ProbabilityMap3D
from oct_cascade.phantom import PhantomConfig, generate

PHANTOM = {"dims": [8, 96, 64], "n_vessels": 2, "vessel_radius": 2.0, "noise_sigma": 0.03}


def overlay_reference(volume, mask, s: int) -> np.ndarray:
    """B-scan `s` as float64 intensities, 1.0 where the mask is set."""
    img = volume.data[s].astype(np.float64)
    img[mask.data[s]] = 1.0
    return img


def write_imports(root: str, phantom: dict) -> dict:
    """The phantom's volume, ground truth, boundaries, shadow footprint and a
    noisy stand-in for a network's map, on disk; the config sections that
    read them."""
    volume, gt = generate(PhantomConfig.from_dict(phantom))
    write_volume(volume, os.path.join(root, "volume"))
    write_volume(gt.vessel_mask, os.path.join(root, "gt"))
    write_boundaries(gt.boundaries, os.path.join(root, "boundaries.csv"))
    write_volume(gt.shadow_footprint, os.path.join(root, "footprint"))
    noise = np.random.default_rng(phantom["seed"]).normal(0.0, 0.15, volume.dims)
    prob = np.clip(0.75 * gt.vessel_mask.data + noise, 0.0, 1.0).astype(np.float32)
    write_volume(ProbabilityMap3D(prob), os.path.join(root, "prob"))
    return {
        "input": {"volume": os.path.join(root, "volume.json"),
                  "ground_truth_mask": os.path.join(root, "gt.json")},
        "boundaries": {"source": "import", "path": os.path.join(root, "boundaries.csv")},
        "shadows": {"source": "import", "path": os.path.join(root, "footprint.json")},
        "backend": {"kind": "import", "path": os.path.join(root, "prob.json")},
    }


def pgm_bytes(image: np.ndarray, path: str) -> bytes:
    write_pgm(image, path)
    with open(path, "rb") as fh:
        return fh.read()


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def tree_bytes(root: str) -> dict[str, bytes]:
    """Every file under `root`, by its path relative to `root`."""
    return {
        os.path.relpath(os.path.join(where, name), root): read_bytes(os.path.join(where, name))
        for where, _, names in os.walk(root)
        for name in names
    }


@settings(max_examples=12)
@given(
    seed=st.integers(0, 3),
    imported=st.booleans(),
    infusion=st.fixed_dictionaries({
        "use_longitudinal": st.booleans(),
        "use_transverse": st.booleans(),
        "transverse_dilation": st.integers(0, 2),
        "connectivity": st.sampled_from([6, 26]),
    }),
    report=st.fixed_dictionaries({"overlays": st.booleans(), "montage": st.booleans()}),
)
def test_written_outputs_equal_execute(seed, imported, infusion, report):
    phantom = {**PHANTOM, "seed": seed}
    with tempfile.TemporaryDirectory() as root:
        sections = write_imports(root, phantom) if imported else {"input": {"phantom": phantom}}
        out = os.path.join(root, "out")
        cfg = pipeline.PipelineConfig.from_dict(
            {**sections, "infusion": infusion, "report": report, "output_dir": out}
        )
        written = pipeline.run_to_files(cfg)
        # a second run into another directory writes the same files, byte for byte
        again = os.path.join(root, "again")
        pipeline.run_to_files(dataclasses.replace(cfg, output_dir=again))
        assert tree_bytes(again) == tree_bytes(out)
        result, volume, gt_mask = pipeline.execute(cfg)

        assert np.array_equal(read_volume(os.path.join(out, "mask")).data, result.mask.data)
        assert np.array_equal(read_volume(os.path.join(out, "prob")).data, result.probability.data)
        boundaries = read_boundaries(os.path.join(out, "boundaries.csv"))
        for name in BOUNDARY_NAMES:
            assert np.array_equal(boundaries[name], result.boundaries[name])

        want = os.path.join(root, "want.pgm")
        n_slices = volume.n_slices
        assert ("overlays" in written) == report["overlays"]
        if report["overlays"]:
            assert sorted(os.listdir(written["overlays"])) == [f"slice_{s:03d}.pgm" for s in range(n_slices)]
            for s in range(n_slices):
                got = read_bytes(os.path.join(written["overlays"], f"slice_{s:03d}.pgm"))
                assert got == pgm_bytes(overlay_reference(volume, result.mask, s), want), f"slice {s}"
        assert ("montage" in written) == report["montage"]
        if report["montage"]:
            step = max(1, n_slices // 8)
            panels = [overlay_reference(volume, result.mask, s) for s in range(0, n_slices, step)]
            assert read_bytes(written["montage"]) == pgm_bytes(np.hstack(panels), want)

        label = pipeline._variant_label(cfg.infusion)
        pipeline.write_metrics_csv(want, [score(label, result.mask, result.probability, gt_mask)])
        assert read_bytes(written["metrics"]) == read_bytes(want)


def written_files(written: dict[str, str], out: str) -> set[str]:
    """The files a `written` map names, by their paths relative to `out`:
    a grid's .json and .raw, and each file in the overlay directory."""
    files = set()
    for name, path in written.items():
        paths = [path, path[: -len(".json")] + ".raw"] if path.endswith(".json") else [path]
        if name == "overlays":
            paths = [os.path.join(path, n) for n in os.listdir(path)]
        files |= {os.path.relpath(p, out) for p in paths}
    return files


def disk_config(root: str, out: str, report: dict, ground_truth: bool = True,
                n_slices: int = 8) -> pipeline.PipelineConfig:
    """A seed-3 phantom of `n_slices` B-scans, its volume on disk, with its
    ground truth or none."""
    inputs = write_imports(root, {**PHANTOM, "dims": [n_slices, 96, 64], "seed": 3})["input"]
    if not ground_truth:
        del inputs["ground_truth_mask"]
    return pipeline.PipelineConfig.from_dict({"input": inputs, "output_dir": out, "report": report})


def test_a_rerun_writes_every_file_new_with_the_same_bytes(tmp_path):
    """Each output is hard-linked aside before the rerun; the rerun leaves
    the links' bytes alone and puts a new inode at each path."""
    out, held = str(tmp_path / "out"), str(tmp_path / "held")
    cfg = disk_config(str(tmp_path), out, {"overlays": True, "montage": True})
    files = written_files(pipeline.run_to_files(cfg), out)
    before = tree_bytes(out)
    inodes = {}
    for rel in files:
        os.makedirs(os.path.dirname(os.path.join(held, rel)), exist_ok=True)
        os.link(os.path.join(out, rel), os.path.join(held, rel))
        inodes[rel] = os.stat(os.path.join(held, rel)).st_ino
    assert written_files(pipeline.run_to_files(cfg), out) == files
    assert tree_bytes(out) == before and tree_bytes(held) == before
    renewed = [rel for rel in files if os.stat(os.path.join(out, rel)).st_ino != inodes[rel]]
    assert sorted(renewed) == sorted(files)


def test_a_symlink_at_an_output_path_is_replaced_not_written_through(tmp_path):
    out, want = str(tmp_path / "out"), str(tmp_path / "want")
    cfg = disk_config(str(tmp_path), want, {"overlays": True, "montage": True})
    files = written_files(pipeline.run_to_files(cfg), want)
    target = tmp_path / "target"
    target.write_bytes(b"not an output")
    for rel in files:
        os.makedirs(os.path.dirname(os.path.join(out, rel)), exist_ok=True)
        os.symlink(target, os.path.join(out, rel))
    pipeline.run_to_files(dataclasses.replace(cfg, output_dir=out))
    assert target.read_bytes() == b"not an output"
    assert not any(os.path.islink(os.path.join(out, rel)) for rel in files)
    assert tree_bytes(out) == tree_bytes(want)


def test_a_rerun_removes_the_report_files_it_does_not_write(tmp_path):
    """A run with ground truth, overlays and a montage, then one without any
    of them into the same directory: only the second run's files are left,
    with what `run` never writes. A rerun over a volume of fewer slices
    removes the overlays of the slices it lacks."""
    root, out = str(tmp_path), str(tmp_path / "out")
    pipeline.run_to_files(disk_config(root, out, {"overlays": True, "montage": True}))
    others = ["notes.txt", "overlays/notes.txt", "overlays/slice_0001.pgm", "overlays/slice_001.png"]
    for rel in others:
        with open(os.path.join(out, rel), "w") as fh:
            fh.write("not an output")
    written = pipeline.run_to_files(disk_config(root, out, {"overlays": False}, ground_truth=False))
    assert set(tree_bytes(out)) == written_files(written, out) | set(others)
    assert not {"metrics", "montage", "overlays"} & set(written)

    pipeline.run_to_files(disk_config(root, out, {"overlays": True}))
    written = pipeline.run_to_files(disk_config(root, out, {"overlays": True}, n_slices=5))
    assert sorted(os.listdir(written["overlays"])) == sorted(
        [f"slice_{s:03d}.pgm" for s in range(5)] + [os.path.basename(rel) for rel in others[1:]]
    )
