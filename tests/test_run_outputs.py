"""What `run_to_files` writes equals the in-memory cascade of `execute`,
over drawn configs: classical or imported sources, the infusion flags and
the report images; a second run writes the same files byte for byte. `run_to_files` frees the volume after `prepare` and
draws its overlays from 8-bit gray levels, so each overlay and the montage
are checked against `write_pgm` of the float64 overlay that B-scan's
intensities give, white where the mask is set."""

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
