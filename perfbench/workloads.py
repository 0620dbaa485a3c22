"""Workload inputs, the program call each workload times, and output checks.

Inputs are generated from the workload seed in a separate process before
timing starts; the program sees only the files and configs written here.
Checks recompute every intermediate result in memory, compare it against
phantom ground truth and against the files the timed calls wrote, and
return the quality figures the benchmark reports.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import sys

import numpy as np
from scipy import ndimage

from oct_cascade import fileio, pipeline
from oct_cascade.cascade import run_cascade
from oct_cascade.layers import segment_boundaries
from oct_cascade.metrics import auc, confusion
from oct_cascade.model import BOUNDARY_NAMES, ProbabilityMap3D
from oct_cascade.phantom import default_config, generate


@dataclasses.dataclass(frozen=True)
class Input:
    """One volume of a workload: its pipeline config and ground truth."""

    index: int
    seed: int
    config: str
    output_dir: str
    gt_boundaries: str | None


@dataclasses.dataclass
class Check:
    """Outcome of checking one input's outputs."""

    errors: list[str]
    iou: float = float("nan")
    auc: float = float("nan")
    boundary_mae_vox: float = float("nan")


def make_inputs(spec: dict, workload_seed: int, work_dir: str) -> list[Input]:
    """Write every input of a workload under work_dir and describe them."""
    os.makedirs(work_dir, exist_ok=True)
    scale = spec["phantom"]["scale"]
    n_slices = spec["phantom"]["n_slices"]
    inputs = []
    for k in range(spec["inputs"]):
        seed = 1000 * workload_seed + k  # distinct phantoms across workload seeds
        base = os.path.join(work_dir, f"in{k}")
        os.makedirs(base, exist_ok=True)
        out_dir = os.path.join(base, "out")
        phantom_cfg = default_config(scale, n_slices=n_slices, seed=seed)
        gt_path = None
        if spec["entry"] == "pipeline.ablate":
            config = {"input": {"phantom": phantom_cfg.to_dict()}, "output_dir": out_dir}
        else:
            volume, gt = generate(phantom_cfg)
            fileio.write_volume(volume, os.path.join(base, "volume"))
            fileio.write_volume(gt.vessel_mask, os.path.join(base, "gt_mask"))
            gt_path = os.path.join(base, "gt_boundaries.npz")
            np.savez(gt_path, **{name: gt.boundaries[name] for name in BOUNDARY_NAMES})
            config = {
                "input": {
                    "volume": os.path.join(base, "volume.json"),
                    "ground_truth_mask": os.path.join(base, "gt_mask.json"),
                },
                "output_dir": out_dir,
                "report": {"overlays": True},
            }
            if "boundaries" in spec["imports"]:
                path = os.path.join(base, "boundaries.csv")
                fileio.write_boundaries(gt.boundaries, path)
                config["boundaries"] = {"source": "import", "path": path}
            if "probability" in spec["imports"]:
                path = os.path.join(base, "prob")
                fileio.write_volume(_stand_in_probability(gt.vessel_mask.data, seed, spec), path)
                config["backend"] = {"kind": "import", "path": path + ".json"}
        config_path = os.path.join(base, "pipeline.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh, indent=1)
        inputs.append(Input(k, seed, config_path, out_dir, gt_path))
    return inputs


def _stand_in_probability(vessels: np.ndarray, seed: int, spec: dict) -> ProbabilityMap3D:
    """A noisy external network's output: vessel_level on true vessel
    voxels plus Gaussian noise everywhere, clipped to [0, 1]."""
    args = spec["probability"]
    rng = np.random.default_rng([seed, 1])
    p = args["vessel_level"] * vessels + rng.normal(0.0, args["noise_sigma"], vessels.shape)
    return ProbabilityMap3D(np.clip(p, 0.0, 1.0).astype(np.float32))


def call(spec: dict, inp: Input) -> None:
    """The timed program call for one volume."""
    cfg = pipeline.PipelineConfig.from_json(inp.config)
    if spec["entry"] == "pipeline.ablate":
        pipeline.ablate(cfg, [inp.seed])
    else:
        pipeline.run_to_files(cfg)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check(spec: dict, inp: Input, tolerance_vox: float) -> Check:
    """Recompute one input in memory and check it and the written files.

    The first input of a run_to_files workload is recomputed from scratch.
    The others reuse the boundaries the timed call wrote, which are checked
    against ground truth, so that checking does not repeat every DP trace.
    """
    try:
        cfg = pipeline.PipelineConfig.from_json(inp.config)
        if spec["entry"] == "pipeline.ablate":
            return _check_ablation(cfg, inp, tolerance_vox)
        return _check_run(cfg, inp, tolerance_vox, full=inp.index == 0)
    except Exception as exc:  # the check itself failing fails the input
        return Check([f"check raised {type(exc).__name__}: {exc}"])


def _fmt(value: float) -> str:
    return format(value, ".10g")


def _scores(mask, probability, gt_mask) -> tuple[float, float, float, float]:
    c = confusion(mask, gt_mask)
    iou = c.tp / (c.tp + c.fp + c.fn) if c.tp + c.fp + c.fn else 1.0
    sen = c.tp / (c.tp + c.fn) if c.tp + c.fn else 1.0
    acc = (c.tp + c.tn) / c.total
    return iou, sen, acc, auc(probability, gt_mask)


def _check_ablation(cfg, inp: Input, tolerance_vox: float) -> Check:
    volume, gt = generate(cfg.phantom)
    boundaries = segment_boundaries(volume, cfg.dp)
    errors, mae = _check_boundaries(boundaries, gt.boundaries, tolerance_vox)
    rows = _read_csv(os.path.join(inp.output_dir, "ablation_runs.csv"))
    written = {row["method"]: row for row in rows}
    result = Check(errors, boundary_mae_vox=mae)
    for label, use_l, use_t in pipeline.VARIANTS:
        infusion = dataclasses.replace(cfg.infusion, use_longitudinal=use_l, use_transverse=use_t)
        r = run_cascade(
            volume, boundaries=boundaries, backend_cfg=cfg.backend,
            infusion_cfg=infusion, shadow_cfg=cfg.shadow,
        )
        errors += [f"{label}: {e}" for e in _check_result(r, infusion)]
        iou, sen, acc, auc_value = _scores(r.mask, r.probability, gt.vessel_mask)
        expected = {"seed": str(inp.seed), "iou": _fmt(iou), "sen": _fmt(sen),
                    "acc": _fmt(acc), "auc": _fmt(auc_value)}
        row = written.get(label, {})
        for key, value in expected.items():
            if row.get(key) != value:
                errors.append(f"ablation_runs.csv {label} {key}={row.get(key)!r}, expected {value}")
        if (use_l, use_t) == (True, True):
            result.iou, result.auc = iou, auc_value
    return result


def _check_run(cfg, inp: Input, tolerance_vox: float, full: bool) -> Check:
    out = inp.output_dir
    if not full and cfg.boundary_source == "classical":
        cfg = dataclasses.replace(
            cfg, boundary_source="import", boundary_import_path=os.path.join(out, "boundaries.csv")
        )
    r, volume, gt_mask = pipeline.execute(cfg)
    gt = np.load(inp.gt_boundaries)
    errors, mae = _check_boundaries(r.boundaries, gt, tolerance_vox)
    errors += _check_result(r, cfg.infusion)
    if not np.array_equal(_read_grid(os.path.join(out, "mask")), r.mask.data.astype(np.uint8)):
        errors.append("mask.raw differs from the in-memory mask")
    if not np.array_equal(_read_grid(os.path.join(out, "prob")), r.probability.data):
        errors.append("prob.raw differs from the in-memory probability map")
    if not _boundaries_equal(os.path.join(out, "boundaries.csv"), r.boundaries):
        errors.append("boundaries.csv differs from the in-memory boundaries")
    if not np.array_equal(_read_pgm(os.path.join(out, "shadow_mask.pgm")), r.shadow_mask.data * np.uint8(255)):
        errors.append("shadow_mask.pgm differs from the in-memory shadow mask")
    n_overlays = len(os.listdir(os.path.join(out, "overlays")))
    if n_overlays != volume.n_slices:
        errors.append(f"{n_overlays} overlay images for {volume.n_slices} slices")
    iou, sen, acc, auc_value = _scores(r.mask, r.probability, gt_mask)
    row = _read_csv(os.path.join(out, "metrics.csv"))[0]
    for key, value in (("iou", iou), ("sen", sen), ("acc", acc), ("auc", auc_value)):
        if row.get(key) != _fmt(value):
            errors.append(f"metrics.csv {key}={row.get(key)!r}, expected {_fmt(value)}")
    return Check(errors, iou=iou, auc=auc_value, boundary_mae_vox=mae)


def _check_boundaries(b, gt, tolerance_vox: float) -> tuple[list[str], float]:
    """Anatomical order everywhere, and each surface's mean depth error
    within the acceptance suite's tolerance."""
    errors = []
    for upper, lower in zip(BOUNDARY_NAMES, BOUNDARY_NAMES[1:]):
        if (b[upper] > b[lower]).any():
            errors.append(f"boundary {upper} lies below {lower}")
    maes = [float(np.mean(np.abs(b[name] - gt[name]))) for name in BOUNDARY_NAMES]
    for name, mae in zip(BOUNDARY_NAMES, maes):
        if mae > tolerance_vox:
            errors.append(f"boundary {name} mean error {mae:.3f} > {tolerance_vox} voxels")
    return errors, float(np.mean(maes))


def _check_result(r, infusion) -> list[str]:
    """Probabilities in [0, 1] and the final mask inside every enabled prior."""
    errors = []
    for what, p in (("raw", r.raw_probability.data), ("infused", r.probability.data)):
        if not (np.isfinite(p).all() and p.min() >= 0.0 and p.max() <= 1.0):
            errors.append(f"{what} probability outside [0, 1]")
    mask = r.mask.data
    if (mask & ~(r.probability.data > infusion.binarize_threshold)).any():
        errors.append("mask voxel at or below the binarization threshold")
    if infusion.use_longitudinal:
        z = np.arange(mask.shape[1])[None, :, None]
        band = (z >= np.ceil(r.boundaries["ILM"])[:, None, :]) & (
            z <= np.floor(r.boundaries["INL_LOWER"])[:, None, :]
        )
        if (mask & ~band).any():
            errors.append("mask voxel outside the ILM-INL band")
    if infusion.use_transverse:
        footprint = r.shadow_mask.data
        d = infusion.transverse_dilation
        if d > 0:
            footprint = ndimage.binary_dilation(footprint, structure=np.ones((2 * d + 1,) * 2, bool))
        if (mask & ~footprint[:, None, :]).any():
            errors.append("mask voxel outside the shadow footprint")
    return errors


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _read_grid(base: str) -> np.ndarray:
    with open(base + ".json") as fh:
        header = json.load(fh)
    dtype = "<f4" if header["dtype"] == "float32" else np.uint8
    return np.fromfile(base + ".raw", dtype=dtype).reshape(header["dims"])


def _read_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic, size, maxval = fh.readline(), fh.readline().split(), fh.readline()
        if magic != b"P5\n" or maxval != b"255\n":
            return np.zeros(0, np.uint8)
        width, height = int(size[0]), int(size[1])
        return np.frombuffer(fh.read(), np.uint8).reshape(height, width)


def _boundaries_equal(path: str, b) -> bool:
    n_slices, width = b.shape
    got = {name: np.full((n_slices, width), np.nan) for name in BOUNDARY_NAMES}
    for row in _read_csv(path):
        got[row["boundary"]][int(row["slice"]), int(row["column"])] = float(row["depth"])
    return all(np.array_equal(got[name], b[name]) for name in BOUNDARY_NAMES)


# ---------------------------------------------------------------------------
# child-process entry point
# ---------------------------------------------------------------------------

def main() -> None:
    """Read one request as JSON on stdin and answer on stdout.

    {"op": "setup", "spec": ..., "seed": n, "work_dir": path} -> inputs
    {"op": "check", "spec": ..., "tolerance_vox": t, "inputs": [...]} -> checks
    """
    request = json.load(sys.stdin)
    spec = request["spec"]
    if request["op"] == "setup":
        inputs = make_inputs(spec, request["seed"], request["work_dir"])
        answer = [dataclasses.asdict(inp) for inp in inputs]
    else:
        inputs = [Input(**inp) for inp in request["inputs"]]
        answer = [dataclasses.asdict(check(spec, inp, request["tolerance_vox"])) for inp in inputs]
    json.dump(answer, sys.stdout)


if __name__ == "__main__":
    main()
