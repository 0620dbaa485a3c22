"""Command-line interface.

Subcommands: `phantom gen`, `run`, `ablate`, `eval`, plus the single-stage
commands `layers`, `enface`, `shadows`, and `vessels`. One JSON config
drives a full pipeline run; flags override config fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .cascade import VesselBackendConfig, vessel_probability
from .enface import ShadowConfig, project_rpe, segment_shadows
from .errors import OctCascadeError
from .fileio import open_new, write_boundaries, write_pgm, write_volume
from .layers import DpConfig, segment_boundaries
from .metrics import score
from .model import EnFaceImage, OctVolume, ProbabilityMap3D, VoxelMask
from .phantom import PhantomConfig, default_config, generate
from .pipeline import (
    PipelineConfig, StageError, _output, _stage, ablate, read_boundary_csv, read_config,
    read_imports, read_typed, run_to_files, write_metrics_csv,
)


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in filter(None, map(str.strip, text.split(","))):
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            if int(hi) < int(lo):
                raise argparse.ArgumentTypeError(f"seed range {part!r} runs backwards")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def cmd_phantom_gen(args) -> int:
    if args.config:
        cfg = read_config(args.config, PhantomConfig, "phantom config")
    else:
        cfg = default_config(args.scale)
    overrides = {"seed": args.seed, "n_vessels": args.n_vessels, "noise_sigma": args.noise_sigma}
    with _stage("phantom config"):
        cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        volume, gt = generate(cfg)
    out = args.out
    with _output(out):
        os.makedirs(out, exist_ok=True)
        write_volume(volume, os.path.join(out, "volume"))
        write_boundaries(gt.boundaries, os.path.join(out, "gt_boundaries.csv"))
        write_volume(gt.vessel_mask, os.path.join(out, "gt_vessel_mask"))
        write_volume(gt.shadow_footprint, os.path.join(out, "gt_shadow_footprint"))
        with open_new(os.path.join(out, "gt_centerlines.csv"), newline="") as fh:
            fh.write("vessel,slice,depth,column\n")
            for v, line in enumerate(gt.centerlines):
                for s in range(line.shape[0]):
                    fh.write(f"{v},{s},{line[s, 0]!r},{line[s, 1]!r}\n")
        with open_new(os.path.join(out, "phantom_config.json")) as fh:
            json.dump(cfg.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"phantom: dims={cfg.dims} n_vessels={cfg.n_vessels} seed={cfg.seed} -> {out}")
    return 0


def cmd_run(args) -> int:
    cfg = PipelineConfig.from_json(args.config)
    if args.out:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    written = run_to_files(cfg)
    for name in sorted(written):
        print(f"{name}: {written[name]}")
    return 0


def cmd_ablate(args) -> int:
    cfg = PipelineConfig.from_json(args.config)
    if args.out:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    ordered, means, written = ablate(cfg, args.seeds)
    for label, mean_iou in means:
        print(f"{label}: mean IoU {mean_iou:.4f}")
    print(f"aggregate: {written['aggregate']}")
    print(f"ORDERING: {'PASS' if ordered else 'FAIL'}")
    return 0 if ordered else 1


def cmd_eval(args) -> int:
    pred = read_typed(args.pred, VoxelMask, "prediction")
    gt = read_typed(args.gt, VoxelMask, "ground truth")
    prob = read_typed(args.prob, ProbabilityMap3D, "probability map") if args.prob else None
    for stage, path, grid in (("ground truth", args.gt, gt), ("probability map", args.prob, prob)):
        if grid is not None and grid.dims != pred.dims:
            raise StageError(stage, f"{path!r}: dims {grid.dims} != prediction dims {pred.dims}")
    report = score("eval", pred, prob, gt)
    path = os.path.join(args.out, "metrics.csv")
    with _output(args.out):
        os.makedirs(args.out, exist_ok=True)
    write_metrics_csv(path, [report])
    print(f"metrics: {path}")
    return 0


def cmd_layers(args) -> int:
    dp = read_config(args.config, DpConfig, "DP config") if args.config else DpConfig()
    volume = read_typed(args.infile, OctVolume, "input volume")
    with _stage("boundary segmentation"):
        boundaries = segment_boundaries(volume, dp)
    with _output(args.out):
        write_boundaries(boundaries, args.out)
    print(f"boundaries: {args.out}")
    return 0


def cmd_enface(args) -> int:
    volume = read_typed(args.infile, OctVolume, "input volume")
    boundaries = read_boundary_csv(args.boundaries, volume)
    with _stage("en-face projection"):
        image = project_rpe(volume, boundaries)
    with _output(args.out):  # the error names whichever file failed
        write_volume(image, args.out)
        if args.pgm:
            write_pgm(image.data, args.pgm)
    print(f"enface: {args.out}")
    return 0


def cmd_shadows(args) -> int:
    cfg = read_config(args.config, ShadowConfig, "shadow config") if args.config else ShadowConfig()
    image = read_typed(args.infile, EnFaceImage, "en-face image")
    with _stage("shadow segmentation"):
        mask, contrast = segment_shadows(image, cfg)
    with _output(args.out):
        write_volume(mask, args.out)
        if args.contrast:
            write_volume(EnFaceImage(np.clip(contrast, 0.0, 1.0)), args.contrast)
    print(f"shadow mask: {args.out}")
    return 0


def cmd_vessels(args) -> int:
    cfg = (read_config(args.config, VesselBackendConfig, "backend config") if args.config
           else VesselBackendConfig())
    volume = read_typed(args.infile, OctVolume, "input volume")
    boundaries = read_boundary_csv(args.boundaries, volume)
    prob = read_imports(volume.dims, backend_path=cfg.path)[2]
    if prob is None:
        with _stage("vessel scoring"):
            prob = vessel_probability(volume, boundaries, cfg)
    with _output(args.out):
        write_volume(prob, args.out)
    print(f"probability map: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oct-cascade",
        description="Anatomy-guided 3D retinal vessel extraction from volumetric OCT.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_phantom = sub.add_parser("phantom", help="synthetic volume tools")
    phantom_sub = p_phantom.add_subparsers(dest="phantom_command", required=True)
    p_gen = phantom_sub.add_parser("gen", help="generate a phantom volume with ground truth")
    p_gen.add_argument("--scale", choices=("desk", "paper"), default="desk")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--n-vessels", type=int, default=None)
    p_gen.add_argument("--noise-sigma", type=float, default=None)
    p_gen.add_argument("--config", help="phantom config JSON (overrides --scale)")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_phantom_gen)

    p_run = sub.add_parser("run", help="run the full cascade from a pipeline config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_ablate = sub.add_parser("ablate", help="run all four mask-flag variants across seeds")
    p_ablate.add_argument("--config", required=True)
    p_ablate.add_argument("--seeds", type=_parse_seeds, default=list(range(10)),
                          help="e.g. '0-9' or '0,3,7'")
    p_ablate.add_argument("--out", default=None)
    p_ablate.set_defaults(func=cmd_ablate)

    p_eval = sub.add_parser("eval", help="score a predicted mask against ground truth")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--prob", default=None)
    p_eval.add_argument("--out", default=".")
    p_eval.set_defaults(func=cmd_eval)

    p_layers = sub.add_parser("layers", help="trace retinal boundaries on a volume")
    p_layers.add_argument("--in", dest="infile", required=True)
    p_layers.add_argument("--out", required=True, help="boundaries CSV path")
    p_layers.add_argument("--config", help="DP config JSON")
    p_layers.set_defaults(func=cmd_layers)

    p_enface = sub.add_parser("enface", help="project the RPE band to an en-face image")
    p_enface.add_argument("--in", dest="infile", required=True)
    p_enface.add_argument("--boundaries", required=True)
    p_enface.add_argument("--out", required=True)
    p_enface.add_argument("--pgm", help="also write an 8-bit PGM")
    p_enface.set_defaults(func=cmd_enface)

    p_shadows = sub.add_parser("shadows", help="segment vessel shadows on an en-face image")
    p_shadows.add_argument("--in", dest="infile", required=True)
    p_shadows.add_argument("--out", required=True)
    p_shadows.add_argument("--contrast", help="also write the soft contrast map")
    p_shadows.add_argument("--config", help="shadow config JSON")
    p_shadows.set_defaults(func=cmd_shadows)

    p_vessels = sub.add_parser("vessels", help="compute the vessel probability map")
    p_vessels.add_argument("--in", dest="infile", required=True)
    p_vessels.add_argument("--boundaries", required=True)
    p_vessels.add_argument("--out", required=True)
    p_vessels.add_argument("--config", help="backend config JSON")
    p_vessels.set_defaults(func=cmd_vessels)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OctCascadeError as exc:  # a StageError's message starts with its stage
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
