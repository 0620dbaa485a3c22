"""Configuration-driven pipeline runs, reports, and the ablation driver.

A single JSON config names the input (a phantom config or a volume on
disk), the source of each stage (classical computation or an imported
file), the backend, the infusion flags, and the output directory. Every
command overwrites its outputs deterministically: running twice with the
same config and seed produces identical bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .cascade import (
    CascadeResult,
    InfusionConfig,
    VesselBackendConfig,
    binarize_and_label,
    infuse,
    longitudinal_mask,
    run_cascade,
    transverse_mask,
    vessel_probability,
)
from .enface import ShadowConfig, project_rpe, segment_shadows
from .errors import ConfigError, OctCascadeError, UndefinedAucError
from .fileio import ensure_dir, write_boundaries, write_pgm, write_volume, read_volume
from .layers import DpConfig, import_boundaries, segment_boundaries
from .metrics import MetricsReport, auc, build_report, confusion
from .model import OctVolume, PixelMask, VoxelMask
from .phantom import PhantomConfig, PhantomGroundTruth, generate

#: Ablation variants in reporting order: (label, use_longitudinal, use_transverse).
VARIANTS = (
    ("base", False, False),
    ("+longitudinal", True, False),
    ("+transverse", False, True),
    ("+longitudinal+transverse", True, True),
)

_POOLING_NOTE = "# voxel-pooled metrics per volume; aggregate rows average over volumes"


class StageError(OctCascadeError):
    """Failure attributed to a named pipeline stage."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"{stage}: {message}")


@dataclass(frozen=True)
class PipelineConfig:
    phantom: PhantomConfig | None = None
    volume_path: str | None = None
    gt_mask_path: str | None = None
    boundary_source: str = "classical"       # classical | import
    boundary_import_path: str | None = None
    shadow_source: str = "classical"         # classical | import
    shadow_import_path: str | None = None
    dp: DpConfig = field(default_factory=DpConfig)
    shadow: ShadowConfig = field(default_factory=ShadowConfig)
    backend: VesselBackendConfig = field(default_factory=VesselBackendConfig)
    infusion: InfusionConfig = field(default_factory=InfusionConfig)
    output_dir: str = "out"
    overlays: bool = True
    montage: bool = False

    def __post_init__(self):
        if (self.phantom is None) == (self.volume_path is None):
            raise StageError("input", "config must name exactly one of phantom or volume")
        for source, path, stage in (
            (self.boundary_source, self.boundary_import_path, "boundary source"),
            (self.shadow_source, self.shadow_import_path, "shadow source"),
        ):
            if source not in ("classical", "import"):
                raise StageError(stage, f"unknown source {source!r}")
            if source == "import" and not path:
                raise StageError(stage, "import source requires a path")

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        d = dict(d)
        kwargs: dict = {}

        inp = d.pop("input", None)
        if not isinstance(inp, dict):
            raise StageError("input", "config requires an 'input' section")
        if ("phantom" in inp) == ("volume" in inp):
            raise StageError("input", "input must contain exactly one of 'phantom' or 'volume'")
        if "phantom" in inp:
            kwargs["phantom"] = PhantomConfig.from_dict(_object(inp["phantom"], "phantom", "input"))
        else:
            kwargs["volume_path"] = _path(inp["volume"], "volume", "input volume")
            kwargs["gt_mask_path"] = _path(
                inp.get("ground_truth_mask"), "ground_truth_mask", "ground truth", optional=True
            )

        for key, stage in (("boundaries", "boundary source"), ("shadows", "shadow source")):
            sec = _section(d, key, stage)
            source = sec.get("source", "classical")
            prefix = "boundary" if key == "boundaries" else "shadow"
            kwargs[f"{prefix}_source"] = source
            if source == "import":
                kwargs[f"{prefix}_import_path"] = _path(sec.get("path"), "path", stage, optional=True)
            elif set(sec) - {"source", "config", "dp"}:
                raise StageError(stage, f"unknown keys {sorted(set(sec) - {'source', 'config', 'dp'})}")
            if key == "boundaries" and "dp" in sec:
                kwargs["dp"] = DpConfig.from_dict(_object(sec["dp"], "dp", stage))
            if key == "shadows" and "config" in sec:
                kwargs["shadow"] = ShadowConfig.from_dict(_object(sec["config"], "config", stage))

        backend = _section(d, "backend", "backend")
        for key in ("path", "import_path"):
            _path(backend.get(key), key, "backend", optional=True)
        kwargs["backend"] = VesselBackendConfig.from_dict(backend)
        kwargs["infusion"] = InfusionConfig.from_dict(_section(d, "infusion", "infusion"))
        if "output_dir" in d:
            kwargs["output_dir"] = _path(d.pop("output_dir"), "output_dir", "output")
        report = _section(d, "report", "report")
        kwargs["overlays"] = bool(report.get("overlays", True))
        kwargs["montage"] = bool(report.get("montage", False))
        if d:
            raise ConfigError(f"unknown pipeline config sections {sorted(d)}")
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str) -> "PipelineConfig":
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except OSError as exc:
            raise ConfigError(f"cannot read pipeline config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed pipeline config {path!r}: {exc}") from exc

    def with_seed(self, seed: int) -> "PipelineConfig":
        if self.phantom is None:
            raise StageError("input", "seed override requires a phantom input")
        phantom = PhantomConfig.from_dict({**self.phantom.to_dict(), "seed": seed})
        return _replace(self, phantom=phantom)

    def with_output_dir(self, out: str) -> "PipelineConfig":
        return _replace(self, output_dir=out)


def _section(d: dict, key: str, stage: str) -> dict:
    """Pop an optional config section; present and not null, it must be an object."""
    sec = d.pop(key, None)
    return {} if sec is None else _object(sec, key, stage)


def _object(sec, key: str, stage: str) -> dict:
    if not isinstance(sec, dict):
        raise StageError(stage, f"'{key}' section must be a JSON object, got {sec!r}")
    return sec


def _path(value, key: str, stage: str, optional: bool = False) -> str | None:
    """A path field's value: a non-empty string, or null where optional."""
    if value is None and optional:
        return None
    if not isinstance(value, str) or not value:
        raise StageError(stage, f"'{key}' must be a path string, got {value!r}")
    return value


def _replace(cfg: PipelineConfig, **changes) -> PipelineConfig:
    return dataclasses.replace(cfg, **changes)


def _fmt(v: float | None) -> str:
    return "NA" if v is None else format(v, ".10g")


def write_metrics_csv(path: str, reports: list[MetricsReport]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_POOLING_NOTE + "\n")
        writer = csv.writer(fh)
        writer.writerow(["method", "iou", "sen", "acc", "auc", "flags"])
        for r in reports:
            writer.writerow(
                [r.method, _fmt(r.iou), _fmt(r.sen), _fmt(r.acc), _fmt(r.auc), ";".join(r.flags)]
            )


def _read_grid(path: str, stage: str):
    """read_volume with a missing or corrupt file reported as `stage`'s."""
    if not os.path.exists(path) and not os.path.exists(path + ".json"):
        raise StageError(stage, f"no such file {path!r}")
    try:
        return read_volume(path)
    except OctCascadeError as exc:
        raise StageError(stage, str(exc)) from exc


def _resolve_input(cfg: PipelineConfig) -> tuple[OctVolume, PhantomGroundTruth | None, VoxelMask | None]:
    if cfg.phantom is not None:
        volume, gt = generate(cfg.phantom)
        return volume, gt, gt.vessel_mask
    value = _read_grid(cfg.volume_path, "input volume")
    if not isinstance(value, OctVolume):
        raise StageError("input volume", f"{cfg.volume_path!r} is not an intensity volume")
    gt_mask = None
    if cfg.gt_mask_path:
        gt_value = _read_grid(cfg.gt_mask_path, "ground truth")
        if not isinstance(gt_value, VoxelMask):
            raise StageError("ground truth", f"{cfg.gt_mask_path!r} is not a voxel mask")
        gt_mask = gt_value
    return value, None, gt_mask


def _resolve_boundaries(cfg: PipelineConfig, volume: OctVolume):
    if cfg.boundary_source == "import":
        if not os.path.exists(cfg.boundary_import_path):
            raise StageError("boundary source", f"no such file {cfg.boundary_import_path!r}")
        try:
            return import_boundaries(cfg.boundary_import_path, volume)
        except OctCascadeError as exc:
            raise StageError("boundary source", str(exc)) from exc
    try:
        return segment_boundaries(volume, cfg.dp)
    except OctCascadeError as exc:
        raise StageError("boundary segmentation", str(exc)) from exc


def _resolve_shadow_mask(cfg: PipelineConfig) -> PixelMask | None:
    if cfg.shadow_source != "import":
        return None
    path = cfg.shadow_import_path
    value = _read_grid(path, "shadow source")
    if not isinstance(value, PixelMask):
        raise StageError("shadow source", f"{path!r} is not a 2D mask")
    return value


def execute(cfg: PipelineConfig) -> tuple[CascadeResult, OctVolume, VoxelMask | None]:
    """Resolve sources and run the cascade once. No files are written."""
    volume, _, gt_mask = _resolve_input(cfg)
    boundaries = _resolve_boundaries(cfg, volume)
    shadow_mask = _resolve_shadow_mask(cfg)
    if cfg.backend.kind == "import":
        path = cfg.backend.import_path
        if not os.path.exists(path) and not os.path.exists(path + ".json"):
            raise StageError("backend", f"no such file {path!r}")
    try:
        result = run_cascade(
            volume,
            boundaries=boundaries,
            shadow_source=shadow_mask,
            backend_cfg=cfg.backend,
            infusion_cfg=cfg.infusion,
            dp_cfg=cfg.dp,
            shadow_cfg=cfg.shadow,
        )
    except OctCascadeError as exc:
        raise StageError("cascade", str(exc)) from exc
    return result, volume, gt_mask


def _variant_label(inf: InfusionConfig) -> str:
    for label, use_l, use_t in VARIANTS:
        if (use_l, use_t) == (inf.use_longitudinal, inf.use_transverse):
            return label
    return "custom"


def _overlay(volume: OctVolume, mask: VoxelMask, s: int) -> np.ndarray:
    img = volume.data[s].astype(np.float64)
    img[mask.data[s]] = 1.0
    return img


def run_to_files(cfg: PipelineConfig) -> dict[str, str]:
    """Run the configured cascade and write the report files.

    Returns a name -> path map of everything written.
    """
    result, volume, gt_mask = execute(cfg)
    out = cfg.output_dir
    ensure_dir(out)
    written: dict[str, str] = {}

    def path(name: str) -> str:
        return os.path.join(out, name)

    write_volume(result.mask, path("mask"))
    written["mask"] = path("mask.json")
    write_volume(result.probability, path("prob"))
    written["prob"] = path("prob.json")
    write_boundaries(result.boundaries, path("boundaries.csv"))
    written["boundaries"] = path("boundaries.csv")
    write_pgm(result.enface.data, path("enface.pgm"))
    written["enface"] = path("enface.pgm")
    write_pgm(result.shadow_mask.data, path("shadow_mask.pgm"))
    written["shadow_mask"] = path("shadow_mask.pgm")

    if cfg.overlays:
        overlay_dir = path("overlays")
        ensure_dir(overlay_dir)
        for s in range(volume.n_slices):
            write_pgm(_overlay(volume, result.mask, s), os.path.join(overlay_dir, f"slice_{s:03d}.pgm"))
        written["overlays"] = overlay_dir
    if cfg.montage:
        step = max(1, volume.n_slices // 8)
        panels = [_overlay(volume, result.mask, s) for s in range(0, volume.n_slices, step)]
        write_pgm(np.hstack(panels), path("montage.pgm"))
        written["montage"] = path("montage.pgm")

    if gt_mask is not None:
        try:
            auc_value = auc(result.probability, gt_mask)
        except UndefinedAucError:
            auc_value = None
        report = build_report(_variant_label(cfg.infusion), confusion(result.mask, gt_mask), auc_value)
        write_metrics_csv(path("metrics.csv"), [report])
        written["metrics"] = path("metrics.csv")
    return written


def ablate(cfg: PipelineConfig, seeds: list[int]) -> tuple[bool, list[tuple[str, float]], dict[str, str]]:
    """Run the four mask-flag combinations across seeds and aggregate.

    The per-seed stage outputs (boundaries, en-face, shadows, probability
    map) are computed once and shared by all four variants. Returns
    (ordering_ok, [(variant, mean IoU)], written files).
    """
    if cfg.phantom is None:
        raise StageError("input", "ablation requires a phantom input (ground truth needed)")
    if not seeds:
        raise StageError("input", "ablation requires at least one seed")

    out = cfg.output_dir
    ensure_dir(out)
    rows: list[tuple[int, MetricsReport]] = []
    per_variant: dict[str, dict[str, list[float]]] = {
        label: {"iou": [], "sen": [], "acc": [], "auc": []} for label, _, _ in VARIANTS
    }

    for seed in seeds:
        run_cfg = cfg.with_seed(seed)
        volume, gt, _ = _resolve_input(run_cfg)
        boundaries = _resolve_boundaries(run_cfg, volume)
        image = project_rpe(volume, boundaries)
        imported = _resolve_shadow_mask(run_cfg)
        shadow_mask, contrast = segment_shadows(image, run_cfg.shadow)
        if imported is not None:
            shadow_mask = imported
        prob = vessel_probability(volume, boundaries, contrast, run_cfg.backend)
        lm = longitudinal_mask(boundaries, volume.dims)
        tm = transverse_mask(shadow_mask, volume.dims, run_cfg.infusion.transverse_dilation)

        for label, use_l, use_t in VARIANTS:
            infused = infuse(prob, lm if use_l else None, tm if use_t else None)
            mask, _ = binarize_and_label(infused, run_cfg.infusion)
            try:
                auc_value = auc(infused, gt.vessel_mask)
            except UndefinedAucError:
                auc_value = None
            report = build_report(label, confusion(mask, gt.vessel_mask), auc_value)
            rows.append((seed, report))
            stats = per_variant[label]
            stats["iou"].append(report.iou)
            stats["sen"].append(report.sen)
            stats["acc"].append(report.acc)
            if report.auc is not None:
                stats["auc"].append(report.auc)

    runs_path = os.path.join(out, "ablation_runs.csv")
    with open(runs_path, "w", newline="") as fh:
        fh.write(_POOLING_NOTE + "\n")
        writer = csv.writer(fh)
        writer.writerow(["seed", "method", "iou", "sen", "acc", "auc", "flags"])
        for seed, r in rows:
            writer.writerow(
                [seed, r.method, _fmt(r.iou), _fmt(r.sen), _fmt(r.acc), _fmt(r.auc), ";".join(r.flags)]
            )

    agg_path = os.path.join(out, "ablation.csv")
    means: list[tuple[str, float]] = []
    with open(agg_path, "w", newline="") as fh:
        fh.write(_POOLING_NOTE + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["variant", "iou_mean", "iou_std", "sen_mean", "sen_std",
             "acc_mean", "acc_std", "auc_mean", "auc_std"]
        )
        for label, _, _ in VARIANTS:
            stats = per_variant[label]
            row = [label]
            for key in ("iou", "sen", "acc", "auc"):
                vals = stats[key]
                if vals:
                    row += [_fmt(float(np.mean(vals))), _fmt(float(np.std(vals)))]
                else:
                    row += ["NA", "NA"]
            writer.writerow(row)
            means.append((label, float(np.mean(stats["iou"]))))

    ordered = all(means[i][1] < means[i + 1][1] for i in range(len(means) - 1))
    return ordered, means, {"runs": runs_path, "aggregate": agg_path}
