"""Configuration-driven pipeline runs, reports, and the ablation driver.

A single JSON config names the input (a phantom config or a volume on
disk), the source of each stage (classical computation or an imported
file), the backend, the infusion flags, and the output directory. Every
command writes each output as a new file, deterministically: running twice
with the same config and seed produces identical bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cascade import (
    CascadeResult,
    InfusionConfig,
    Prepared,
    VesselBackendConfig,
    binarize_and_label,
    extract,
    gather_priors,
    place,
    prepare,
)
from .config import FromDict, Path, _checked, field_types, to_json
from .enface import ShadowConfig
from .errors import OctCascadeError, ValidationError
from .fileio import (
    grid_header, open_new, read_boundaries, read_volume, remove_file, write_boundaries,
    write_pgm, write_volume,
)
from .layers import DpConfig, segment_boundaries
from .metrics import MetricsReport, score
from .model import BoundarySet, OctVolume, PixelMask, ProbabilityMap3D, VoxelMask
from .phantom import PhantomConfig, generate

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
        self.stage, self.message = stage, message
        super().__init__(f"{stage}: {message}")


@contextmanager
def _stage(name: str):
    """Re-raise a package error or a failed allocation from the block as a
    StageError of `name`."""
    try:
        yield
    except StageError:
        raise
    except OctCascadeError as exc:
        raise StageError(name, str(exc)) from exc
    except MemoryError as exc:
        raise StageError(name, f"out of memory: {str(exc) or 'an allocation failed'}") from exc


@contextmanager
def _output(path: str):
    """Re-raise a failure to write in the block as a StageError of stage
    `output` naming the file (`path`, where the error names none)."""
    try:
        yield
    except OSError as exc:
        raise StageError("output", f"cannot write {exc.filename or path!r}: {exc.strerror or exc}") from exc


@dataclass(frozen=True)
class ReportConfig(FromDict):
    """Which optional images `run` writes next to the masks."""

    section = "report config"

    overlays: bool = True
    montage: bool = False


def _at(section: str | None, key: str, stage: str, default=None):
    """A PipelineConfig field held at `section`'s `key` (a top-level key when
    `section` is None), whose faults are StageErrors of `stage`."""
    return field(default=default, metadata={"at": (section, key, stage)})


@dataclass(frozen=True)
class PipelineConfig:
    """One run's JSON config, flat. Each field declares where it lives in
    the JSON object; `from_dict` and `to_dict` both read that layout. A
    section's own faults (not an object, unknown keys) go to the stage of
    its first field."""

    phantom: PhantomConfig | None = _at("input", "phantom", "input")
    volume_path: Path | None = _at("input", "volume", "input volume")
    gt_mask_path: Path | None = _at("input", "ground_truth_mask", "ground truth")
    boundary_source: str = _at("boundaries", "source", "boundary source", "classical")  # | import
    boundary_import_path: Path | None = _at("boundaries", "path", "boundary source")
    dp: DpConfig = _at("boundaries", "dp", "boundary source", DpConfig())
    shadow_source: str = _at("shadows", "source", "shadow source", "classical")  # | import
    shadow_import_path: Path | None = _at("shadows", "path", "shadow source")
    shadow: ShadowConfig = _at("shadows", "config", "shadow source", ShadowConfig())
    backend: VesselBackendConfig = _at(None, "backend", "backend", VesselBackendConfig())
    infusion: InfusionConfig = _at(None, "infusion", "infusion", InfusionConfig())
    output_dir: Path = _at(None, "output_dir", "output", "out")
    report: ReportConfig = _at(None, "report", "report", ReportConfig())

    def __post_init__(self):
        if (self.phantom is None) == (self.volume_path is None):
            raise StageError("input", "config must name exactly one of phantom or volume")
        if self.phantom is not None and self.gt_mask_path is not None:
            raise StageError("ground truth", "a phantom input takes no ground_truth_mask")
        for source, path, stage in (
            (self.boundary_source, self.boundary_import_path, "boundary source"),
            (self.shadow_source, self.shadow_import_path, "shadow source"),
        ):
            if source not in ("classical", "import"):
                raise StageError(stage, f"unknown source {source!r}")
            if (source == "import") != bool(path):
                raise StageError(stage, f"{source} source {'takes no' if path else 'requires a'} path")

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        hints = field_types(cls)
        layout: dict = {}  # section (None for the top level) -> {key: field}
        for f in dataclasses.fields(cls):
            layout.setdefault(f.metadata["at"][0], {})[f.metadata["at"][1]] = f
        kwargs: dict = {}
        for section, fields in layout.items():
            known = set(fields)
            if section is None:
                sec, stage = d, "pipeline config"
                known |= set(layout)
            else:
                sec, stage = d.get(section, {}), next(iter(fields.values())).metadata["at"][2]
                if not isinstance(sec, dict):
                    raise StageError(stage, f"'{section}' section must be a JSON object, got {sec!r}")
            if set(sec) - known:
                raise StageError(stage, f"unknown keys {sorted(set(sec) - known)}")
            for key, f in fields.items():
                if key in sec:
                    with _stage(f.metadata["at"][2]):
                        kwargs[f.name] = _checked(sec[key], hints[f.name], f"'{key}'")
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """The JSON object that `from_dict` reads back as an equal config."""
        d: dict = {}
        for f in dataclasses.fields(self):
            section, key, _ = f.metadata["at"]
            (d if section is None else d.setdefault(section, {}))[key] = to_json(getattr(self, f.name))
        return d

    @classmethod
    def from_json(cls, path: str) -> "PipelineConfig":
        return read_config(path, cls, "pipeline config")

    def with_seed(self, seed: int) -> "PipelineConfig":
        if self.phantom is None:
            raise StageError("input", "seed override requires a phantom input")
        return dataclasses.replace(self, phantom=dataclasses.replace(self.phantom, seed=seed))


def _fmt(v: float | None) -> str:
    return "NA" if v is None else format(v, ".10g")


_REPORT_HEADER = ["method", "iou", "sen", "acc", "auc", "flags"]


def _report_row(r: MetricsReport) -> list[str]:
    return [r.method, _fmt(r.iou), _fmt(r.sen), _fmt(r.acc), _fmt(r.auc), ";".join(r.flags)]


def _write_pooled_csv(path: str, header: list[str], rows) -> None:
    """A metrics CSV: the pooling note, then `header` and `rows`."""
    with _output(path), open_new(path, newline="") as fh:
        fh.write(_POOLING_NOTE + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_metrics_csv(path: str, reports: list[MetricsReport]) -> None:
    _write_pooled_csv(path, _REPORT_HEADER, (_report_row(r) for r in reports))


def read_json(path: str, stage: str) -> dict:
    """The JSON object in `path`; any failure to get one is `stage`'s StageError."""
    try:
        with open(path) as fh:
            value = json.load(fh)
    except OSError as exc:
        raise StageError(stage, f"cannot read {path!r}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # malformed, too deeply nested or not text
        raise StageError(stage, f"malformed JSON in {path!r}: {exc}") from exc
    if not isinstance(value, dict):
        raise StageError(stage, f"{path!r} does not hold a JSON object")
    return value


def read_config(path: str, cls: type, stage: str):
    """The `cls` config (anything with a `from_dict`) in the JSON file at
    `path`. Every fault is a StageError naming the file: of the stage that
    owns the faulty section, or else of `stage`."""
    d = read_json(path, stage)
    try:
        with _stage(stage):
            return cls.from_dict(d)
    except StageError as exc:
        raise StageError(exc.stage, f"{path!r}: {exc.message}") from exc


def _require_file(path: str, stage: str) -> None:
    if not os.path.exists(path) and not os.path.exists(path + ".json"):
        raise StageError(stage, f"no such file {path!r}")


def _typed_header(path: str, kind: type, stage: str) -> tuple[int, ...]:
    """The dims of the `kind` grid in `path`, from its header, refused as `read_typed` refuses it."""
    _require_file(path, stage)
    with _stage(stage):
        cls, dims = grid_header(path)
    if issubclass(cls, kind):
        return dims
    article = "an" if kind.__name__[0] in "AEIOU" else "a"
    raise StageError(stage, f"{path!r} does not contain {article} {kind.__name__}")


def read_typed(path: str, kind: type, stage: str):
    """The `kind` grid in `path`; a missing or corrupt file or another kind is `stage`'s StageError."""
    _typed_header(path, kind, stage)
    with _stage(stage):
        return read_volume(path)


@dataclass(frozen=True)
class _MapFile:
    """An imported probability map of checked header, whose payload `load` reads."""

    path: str
    dims: tuple[int, int, int]

    def load(self) -> ProbabilityMap3D:
        return read_imports(self.dims, backend_path=self.path)[2]


def read_imports(dims: tuple[int, int, int], gt_path: str | None = None,
                 shadow_path: str | None = None, backend_path: str | None = None,
                 map_header: bool = False) -> list:
    """The ground-truth mask, shadow mask and probability map at the paths
    given (None for each path not given), each read once and checked
    against a volume of `dims`; a refused file or a mismatch is its stage's
    StageError. With `map_header`, only the map's header is read: it is
    given as a `_MapFile`, whose `load` reads the payload through here."""
    n_slices, _, width = dims
    grids = []
    for stage, path, kind, expected, mismatch in (
        ("ground truth", gt_path, VoxelMask, dims, "ground-truth mask dims {} != volume dims {}"),
        ("shadow source", shadow_path, PixelMask, (n_slices, width),
         "shadow mask shape {} != en-face shape {}"),
        ("backend", backend_path, ProbabilityMap3D, dims, "imported probability map vs volume: {} != {}"),
    ):
        if path is None:
            grid = None
        elif map_header and kind is ProbabilityMap3D:
            grid = _MapFile(path, _typed_header(path, kind, stage))
        else:
            grid = read_typed(path, kind, stage)
        if grid is not None and grid.dims != expected:
            raise StageError(stage, f"{path!r}: " + mismatch.format(grid.dims, expected))
        grids.append(grid)
    return grids


def read_boundary_csv(path: str, volume: OctVolume) -> BoundarySet:
    """The boundary CSV in `path`, checked against `volume`; any failure is
    a StageError of stage `boundary source`."""
    _require_file(path, "boundary source")
    with _stage("boundary source"):
        boundaries = read_boundaries(path)
    try:
        boundaries.check_against(volume.dims)
    except ValidationError as exc:
        raise StageError("boundary source", f"{path!r}: {exc}") from exc
    return boundaries


def _prepare(cfg: PipelineConfig, imports: list | None = None) -> tuple[Prepared, OctVolume, Callable | None]:
    """Resolve the configured sources and run `prepare`: the prepared stages,
    the volume and a function that gives the ground-truth mask (None
    without one). Imports are read and checked before boundary
    segmentation runs, unless `imports` holds what `read_imports` already
    gave. A ground-truth file's payload is dropped once checked; the
    function reads it again, through the same checks. An imported map's
    scores are its `_MapFile`, read by `_with_map` once they are needed."""
    truth = None
    if cfg.phantom is not None:
        with _stage("input"):
            volume, truth = generate(cfg.phantom)
    else:
        volume = read_typed(cfg.volume_path, OctVolume, "input volume")
    gt_mask, shadow_mask, probability = imports or read_imports(
        volume.dims, cfg.gt_mask_path, cfg.shadow_import_path, cfg.backend.path, map_header=True
    )
    gt = None  # bound as defaults: a closure over `volume` would keep it live
    if truth is not None:
        gt = lambda mask=truth.vessel_mask: mask
    elif gt_mask is not None:
        gt = lambda dims=volume.dims, path=cfg.gt_mask_path: read_imports(dims, path)[0]
    del gt_mask, truth

    if cfg.boundary_source == "import":
        boundaries = read_boundary_csv(cfg.boundary_import_path, volume)
    else:
        with _stage("boundary segmentation"):
            boundaries = segment_boundaries(volume, cfg.dp)
    with _stage("cascade"):
        prepared = prepare(volume, boundaries, shadow_mask, cfg.backend, cfg.dp, cfg.shadow, probability)
    return prepared, volume, gt


def _with_map(prepared: Prepared) -> Prepared:
    """`prepared` with an imported map's payload read in place of its `_MapFile`."""
    if isinstance(prepared.scores, _MapFile):
        return dataclasses.replace(prepared, scores=prepared.scores.load())
    return prepared


def execute(cfg: PipelineConfig) -> tuple[CascadeResult, OctVolume, VoxelMask | None]:
    """Resolve sources and run the cascade once. No files are written."""
    prepared, volume, gt = _prepare(cfg)
    with _stage("cascade"):
        return extract(_with_map(prepared), cfg.infusion), volume, gt and gt()


def _variant_label(inf: InfusionConfig) -> str:
    labels = {(use_l, use_t): label for label, use_l, use_t in VARIANTS}
    return labels[inf.use_longitudinal, inf.use_transverse]


def _gray(volume: OctVolume) -> np.ndarray:
    """The volume's uint8 gray levels, quantized one B-scan at a time in
    float64 as `write_pgm` quantizes a float64 image, in two passes: the
    product v * 255, then its truncation plus one half. The volume lies in
    [0, 1], so the product needs no clip. A float32 times 255 is exact in
    float64 and is never k + 1/2 but at v = 1/2, where rounding half to
    even also gives 128, so truncating v * 255 + 1/2 is rounding it."""
    gray = np.empty(volume.dims, dtype=np.uint8)
    buf = np.empty(volume.dims[1:], dtype=np.float64)
    for s in range(volume.n_slices):
        np.multiply(volume.data[s], 255.0, out=buf, dtype=np.float64)
        np.add(buf, 0.5, out=gray[s], casting="unsafe")
    return gray


def _overlay(gray: np.ndarray, mask: VoxelMask, s: int) -> np.ndarray:
    """B-scan `s`'s gray levels, white where the mask is set."""
    img = gray[s].copy()
    img[mask.data[s]] = 255
    return img


def _remove_unwritten(out: str, written: dict[str, str], n_overlays: int) -> None:
    """Remove the report files an earlier run into `out` may have left and
    this one did not write: metrics.csv, montage.pgm, and the overlays of
    slice `n_overlays` on. Nothing else in `out` is removed."""
    stale = [p for p in (os.path.join(out, "metrics.csv"), os.path.join(out, "montage.pgm"))
             if p not in written.values()]
    overlay_dir = os.path.join(out, "overlays")
    for name in os.listdir(overlay_dir) if os.path.isdir(overlay_dir) else []:
        slice_ = re.fullmatch(r"slice_([0-9]{3}|[1-9][0-9]{3,})\.pgm", name)  # as f"{s:03d}" writes s
        if slice_ and int(slice_[1]) >= n_overlays:
            stale.append(os.path.join(overlay_dir, name))
    for p in stale:
        remove_file(p)


def run_to_files(cfg: PipelineConfig) -> dict[str, str]:
    """Run the configured cascade and write the report files.

    The output directory is made before any stage runs. With either
    prior, at most one whole-volume float array is live outside the
    boundary DP, and none is allocated once the scores' source is freed:
    the volume's uint8 gray levels are taken for the overlays and the
    volume freed before an imported map's payload is read, and the kept
    scores are gathered before their source is freed. The mask, `prob.raw`
    and the ROC area read them a B-scan at a time (the raw map, without a
    prior). An imported map's header and a ground-truth file are checked
    before the DP; the map's payload, and the ground truth again once the
    mask is made, are read through the same checks before any file is
    written. The gray levels are freed once the overlays are written.
    Each file is written new, and the report files of an earlier run that
    this one does not write are removed. Returns a name -> path map of
    everything written.
    """
    out = cfg.output_dir
    with _output(out):
        os.makedirs(out, exist_ok=True)
    prepared, volume, gt = _prepare(cfg)
    gray = _gray(volume) if cfg.report.overlays or cfg.report.montage else None
    del volume  # the classical scores still hold it; an imported map is read once it is freed
    prepared = _with_map(prepared)
    with _stage("cascade"):
        kept = gather_priors(prepared, cfg.infusion)
    boundaries, enface, shadow_mask = prepared.boundaries, prepared.enface, prepared.shadow_mask
    del prepared  # the scores' source
    with _stage("cascade"):
        mask = binarize_and_label(kept, cfg.infusion)[0]
    gt_mask = gt and gt()  # before the outputs, which it may name
    written: dict[str, str] = {}

    def path(name: str) -> str:
        return os.path.join(out, name)

    with _output(out):
        write_volume(mask, path("mask"))
        written["mask"] = path("mask.json")
        write_volume(kept, path("prob"))
        written["prob"] = path("prob.json")
        write_boundaries(boundaries, path("boundaries.csv"))
        written["boundaries"] = path("boundaries.csv")
        write_pgm(enface.data, path("enface.pgm"))
        written["enface"] = path("enface.pgm")
        write_pgm(shadow_mask.data, path("shadow_mask.pgm"))
        written["shadow_mask"] = path("shadow_mask.pgm")

        n_slices = mask.dims[0]
        if cfg.report.overlays:
            overlay_dir = path("overlays")
            os.makedirs(overlay_dir, exist_ok=True)
            for s in range(n_slices):
                write_pgm(_overlay(gray, mask, s), os.path.join(overlay_dir, f"slice_{s:03d}.pgm"))
            written["overlays"] = overlay_dir
        if cfg.report.montage:
            step = max(1, n_slices // 8)
            panels = [_overlay(gray, mask, s) for s in range(0, n_slices, step)]
            write_pgm(np.hstack(panels), path("montage.pgm"))
            written["montage"] = path("montage.pgm")
    del gray

    if gt_mask is not None:
        report = score(_variant_label(cfg.infusion), mask, kept, gt_mask)
        write_metrics_csv(path("metrics.csv"), [report])
        written["metrics"] = path("metrics.csv")
    with _output(out):
        _remove_unwritten(out, written, n_slices if cfg.report.overlays else 0)
    return written


def ablate(cfg: PipelineConfig, seeds: list[int]) -> tuple[bool, list[tuple[str, float]], dict[str, str]]:
    """Run the four mask-flag combinations across seeds and aggregate.

    Per seed, one `prepare` (boundaries, en-face, shadows, probability
    map) is shared by the four variants' `extract` calls. Imported files
    are read once per call: every seed's phantom has the same dims. Returns
    (ordering_ok, [(variant, mean IoU)], written files).
    """
    if cfg.phantom is None:
        raise StageError("input", "ablation requires a phantom input (ground truth needed)")
    if not seeds:
        raise StageError("input", "ablation requires at least one seed")

    out = cfg.output_dir
    with _output(out):
        os.makedirs(out, exist_ok=True)
    infusions = {
        label: dataclasses.replace(cfg.infusion, use_longitudinal=use_l, use_transverse=use_t)
        for label, use_l, use_t in VARIANTS
    }
    imports = read_imports(tuple(cfg.phantom.dims), None, cfg.shadow_import_path, cfg.backend.path)
    rows: list[tuple[int, MetricsReport]] = []
    for seed in seeds:
        prepared, volume, gt = _prepare(cfg.with_seed(seed), imports)
        with _stage("cascade"):
            # Every variant reads the raw map: built once, it frees the volume.
            prepared = dataclasses.replace(prepared, scores=place(prepared.scores))
            del volume
            gt_mask = gt()
            for label, infusion in infusions.items():
                r = extract(prepared, infusion)
                rows.append((seed, score(label, r.mask, r.probability, gt_mask)))
                del r  # not live while the next variant is extracted
        del prepared, gt_mask  # not live while the next seed is prepared

    runs_path = os.path.join(out, "ablation_runs.csv")
    _write_pooled_csv(runs_path, ["seed", *_REPORT_HEADER], ([seed, *_report_row(r)] for seed, r in rows))

    keys = ("iou", "sen", "acc", "auc")
    aggregate, means = [], []
    for label, _, _ in VARIANTS:
        reports = [r for _, r in rows if r.method == label]
        row = [label]
        for key in keys:
            vals = [getattr(r, key) for r in reports if getattr(r, key) is not None]
            row += [_fmt(float(np.mean(vals))), _fmt(float(np.std(vals)))] if vals else ["NA", "NA"]
        aggregate.append(row)
        means.append((label, float(np.mean([r.iou for r in reports]))))
    agg_path = os.path.join(out, "ablation.csv")
    _write_pooled_csv(agg_path, ["variant", *(f"{k}_{m}" for k in keys for m in ("mean", "std"))],
                      aggregate)

    ordered = all(means[i][1] < means[i + 1][1] for i in range(len(means) - 1))
    return ordered, means, {"runs": runs_path, "aggregate": agg_path}
