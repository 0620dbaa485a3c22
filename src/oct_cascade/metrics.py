"""Segmentation evaluation metrics and the polynomial LR schedule utility.

All metrics are defined on exact integer confusion counts over pooled
voxels. ROC area is the pairwise ranking statistic with ties counted half
(Mann-Whitney U / (P * N)), which equals the trapezoidal area under the
ROC curve over every distinct score; it is counted from one sort of the
non-zero scores, the count of zeros and two binary searches of the
positive scores, so neither the curve nor a permutation of the voxels is
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .config import Checked, In
from .errors import ConfigError, ShapeMismatchError, UndefinedAucError, ValidationError
from .model import VoxelMask, is_score_source, require_same_dims


@dataclass(frozen=True)
class ConfusionCounts(Checked):
    tp: Annotated[int, In("[0, inf)")]
    tn: Annotated[int, In("[0, inf)")]
    fp: Annotated[int, In("[0, inf)")]
    fn: Annotated[int, In("[0, inf)")]

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport(Checked):
    """One method's scores. `auc` is None when no probability map exists;
    `flags` records degenerate 0/0 ratios resolved to the perfect-empty 1.0."""

    method: str
    iou: Annotated[float, In("[0, 1]")]
    sen: Annotated[float, In("[0, 1]")]
    acc: Annotated[float, In("[0, 1]")]
    auc: Annotated[float, In("[0, 1]")] | None = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScheduleParams(Checked):
    base_lr: Annotated[float, In("(0, inf)")]
    iter: Annotated[int, In("[0, inf)")]
    max_iter: Annotated[int, In("[1, inf)")]
    power: Annotated[float, In("(0, inf)")] = 0.9

    def __post_init__(self):
        super().__post_init__()
        if self.iter > self.max_iter:
            raise ConfigError(f"iter {self.iter} must be <= max_iter {self.max_iter}")


def confusion(pred: VoxelMask, gt: VoxelMask) -> ConfusionCounts:
    """Exact voxel counts of the four confusion cells."""
    require_same_dims(pred, gt, "prediction vs ground truth")
    p = pred.data
    g = gt.data
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p)) - tp
    fn = int(np.count_nonzero(g)) - tp
    tn = p.size - tp - fp - fn
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def _ratios(c: ConfusionCounts) -> dict[str, tuple[float, bool]]:
    """Each ratio's value and whether it is a degenerate 0/0, in report order."""
    terms = {
        "iou": (c.tp, c.tp + c.fp + c.fn),
        "sen": (c.tp, c.tp + c.fn),
        "acc": (c.tp + c.tn, c.total),
    }
    # 0/0 compares nothing against nothing: a perfect match, flagged.
    return {name: (num / den, False) if den else (1.0, True) for name, (num, den) in terms.items()}


def iou(c: ConfusionCounts) -> float:
    return _ratios(c)["iou"][0]


def sen(c: ConfusionCounts) -> float:
    return _ratios(c)["sen"][0]


def acc(c: ConfusionCounts) -> float:
    return _ratios(c)["acc"][0]


def build_report(method: str, c: ConfusionCounts, auc_value: float | None = None) -> MetricsReport:
    """Assemble a MetricsReport, flagging any degenerate 0/0 ratio."""
    ratios = _ratios(c)
    flags = [f"{name}_degenerate" for name, (_, degenerate) in ratios.items() if degenerate]
    if auc_value is None:
        flags.append("auc_unavailable")
    values = {name: value for name, (value, _) in ratios.items()}
    return MetricsReport(method=method, **values, auc=auc_value, flags=tuple(flags))


def auc(scores, gt: VoxelMask | np.ndarray) -> float:
    """ROC area of the scores against a binary ground truth: the share of
    (positive, negative) voxel pairs the positive outscores, ties counted
    half, which is the trapezoidal area under the ROC curve.

    Each positive's rank among the sorted scores, taken from the left and
    from the right, counts its wins twice and its ties once; the integer
    total is divided once. Only the non-zero scores are sorted: the zeros
    enter each rank as one count. A score source (see `is_score_source`)
    is read twice a B-scan at a time, an array a 64k-element run at a
    time: to count the non-zeros and keep the positives' scores, then to
    fill the non-zeros' sorted copy. Raises UndefinedAucError when the
    ground truth is single-class and ValidationError when a score is not
    finite.
    """
    g = gt.data if isinstance(gt, VoxelMask) else np.asarray(gt, dtype=bool)
    if is_score_source(scores):
        shape, truth = tuple(scores.dims), g
    else:
        scores = np.asarray(scores)
        shape = scores.shape
        # float32 widens to float64 exactly, so it is ranked as is; any
        # other dtype is ranked as float64.
        scores = np.ravel(scores if scores.dtype == np.float32 else scores.astype(np.float64, copy=False))
        truth = _parts(g.ravel())
    if shape != g.shape:
        raise ShapeMismatchError(f"scores shape {shape} != ground truth shape {g.shape}")

    n_pos = int(np.count_nonzero(g))
    n_neg = g.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAucError(
            f"ROC area undefined: ground truth has {n_pos} positives and {n_neg} negatives"
        )

    # Only the non-zero scores are sorted: the zeros, -0.0 among them, tie
    # each other and are counted. NaN sorts last and infinities sit at the ends.
    n_nonzero, positives = 0, []
    for part, positive in zip(_parts(scores), truth):
        n_nonzero += int(np.count_nonzero(part))
        positives.append(part[positive])
        del part  # before the next B-scan is read
    nz = _sorted_nonzeros(scores, n_nonzero=n_nonzero)
    if nz.size and not (np.isfinite(nz[0]) and np.isfinite(nz[-1])):
        raise ValidationError("ROC area needs finite scores")
    n_zeros = g.size - nz.size
    # Per positive, the scores below it plus those at or below it count each
    # win over a negative twice and each tie once; the positive-positive
    # pairs add exactly n_pos**2. The zeros lie below a positive score and
    # at or below a non-negative one. int64 holds each part's sums for any
    # map under ~3e9 voxels, 800x the paper volume.
    below = at_or_below = 0
    for pos in positives:
        below += int(np.searchsorted(nz, pos, "left").sum()) + n_zeros * int(np.count_nonzero(pos > 0))
        at_or_below += int(np.searchsorted(nz, pos, "right").sum()) + n_zeros * int(np.count_nonzero(pos >= 0))
    # Python ints: one correctly rounded division, which lies in [0, 1]
    return (below + at_or_below - n_pos * n_pos) / (2 * n_pos * n_neg)


def _parts(scores, chunk: int = 1 << 16):
    """A score source's B-scans, or a flat array's `chunk`-long runs."""
    if is_score_source(scores):
        return map(scores.read, range(scores.dims[0]))
    return (scores[start : start + chunk] for start in range(0, scores.size, chunk))


def _sorted_nonzeros(scores, chunk: int = 1 << 16, n_nonzero: int | None = None) -> np.ndarray:
    """The non-zero values of a score source or a flat array, sorted:
    counted (unless `n_nonzero` gives their count), then gathered into one
    array of that size part by part (see `_parts`), and sorted in place.
    No whole-array temporary is made."""
    if n_nonzero is None:
        n_nonzero = sum(int(np.count_nonzero(part)) for part in _parts(scores, chunk))
    dtype = np.float32 if is_score_source(scores) else scores.dtype  # a source reads float32
    nz = np.empty(n_nonzero, dtype=dtype)
    filled = 0
    for part in _parts(scores, chunk):
        part = part[part != 0]
        nz[filled : filled + part.size] = part
        filled += part.size
    nz.sort()
    return nz


def score(method: str, pred: VoxelMask, prob, gt: VoxelMask) -> MetricsReport:
    """The report of `pred` against `gt`, with the ROC area of `prob`, a
    score source or None; the area is None without one or for a
    single-class truth."""
    auc_value = None
    if prob is not None:
        try:
            auc_value = auc(prob, gt)
        except UndefinedAucError:
            pass
    return build_report(method, confusion(pred, gt), auc_value)


def poly_lr(p: ScheduleParams) -> float:
    """Polynomial decay: base_lr * (1 - iter / max_iter) ** power."""
    return p.base_lr * (1.0 - p.iter / p.max_iter) ** p.power
