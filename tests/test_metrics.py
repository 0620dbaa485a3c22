from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from mpmath import mp, mpf

from oct_cascade import metrics
from oct_cascade.errors import ConfigError, ShapeMismatchError, UndefinedAucError, ValidationError
from oct_cascade.metrics import (
    ConfusionCounts,
    ScheduleParams,
    acc,
    auc,
    build_report,
    confusion,
    iou,
    poly_lr,
    sen,
)
from oct_cascade.model import ProbabilityMap3D, VoxelMask


def pairwise_auc(scores, labels):
    """Rank statistic over all positive-negative pairs, ties worth half."""
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for p in pos:
        wins += np.count_nonzero(p > neg) + 0.5 * np.count_nonzero(p == neg)
    return wins / (len(pos) * len(neg))


def as_grids(scores, labels):
    n = len(scores)
    return (
        ProbabilityMap3D(np.asarray(scores, dtype=np.float32).reshape(1, 1, n)),
        VoxelMask(np.asarray(labels, dtype=bool).reshape(1, 1, n)),
    )


def test_confusion_counts():
    pred = VoxelMask(np.array([[[1, 1, 0]]], dtype=bool))
    gt = VoxelMask(np.array([[[1, 0, 0]]], dtype=bool))
    c = confusion(pred, gt)
    assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 0)

    same = confusion(gt, gt)
    assert same.fp == 0 and same.fn == 0

    empty = VoxelMask(np.zeros((2, 3, 4), dtype=bool))
    c = confusion(empty, empty)
    assert c.tn == 24 and c.total == 24

    with pytest.raises(ShapeMismatchError):
        confusion(pred, empty)


def test_ratio_metrics_match_hand_formulas():
    c = ConfusionCounts(tp=2, fp=1, fn=1, tn=0)
    assert iou(c) == 0.5
    c = ConfusionCounts(tp=1, tn=7, fp=1, fn=1)
    assert acc(c) == 0.8
    assert sen(c) == 0.5
    assert iou(c) == pytest.approx(1 / 3)


def test_degenerate_ratios_are_one_and_flagged():
    c = ConfusionCounts(tp=0, tn=10, fp=0, fn=0)
    assert sen(c) == 1.0
    assert iou(c) == 1.0
    report = build_report("m", c)
    assert "sen_degenerate" in report.flags
    assert "iou_degenerate" in report.flags
    assert report.acc == 1.0 and "acc_degenerate" not in report.flags


def test_iou_never_exceeds_sen_with_positives():
    rng = np.random.default_rng(0)
    for _ in range(200):
        tp = int(rng.integers(1, 50))
        c = ConfusionCounts(
            tp=tp, fp=int(rng.integers(0, 50)), fn=int(rng.integers(0, 50)), tn=int(rng.integers(0, 50))
        )
        assert iou(c) <= sen(c)


def test_auc_simple_cases():
    s, g = as_grids([0.9, 0.8], [1, 0])
    assert auc(s, g) == 1.0
    s, g = as_grids([0.5, 0.5], [1, 0])
    assert auc(s, g) == 0.5
    s, g = as_grids([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    # pairwise oracle: 3 of 4 positive-negative pairs ranked correctly
    assert pairwise_auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1], dtype=bool)) == 0.75
    assert auc(s, g) == pytest.approx(0.75, abs=1e-12)


def test_auc_matches_pairwise_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 400))
        scores = np.round(rng.uniform(0, 1, n), 2)  # coarse grid forces ties
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        s, g = as_grids(scores, labels)
        assert auc(s, g) == pytest.approx(pairwise_auc(scores.astype(np.float32), labels), abs=1e-9)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(9)
    scores = np.round(rng.uniform(0, 1, 300), 2)
    labels = rng.random(300) < 0.3
    labels[0] = True
    labels[1] = False
    s1, g = as_grids(scores, labels)
    s2, _ = as_grids(scores**3, labels)
    assert auc(s1, g) == auc(s2, g)


def exact_auc(scores, labels):
    """The rank statistic from integer pairwise counts, divided once: each
    win over a negative counts 2 and each tie 1, over 2 * P * N."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    g = np.asarray(labels, dtype=bool).ravel()
    pos, neg = s[g], s[~g]
    if pos.size == 0 or neg.size == 0:
        raise UndefinedAucError("single class")
    wins = int(np.count_nonzero(pos[:, None] > neg[None, :]))
    ties = int(np.count_nonzero(pos[:, None] == neg[None, :]))
    return float(Fraction(2 * wins + ties, 2 * pos.size * neg.size))


def argsort_auc(scores, labels):
    """An earlier implementation: a stable descending argsort of float64
    scores, labels gathered through it, ROC points at the ends of tie runs."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    g = np.asarray(labels, dtype=bool).ravel()
    n_pos = int(g.sum())
    n_neg = g.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAucError("single class")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    g_sorted = g[order]
    distinct = np.nonzero(np.diff(s_sorted))[0]
    run_ends = np.concatenate([distinct, [s.size - 1]])
    tp = np.cumsum(g_sorted)[run_ends]
    fp = (run_ends + 1) - tp
    tpr = np.concatenate([[0.0], tp / n_pos])
    fpr = np.concatenate([[0.0], fp / n_neg])
    return float(min(max(np.trapezoid(tpr, fpr), 0.0), 1.0))


@st.composite
def auc_cases(draw):
    """Scores (float32 or float64) and labels.

    Score kinds: fine-grained values, a coarse grid that forces heavy ties,
    one repeated value, signed zeros, and values multiplied by a 0/1 mask as
    infusion leaves them (mostly exact zeros).
    """
    n = draw(st.integers(2, 300))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype == np.float32 else 64
    fine = hnp.arrays(dtype, n, elements=st.floats(0, 1, width=width))
    kind = draw(st.sampled_from(["fine", "coarse", "equal", "signed_zero", "masked"]))
    if kind == "fine":
        s = draw(fine)
    elif kind == "coarse":
        k = draw(st.integers(1, 8))
        s = (draw(hnp.arrays(np.int64, n, elements=st.integers(0, k))) / k).astype(dtype)
    elif kind == "equal":
        s = np.full(n, draw(st.floats(0, 1, width=width)), dtype=dtype)
    elif kind == "signed_zero":
        s = draw(hnp.arrays(dtype, n, elements=st.sampled_from([-0.0, 0.0, 0.25])))
    else:
        s = draw(fine) * draw(hnp.arrays(bool, n))
    return s, draw(hnp.arrays(bool, n))


@settings(max_examples=400, deadline=None)
@given(auc_cases())
def test_auc_equals_exact_rank_oracle(case):
    """Bit for bit the exactly rounded statistic, and within 4 ulp of the
    trapezoidal area of the argsort implementation."""
    s, labels = case
    shape = (1, 1, s.size)
    scores = ProbabilityMap3D(s.reshape(shape)) if s.dtype == np.float32 else s.reshape(shape)
    gt = VoxelMask(labels.reshape(shape))
    try:
        want = exact_auc(s, labels)
    except UndefinedAucError:
        with pytest.raises(UndefinedAucError):
            auc(scores, gt)
        return
    got = auc(scores, gt)
    assert got == want
    assert abs(got - argsort_auc(s, labels)) <= 4 * np.spacing(want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_auc_rejects_non_finite_scores(bad, dtype):
    scores = np.array([0.1, bad, 0.5, bad, 0.3], dtype=dtype).reshape(1, 1, 5)
    labels = np.array([0, 1, 1, 0, 1], dtype=bool).reshape(1, 1, 5)
    with pytest.raises(ValidationError, match="finite"):
        auc(scores, labels)


def test_auc_single_class_is_undefined():
    s, g = as_grids([0.2, 0.4], [1, 1])
    with pytest.raises(UndefinedAucError):
        auc(s, g)


def test_poly_lr_endpoints_and_interior():
    assert poly_lr(ScheduleParams(base_lr=1e-4, iter=0, max_iter=100)) == 1e-4
    assert poly_lr(ScheduleParams(base_lr=1e-4, iter=100, max_iter=100)) == 0.0
    got = poly_lr(ScheduleParams(base_lr=1e-4, iter=25, max_iter=100, power=0.9))
    assert got == pytest.approx(7.719e-5, rel=1e-4)


def test_poly_lr_against_high_precision_oracle():
    mp.dps = 60
    rng = np.random.default_rng(11)
    for _ in range(50):
        max_iter = int(rng.integers(1, 10_000))
        it = int(rng.integers(0, max_iter + 1))
        power = float(rng.uniform(0.1, 3.0))
        base = float(10.0 ** rng.uniform(-6, -1))
        got = poly_lr(ScheduleParams(base_lr=base, iter=it, max_iter=max_iter, power=power))
        want = mpf(base) * (1 - mpf(it) / mpf(max_iter)) ** mpf(power)
        if it == max_iter:
            assert got == 0.0
        else:
            assert abs(mpf(got) - want) / want < mpf("1e-12")


def test_poly_lr_strictly_decreasing():
    values = [
        poly_lr(ScheduleParams(base_lr=0.01, iter=i, max_iter=50, power=0.9)) for i in range(51)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_schedule_params_validation():
    with pytest.raises(ConfigError):
        ScheduleParams(base_lr=0.0, iter=0, max_iter=10)
    with pytest.raises(ConfigError):
        ScheduleParams(base_lr=0.1, iter=5, max_iter=0)
    with pytest.raises(ConfigError):
        ScheduleParams(base_lr=0.1, iter=11, max_iter=10)


@st.composite
def sparse_auc_cases(draw):
    """Scores that are mostly zeros, as the priors leave a map: 0-100% zeros,
    some of them -0.0, float32 in [0, 1] or float64 with negative scores;
    all-zero and one-non-zero maps among them. Labels drawn at random."""
    n = draw(st.integers(2, 300))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = -1.0 if dtype == np.float64 and draw(st.booleans()) else 0.0
    s = rng.uniform(low, 1.0, n).astype(dtype)
    if draw(st.booleans()):  # coarse values, so non-zero scores tie too
        s = np.round(s * 4) / 4
    kind = draw(st.sampled_from(["fraction", "all_zero", "one_nonzero"]))
    if kind == "fraction":
        s[rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.9, 0.98, 1.0]))] = 0.0
    else:
        keep = int(rng.integers(n)) if kind == "one_nonzero" else None
        s[np.arange(n) != keep] = 0.0
    zeros = np.flatnonzero(s == 0)
    s[zeros[rng.random(zeros.size) < draw(st.sampled_from([0.0, 0.5, 1.0]))]] = -0.0
    return s, rng.random(n) < draw(st.sampled_from([0.02, 0.5]))


@settings(max_examples=400, deadline=None)
@given(sparse_auc_cases())
def test_auc_of_mostly_zero_scores_equals_the_pairwise_oracle(case):
    """Only the non-zero scores are sorted; the zeros, -0.0 included, enter
    each rank as one count. Bit for bit the exactly rounded statistic."""
    s, labels = case
    shape = (1, 1, s.size)
    scores = ProbabilityMap3D(s.reshape(shape)) if s.dtype == np.float32 and s.min() >= 0 else s.reshape(shape)
    gt = VoxelMask(labels.reshape(shape))
    try:
        want = exact_auc(s, labels)
    except UndefinedAucError:
        with pytest.raises(UndefinedAucError):
            auc(scores, gt)
        return
    assert auc(scores, gt) == want


@settings(max_examples=200, deadline=None)
@given(sparse_auc_cases(), st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 2**32 - 1))
def test_auc_of_mostly_zero_scores_refuses_a_non_finite_one(case, bad, seed):
    s, labels = case
    labels[:2] = (True, False)  # two classes, so the scores are ranked
    s[np.random.default_rng(seed).integers(s.size)] = bad
    with pytest.raises(ValidationError, match="finite"):
        auc(s.reshape(1, 1, -1), labels.reshape(1, 1, -1))


@settings(max_examples=200, deadline=None)
@given(sparse_auc_cases(), st.integers(1, 40))
def test_sorted_nonzeros_across_chunks_equals_the_sorted_filter(case, chunk):
    s, _ = case
    got = metrics._sorted_nonzeros(s, chunk)
    assert got.dtype == s.dtype
    assert got.tobytes() == np.sort(s[s != 0]).tobytes()
