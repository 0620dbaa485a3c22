"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is pinned here, not computed.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from mpmath import mp, mpf

from oct_cascade.cascade import (
    InfusionConfig,
    binarize_and_label,
    infuse,
    longitudinal_mask,
    run_cascade,
    transverse_mask,
)
from oct_cascade.enface import project_rpe, segment_shadows
from oct_cascade.layers import segment_boundaries, trace_boundary
from oct_cascade.metrics import ScheduleParams, auc, confusion, iou, poly_lr, sen, acc
from oct_cascade.model import (
    BOUNDARY_NAMES,
    BoundarySet,
    PixelMask,
    ProbabilityMap3D,
    VoxelMask,
)
from oct_cascade.phantom import PhantomConfig, default_config, generate
from oct_cascade.pipeline import PipelineConfig, ablate

from conftest import dice
from test_dp import brute_force_best, dyadic_costs
from test_metrics import pairwise_auc


def report(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion} {name}: PASS")


def test_criterion_1_ablation_ordering(tmp_path):
    """base < +longitudinal < +transverse < both, gaps >= 0.01, <= 60 s."""
    cfg = PipelineConfig.from_dict(
        {
            "input": {"phantom": default_config("desk").to_dict()},
            "output_dir": str(tmp_path / "ablation"),
        }
    )
    t0 = time.perf_counter()
    ordered, means, _ = ablate(cfg, seeds=list(range(10)))
    elapsed = time.perf_counter() - t0
    ious = [m for _, m in means]
    assert ordered, means
    gaps = [b - a for a, b in zip(ious, ious[1:])]
    assert all(g >= 0.01 for g in gaps), (ious, gaps)
    assert elapsed <= 60.0, f"ablation took {elapsed:.1f} s"
    report(1, f"ablation ordering (IoU {' < '.join(f'{v:.3f}' for v in ious)}, {elapsed:.1f} s)")


def test_criterion_2_full_infusion_quality():
    """Mean IoU of the fully masked variant >= 0.80 on noise-free phantoms."""
    ious = []
    for seed in range(10):
        cfg = PhantomConfig.from_dict(
            {**default_config("desk", seed=seed).to_dict(), "noise_sigma": 0.0}
        )
        volume, gt = generate(cfg)
        result = run_cascade(volume)
        ious.append(iou(confusion(result.mask, gt.vessel_mask)))
    mean_iou = float(np.mean(ious))
    assert mean_iou >= 0.80, ious
    report(2, f"full-infusion quality (mean IoU {mean_iou:.3f})")


def test_criterion_3_dp_optimality():
    """100 random small instances match exhaustive search exactly."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        height = int(rng.integers(4, 9))
        width = int(rng.integers(2, 7))
        cost = dyadic_costs(rng, height, width)
        lo = rng.integers(0, 2, size=width)
        hi = rng.integers(height - 2, height, size=width)
        path = trace_boundary(cost, lo, hi, smoothness=0.5, max_jump=2)
        got = cost[path, np.arange(width)].sum() + 0.5 * np.abs(np.diff(path)).sum()
        want_cost, want_path = brute_force_best(cost, lo, hi, 0.5, 2)
        assert got == want_cost
        assert np.array_equal(path, want_path)
    report(3, "DP optimality (100/100 exact)")


def test_criterion_4_metric_oracles():
    """Trapezoidal AUC == pairwise statistic within 1e-9; integer fixtures exact."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 1001))
        scores = np.round(rng.uniform(0, 1, n), int(rng.integers(1, 4)))
        labels = rng.random(n) < rng.uniform(0.1, 0.9)
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        got = auc(
            ProbabilityMap3D(scores.astype(np.float32).reshape(1, 1, n)),
            VoxelMask(labels.reshape(1, 1, n)),
        )
        want = pairwise_auc(scores.astype(np.float32), labels)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-9, worst

    from oct_cascade.metrics import ConfusionCounts

    c = ConfusionCounts(tp=1, tn=7, fp=1, fn=1)
    assert acc(c) == 0.8
    assert sen(c) == 0.5
    assert iou(c) == 1 / 3
    assert iou(ConfusionCounts(tp=2, fp=1, fn=1, tn=0)) == 0.5
    report(4, f"metric oracles (worst AUC gap {worst:.2e})")


def test_criterion_5_boundary_accuracy():
    """Mean |error| <= 1.0 voxel noise-free, <= 2.0 at sigma 0.03."""
    results = {}
    for sigma, budget in ((0.0, 1.0), (0.03, 2.0)):
        worst = 0.0
        for seed in range(3):
            cfg = PhantomConfig.from_dict(
                {**default_config("desk", seed=seed).to_dict(), "noise_sigma": sigma}
            )
            volume, gt = generate(cfg)
            est = segment_boundaries(volume)
            for name in BOUNDARY_NAMES:
                err = float(np.mean(np.abs(est[name] - gt.boundaries[name])))
                worst = max(worst, err)
                assert err <= budget, (sigma, seed, name, err)
        results[sigma] = worst
    report(5, f"boundary accuracy (worst {results[0.0]:.2f} clean, {results[0.03]:.2f} noisy)")


def test_criterion_6_shadow_detection():
    """Dice >= 0.90 against the true footprint at the default threshold."""
    scores = []
    for seed in range(5):
        cfg = PhantomConfig.from_dict(
            {**default_config("desk", seed=seed).to_dict(), "noise_sigma": 0.0}
        )
        volume, gt = generate(cfg)
        boundaries = segment_boundaries(volume)
        mask, _ = segment_shadows(project_rpe(volume, boundaries))
        scores.append(dice(mask.data, gt.shadow_footprint.data))
    assert all(s >= 0.90 for s in scores), scores
    report(6, f"shadow detection (min Dice {min(scores):.3f})")


def test_criterion_7_mask_algebra():
    """Randomized property suites, >= 1000 cases each."""
    rng = np.random.default_rng(5150)
    n_cases = 1000

    # transverse depth-invariance
    for _ in range(n_cases):
        dims = (int(rng.integers(1, 5)), int(rng.integers(2, 7)), int(rng.integers(2, 8)))
        fp = PixelMask(rng.random((dims[0], dims[2])) < 0.4)
        m = transverse_mask(fp, dims, dilation=int(rng.integers(0, 2))).data
        assert np.all(m == m[:, :1, :])

    # longitudinal boundary rounding, one random column per case
    n_slices, height = 1, 32
    ilm = rng.uniform(0, 12, size=(n_slices, n_cases))
    inl = ilm + rng.uniform(0, 10, size=(n_slices, n_cases))
    b = BoundarySet(
        {"ILM": ilm, "INL_LOWER": inl, "RPE_UPPER": inl + 5, "BM": inl + 8}
    )
    mask = longitudinal_mask(b, (n_slices, height, n_cases)).data
    z = np.arange(height)
    for x in range(n_cases):
        want = (z >= np.ceil(ilm[0, x])) & (z <= np.floor(inl[0, x]))
        assert np.array_equal(mask[0, :, x], want)

    # final mask within enabled masks; infusion idempotent
    icfg = InfusionConfig(min_component_vox=1)
    for _ in range(n_cases):
        dims = (2, int(rng.integers(3, 7)), int(rng.integers(3, 7)))
        p = ProbabilityMap3D(rng.uniform(0, 1, dims).astype(np.float32))
        lm = VoxelMask(rng.random(dims) < 0.6)
        tm = VoxelMask(rng.random(dims) < 0.6)
        infused = infuse(p, lm, tm)
        assert np.array_equal(infuse(infused, lm, tm).data, infused.data)
        assert np.all(infused.data <= p.data)
        mask, _ = binarize_and_label(infused, icfg)
        assert not (mask.data & ~lm.data).any()
        assert not (mask.data & ~tm.data).any()
    report(7, f"mask algebra ({3 * n_cases}+ randomized cases)")


def _hash_tree(root: str) -> dict:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.slow
def test_criterion_8_determinism(tmp_path):
    """Byte-identical outputs across three reruns."""
    cfg = {
        "input": {"phantom": {"dims": [8, 96, 64], "n_vessels": 2, "seed": 3}},
        "output_dir": "unused",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    hashes = []
    for run in ("a", "b", "c"):
        out = tmp_path / run
        gen = subprocess.run(
            [sys.executable, "-m", "oct_cascade", "phantom", "gen", "--seed", "3",
             "--out", str(out / "gen")],
            capture_output=True, text=True,
        )
        assert gen.returncode == 0, gen.stderr
        run_p = subprocess.run(
            [sys.executable, "-m", "oct_cascade", "run", "--config", str(cfg_path),
             "--out", str(out / "run")],
            capture_output=True, text=True,
        )
        assert run_p.returncode == 0, run_p.stderr
        hashes.append(_hash_tree(str(out)))
    assert hashes[0] == hashes[1], "rerun changed bytes"
    assert hashes[0] == hashes[2], "rerun changed bytes"
    report(8, "determinism (three reruns byte-identical)")


def test_criterion_9_poly_lr():
    """Exact at the endpoints; 1e-12 relative accuracy inside."""
    assert poly_lr(ScheduleParams(base_lr=1e-4, iter=0, max_iter=100)) == 1e-4
    assert poly_lr(ScheduleParams(base_lr=1e-4, iter=100, max_iter=100)) == 0.0
    mp.dps = 60
    cases = [(1e-4, 25, 100, 0.9), (1e-3, 1, 7, 0.9), (5e-2, 9_999, 10_000, 2.5)]
    for base, it, max_it, power in cases:
        got = poly_lr(ScheduleParams(base_lr=base, iter=it, max_iter=max_it, power=power))
        want = mpf(base) * (1 - mpf(it) / mpf(max_it)) ** mpf(power)
        assert abs(mpf(got) - want) / want < mpf("1e-12"), (base, it, max_it, power)
    report(9, "poly schedule (endpoints exact, interior 1e-12)")
