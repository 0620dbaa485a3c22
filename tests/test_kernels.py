"""The batched boundary DP must agree bit for bit with the per-slice
reference `dp_reference.dp_trace`, and so must the layer tracers built on
it: `trace_boundary` on one image and `segment_boundaries` on a volume."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oct_cascade import kernels, layers
from oct_cascade.errors import ConfigError, InfeasibleBandError
from oct_cascade.layers import segment_boundaries, trace_boundary
from oct_cascade.model import OctVolume
from oct_cascade.phantom import default_config, generate

import dp_reference
from dp_reference import cost_image, dp_trace


def _per_slice(cost, lo, hi, lam, max_jump):
    return np.stack([dp_trace(c, l, h, lam, max_jump) for c, l, h in zip(cost, lo, hi)])


@pytest.mark.slow
def test_backends_agree_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(123)
    more = np.random.default_rng(124)
    for _ in range(20):
        height, width = int(rng.integers(6, 40)), int(rng.integers(3, 50))
        cost = rng.uniform(0, 1, size=(height, width))
        lo = rng.integers(0, 3, size=width).astype(np.int64)
        hi = (height - 1 - rng.integers(0, 3, size=width)).astype(np.int64)
        # stack more slices of the same shape, each with its own bands
        n_slices = int(more.integers(3, 7))
        los = np.vstack([lo, more.integers(0, 3, size=(n_slices - 1, width))])
        his = np.vstack([hi, height - 1 - more.integers(0, 3, size=(n_slices - 1, width))])
        uniform = np.concatenate([cost[None], more.uniform(0, 1, size=(n_slices - 1, height, width))])
        # sixteenths, as in test_dp.dyadic_costs: many exactly equal paths
        dyadic = more.integers(0, 16, size=(n_slices, height, width)) / 8.0
        for stack in (uniform, dyadic):
            want = _per_slice(stack, los, his, 0.5, 2)
            assert np.array_equal(kernels.dp_trace(stack, los, his, 0.5, 2), want)

    # a band infeasible in one slice fails at the column dp_trace names
    cost = rng.uniform(0, 1, size=(3, 9, 3))
    lo = np.zeros((3, 3), dtype=np.int64)
    hi = np.full((3, 3), 8, dtype=np.int64)
    lo[1], hi[1] = [0, 0, 8], [1, 1, 8]
    with pytest.raises(InfeasibleBandError) as ref:
        dp_trace(cost[1], lo[1], hi[1], 0.5, 2)
    with pytest.raises(InfeasibleBandError) as err:
        kernels.dp_trace(cost, lo, hi, 0.5, 2)
    assert err.value.column == ref.value.column == 1

    # the layer tracer over the whole volume equals the same call made one
    # slice at a time on the per-slice reference DP
    volume, _ = generate(default_config("desk", seed=11))
    whole = segment_boundaries(volume)
    monkeypatch.setattr(layers, "dp_trace", _per_slice)
    for s in range(volume.dims[0]):
        alone = segment_boundaries(OctVolume(volume.data[s : s + 1]))
        for name, surface in whole.surfaces.items():
            assert np.array_equal(surface[s : s + 1], alone.surfaces[name]), (s, name)


@st.composite
def dp_stacks(draw, min_height=1, max_slices=4, min_width=1):
    """Small cost stacks with per-slice bands that are wide or narrow and
    drift by up to 4 rows per column, so some outrun max_jump and leave no
    feasible path."""
    n_slices, width = draw(st.integers(1, max_slices)), draw(st.integers(min_width, 8))
    height = draw(st.integers(min_height, 10))
    max_jump = draw(st.integers(1, 3))
    lam = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    shape = (n_slices, height, width)
    if draw(st.booleans()):
        # sixteenths, as in test_dp.dyadic_costs: many exactly equal paths
        cost = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 15))) / 8.0
    else:
        cost = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1, 1)))
    columns = (n_slices, width)
    start = draw(hnp.arrays(np.int64, (n_slices, 1), elements=st.integers(0, height - 1)))
    drift = draw(hnp.arrays(np.int64, (n_slices, 1), elements=st.integers(-4, 4)))
    jitter = draw(hnp.arrays(np.int64, columns, elements=st.integers(0, 1)))
    span = draw(hnp.arrays(np.int64, (n_slices, 1), elements=st.integers(0, height - 1)))
    lo = np.clip(start + drift * np.arange(width) + jitter, 0, height - 1)
    hi = np.minimum(lo + span, height - 1)
    return cost, lo, hi, lam, max_jump


def assert_matches_per_slice(batched, per_slice, n_slices):
    """batched() equals per_slice(s) stacked over the slices, or both fail:
    batched() at the first slice per_slice fails on, and at its column."""
    paths = []
    for s in range(n_slices):
        try:
            paths.append(per_slice(s))
        except InfeasibleBandError as exc:
            with pytest.raises(InfeasibleBandError) as err:
                batched()
            assert (err.value.slice, err.value.column) == (s, exc.column)
            return
    assert np.array_equal(batched(), np.stack(paths))


@settings(max_examples=400)
@given(dp_stacks())
def test_batch_equals_per_slice_on_random_stacks(case):
    cost, lo, hi, lam, jump = case
    assert_matches_per_slice(
        lambda: kernels.dp_trace(cost, lo, hi, lam, jump),
        lambda s: dp_trace(cost[s], lo[s], hi[s], lam, jump),
        len(cost),
    )
    # trace_boundary traces one image as a stack of one, so an infeasible
    # band names slice 0 and the reference's column
    for s in range(len(cost)):
        assert_matches_per_slice(
            lambda: trace_boundary(cost[s], lo[s], hi[s], lam, jump)[None],
            lambda _: dp_trace(cost[s], lo[s], hi[s], lam, jump),
            1,
        )


@settings(max_examples=200)
@given(dp_stacks())
def test_batch_takes_a_generator_and_reads_only_the_rows_its_bands_reach(case):
    cost, lo, hi, lam, jump = case
    # NaN rows below the stack would poison any path that read them
    taller = np.concatenate([cost, np.full((len(cost), 3, cost.shape[2]), np.nan)], axis=1)
    for batched in (lambda: kernels.dp_trace((c for c in cost), lo, hi, lam, jump),
                    lambda: kernels.dp_trace(taller, lo, hi, lam, jump)):
        assert_matches_per_slice(
            batched, lambda s: dp_trace(cost[s], lo[s], hi[s], lam, jump), len(cost)
        )


@settings(max_examples=200)
@given(dp_stacks(min_height=2), st.sampled_from(layers.COST_KINDS))
def test_row_window_equals_full_height_trace(case, kind):
    # _trace_stack feeds the DP only the rows its bands reach, with the cost
    # built from one row of context on each side
    bscans, lo, hi, lam, jump = case
    assert_matches_per_slice(
        lambda: layers._trace_stack(bscans, kind, lo, hi, lam, jump),
        lambda s: dp_trace(cost_image(bscans[s], kind), lo[s], hi[s], lam, jump),
        len(bscans),
    )


@settings(max_examples=200)
@given(dp_stacks(min_height=2), st.sampled_from(layers.COST_KINDS), st.data())
def test_cost_rows_equal_the_whole_cost_image_rows(case, kind, data):
    # one new float64 array per B-scan, each row computed as np.gradient
    # computes it on the whole float64 image (a zero's sign aside)
    bscans = case[0].astype(np.float32)
    height = bscans.shape[1]
    top = data.draw(st.integers(0, height - 1))
    bottom = data.draw(st.integers(top + 1, height))
    got = layers._cost_rows(bscans[0], kind, top, bottom)
    assert got.dtype == np.float64 and got.shape == (bottom - top, bscans.shape[2])
    assert np.array_equal(got, cost_image(bscans[0].astype(np.float64), kind)[top:bottom])


@settings(max_examples=200)
@given(dp_stacks(min_height=3, max_slices=8, min_width=2), st.sampled_from(layers.COST_KINDS),
       st.booleans())
def test_float32_stack_traced_in_groups_equals_per_slice_trace(case, kind, infeasible_last):
    # the first slice's band spans the height, so the DP table of the whole
    # float32 stack outgrows the stack's bytes and _trace_stack splits it;
    # an infeasible band in a later group is named by its slice in the stack
    cost, lo, hi, lam, jump = case
    bscans = cost.astype(np.float32)
    n_slices, height, width = bscans.shape
    lo[0], hi[0] = 0, height - 1
    if n_slices > 1 and infeasible_last:
        # columns alternate between the top and bottom rows, past max_jump
        jump = min(jump, height - 2)
        lo[-1] = hi[-1] = np.where(np.arange(width) % 2, height - 1, 0)
    with mock.patch.object(layers, "dp_trace", wraps=kernels.dp_trace) as dp:
        assert_matches_per_slice(
            lambda: layers._trace_stack(bscans, kind, lo, hi, lam, jump),
            lambda s: dp_trace(cost_image(bscans[s].astype(np.float64), kind),
                               lo[s], hi[s], lam, jump),
            n_slices,
        )
    # each DP call took part of the stack
    assert all(len(call.args[1]) < n_slices for call in dp.call_args_list) or n_slices == 1


def test_infeasible_stack_names_slice_and_column():
    cost = np.zeros((4, 9, 3))
    lo = np.zeros((4, 3), dtype=np.int64)
    hi = np.full((4, 3), 8, dtype=np.int64)
    lo[2], hi[2] = [0, 0, 8], [1, 1, 8]  # test_dp's infeasible band, in slice 2
    lo[3], hi[3] = [8, 0, 0], [8, 0, 0]
    with pytest.raises(InfeasibleBandError) as err:
        kernels.dp_trace(cost, lo, hi, 0.5, 2)
    assert (err.value.slice, err.value.column) == (2, 1)
    assert str(err.value) == "no feasible boundary path at column 1 of slice 2"
    with pytest.raises(InfeasibleBandError) as alone:
        dp_trace(cost[2], lo[2], hi[2], 0.5, 2)
    assert alone.value.slice is None
    assert str(alone.value) == "no feasible boundary path at column 1"


def test_slices_do_not_reach_into_their_neighbours():
    # the middle slice's edge rows sit max_jump rows from far cheaper rows of
    # the slices above and below it; only the pads between them keep those
    # rows out of its candidates, and out of theirs
    height, width, jump = 6, 5, 2
    cost = np.zeros((3, height, width))
    cost[0, -1], cost[2, 0] = -1e3, -1e3
    lo = np.zeros((3, width), dtype=np.int64)
    hi = np.full((3, width), height - 1, dtype=np.int64)
    for stack in (cost, cost[::-1]):
        want = _per_slice(stack, lo, hi, 0.5, jump)
        assert np.array_equal(kernels.dp_trace(stack, lo, hi, 0.5, jump), want)
    assert np.array_equal(want[1], np.zeros(width))


@pytest.mark.parametrize("height, jump", [(1, 1), (3, 3), (3, 5), (4, 9)])
def test_max_jump_at_least_height(height, jump):
    rng = np.random.default_rng(height * 10 + jump)
    cost = rng.integers(0, 4, size=(3, height, 7)) / 8.0
    lo = rng.integers(0, height, size=(3, 7))
    hi = np.minimum(lo + rng.integers(0, 2, size=(3, 7)), height - 1)
    assert_matches_per_slice(
        lambda: kernels.dp_trace(cost, lo, hi, 0.25, jump),
        lambda s: dp_trace(cost[s], lo[s], hi[s], 0.25, jump),
        3,
    )


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("jump", [1, 2])
def test_widths_one_and_two(width, jump):
    rng = np.random.default_rng(width * 10 + jump)
    cost = rng.integers(0, 4, size=(4, 7, width)) / 8.0
    lo = rng.integers(0, 4, size=(4, width))
    hi = lo + rng.integers(0, 3, size=(4, width))
    assert_matches_per_slice(
        lambda: kernels.dp_trace(cost, lo, hi, 0.5, jump),
        lambda s: dp_trace(cost[s], lo[s], hi[s], 0.5, jump),
        4,
    )


def test_non_contiguous_cost_stack_and_bands():
    rng = np.random.default_rng(8)
    # every other slice of a (width, height, slices) array, reversed in depth
    base = rng.uniform(-1, 1, size=(11, 9, 6))
    cost = base[:, ::-1, ::2].transpose(2, 1, 0)
    assert not cost.flags.c_contiguous
    lo = rng.integers(0, 3, size=(11, 6)).T[::2]
    hi = (8 - rng.integers(0, 3, size=(11, 6))).T[::2]
    want = _per_slice(np.ascontiguousarray(cost), lo, hi, 0.5, 2)
    assert np.array_equal(kernels.dp_trace(cost, lo, hi, 0.5, 2), want)


def test_segment_boundaries_equals_full_height_trace(monkeypatch):
    volume, _ = generate(default_config("desk", seed=3))
    windowed = segment_boundaries(volume)

    def full_height(bscans, kind, band_lo, band_hi, smoothness, max_jump):
        columns = (bscans.shape[0], bscans.shape[2])
        return np.stack([
            dp_trace(cost_image(bscan.astype(np.float64), kind), lo, hi,
                     smoothness, max_jump)
            for bscan, lo, hi in zip(bscans, np.broadcast_to(band_lo, columns),
                                     np.broadcast_to(band_hi, columns))
        ])

    monkeypatch.setattr(layers, "_trace_stack", full_height)
    reference = segment_boundaries(volume)
    for name, surface in windowed.surfaces.items():
        assert np.array_equal(surface, reference.surfaces[name]), name


def test_numpy_fallback_in_process():
    # the per-slice reference pieces are importable and callable on their own
    rng = np.random.default_rng(5)
    cost = rng.uniform(0, 1, size=(12, 9))
    lo = np.zeros(9, dtype=np.int64)
    hi = np.full(9, 11, dtype=np.int64)
    table, fail = dp_reference._dp_suffix_numpy(cost, lo, hi, 0.5, 2)
    assert fail == -1
    path = dp_reference._reconstruct(table, lo, hi, 0.5, 2)
    assert path.shape == (9,)
    assert np.all((path >= 0) & (path <= 11))
    assert np.array_equal(path, dp_trace(cost, lo, hi, 0.5, 2))


@pytest.mark.parametrize("jump", [-3, -1, 0, 2.7])
def test_trace_boundary_refuses_a_max_jump_that_is_not_an_integer_of_at_least_1(jump):
    cost = np.random.default_rng(0).random((5, 4))
    with pytest.raises(ConfigError, match="max_jump"):
        trace_boundary(cost, 0, 4, max_jump=jump)


@pytest.mark.parametrize("jump", [1, 2])
def test_trace_boundary_with_max_jump_1_or_2_gives_the_reference_path(jump):
    cost = np.random.default_rng(0).random((5, 4))
    lo, hi = np.zeros(4, dtype=np.int64), np.full(4, 4, dtype=np.int64)
    assert np.array_equal(trace_boundary(cost, 0, 4, max_jump=jump), dp_trace(cost, lo, hi, 0.5, jump))
