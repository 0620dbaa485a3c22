import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oct_cascade.errors import ConfigError, InfeasibleBandError
from oct_cascade.layers import trace_boundary

from dp_reference import dp_trace


def enumerate_paths(height, width, lo, hi, max_jump):
    """Every feasible path, as an array of shape (n_paths, width).

    Exhaustive: all start depths crossed with all jump sequences, filtered
    to the bands. Independent of the dynamic program under test.
    """
    jumps = np.array(list(itertools.product(range(-max_jump, max_jump + 1), repeat=width - 1)))
    starts = np.arange(lo[0], hi[0] + 1)
    paths = starts[:, None, None] + np.concatenate(
        [np.zeros((len(jumps), 1), dtype=int), np.cumsum(jumps, axis=1)], axis=1
    )[None, :, :]
    paths = paths.reshape(-1, width)
    ok = np.ones(len(paths), dtype=bool)
    for x in range(width):
        ok &= (paths[:, x] >= lo[x]) & (paths[:, x] <= hi[x])
    return paths[ok]


def brute_force_best(cost, lo, hi, lam, max_jump):
    """Minimum path cost and the lexicographically smallest optimal path."""
    height, width = cost.shape
    paths = enumerate_paths(height, width, lo, hi, max_jump)
    assert len(paths) > 0
    data = cost[paths, np.arange(width)[None, :]].sum(axis=1)
    smooth = lam * np.abs(np.diff(paths, axis=1)).sum(axis=1)
    totals = data + smooth
    best = totals.min()
    optimal = paths[totals == best]
    order = np.lexsort(optimal.T[::-1])
    return best, optimal[order[0]]


def dyadic_costs(rng, height, width):
    # Sixteenths keep every partial sum exact in float64, so the DP total
    # and the enumeration total can be compared with ==.
    return rng.integers(0, 16, size=(height, width)).astype(np.float64) / 8.0


def test_single_minimal_row_is_followed():
    cost = np.ones((8, 6))
    cost[5, :] = 0.0
    path = trace_boundary(cost, 0, 7, smoothness=0.0, max_jump=2)
    assert np.array_equal(path, np.full(6, 5))


def test_uniform_cost_ties_break_to_lowest_depth():
    cost = np.ones((8, 6))
    path = trace_boundary(cost, 2, 7, smoothness=1.0, max_jump=2)
    assert np.array_equal(path, np.full(6, 2))


def test_matches_exhaustive_search_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(25):
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
        # the per-B-scan reference the batched DP is held to finds it too
        assert np.array_equal(dp_trace(cost, lo, hi, 0.5, 2), want_path)


def test_per_column_bands_respected():
    rng = np.random.default_rng(3)
    cost = dyadic_costs(rng, 10, 8)
    lo = np.array([0, 0, 2, 2, 4, 4, 2, 0])
    hi = np.array([9, 9, 6, 6, 8, 8, 9, 9])
    path = trace_boundary(cost, lo, hi, smoothness=0.5, max_jump=2)
    assert np.all(path >= lo) and np.all(path <= hi)
    assert np.max(np.abs(np.diff(path))) <= 2


def test_infeasible_band_names_column():
    cost = np.zeros((9, 3))
    lo = np.array([0, 0, 8])
    hi = np.array([1, 1, 8])
    with pytest.raises(InfeasibleBandError) as err:
        trace_boundary(cost, lo, hi, smoothness=0.5, max_jump=2)
    assert err.value.column == 1
    assert "column 1" in str(err.value)


def test_empty_band_rejected():
    with pytest.raises(ConfigError, match="column 0"):
        trace_boundary(np.zeros((6, 4)), 5, 3)
    with pytest.raises(ConfigError):
        trace_boundary(np.zeros((6, 4)), 0, 6)  # outside the image


def test_non_finite_cost_rejected():
    from oct_cascade.errors import ValidationError

    cost = np.zeros((6, 4))
    cost[2, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        trace_boundary(cost, 0, 5)


def test_zero_width_cost_rejected():
    from oct_cascade.errors import ShapeMismatchError

    with pytest.raises(ShapeMismatchError, match="no columns"):
        trace_boundary(np.zeros((5, 0)), 0, 0)


@settings(max_examples=300)
@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, 3.0]))
def test_a_jump_beyond_the_image_traces_as_height_minus_one(height, width, seed, lam):
    """A jump as deep as the image or deeper reaches only +inf pads, so
    10**12 gives the paths, and the band errors, of height - 1 (of 1, the
    least max_jump, on a one-row image): the paths the unclamped
    per-B-scan reference gives."""
    rng = np.random.default_rng(seed)
    cost = dyadic_costs(rng, height, width)
    lo = rng.integers(0, height, width)
    hi = np.minimum(lo + rng.integers(-1, height, width), height - 1)  # -1 leaves a band empty

    def outcome(max_jump):
        try:
            return trace_boundary(cost, lo, hi, smoothness=lam, max_jump=max_jump).tolist()
        except ConfigError as exc:
            return str(exc)

    got = outcome(10**12)
    assert got == outcome(max(height - 1, 1))
    if not isinstance(got, str):
        assert got == dp_trace(cost, lo, hi, lam, height - 1).tolist()
