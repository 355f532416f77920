"""kd-tree correctness, step accounting, and capped traversal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.spatial import KDTree, brute_force_knn, brute_force_range


@pytest.fixture
def tree(rng):
    return KDTree(rng.normal(size=(300, 3)))


def test_build_validations():
    with pytest.raises(ValidationError):
        KDTree(np.zeros((0, 3)))
    with pytest.raises(ValidationError):
        KDTree(np.zeros((5, 2)))


def test_knn_matches_brute_force(tree, rng):
    for _ in range(20):
        query = rng.normal(size=3)
        exact = brute_force_knn(tree.points, query, 5)
        found = tree.knn(query, 5)
        np.testing.assert_array_equal(found.indices, exact.indices)
        np.testing.assert_allclose(found.distances, exact.distances)


def test_knn_k_larger_than_n(rng):
    tree = KDTree(rng.normal(size=(4, 3)))
    result = tree.knn(np.zeros(3), 10)
    assert len(result.indices) == 4


def test_knn_validations(tree):
    with pytest.raises(ValidationError):
        tree.knn(np.zeros(3), 0)
    with pytest.raises(ValidationError):
        tree.knn(np.zeros(2), 1)
    with pytest.raises(ValidationError):
        tree.knn(np.zeros(3), 1, max_steps=0)


def test_knn_step_cap_terminates(tree):
    capped = tree.knn(tree.points[0], 8, max_steps=3)
    assert capped.terminated
    assert capped.steps == 3


def test_knn_cap_returns_best_so_far(tree):
    capped = tree.knn(tree.points[0], 4, max_steps=5)
    assert 0 < len(capped.indices) <= 4
    # Distances must be sorted ascending.
    assert np.all(np.diff(capped.distances) >= 0)


def test_knn_uncapped_never_terminated(tree, rng):
    result = tree.knn(rng.normal(size=3), 3)
    assert not result.terminated
    assert result.steps <= len(tree)


def test_large_cap_equals_uncapped(tree, rng):
    query = rng.normal(size=3)
    full = tree.knn(query, 5)
    capped = tree.knn(query, 5, max_steps=10 * len(tree))
    np.testing.assert_array_equal(full.indices, capped.indices)
    assert not capped.terminated


def test_trace_records_visits(tree):
    result = tree.knn(tree.points[0], 3, record_trace=True)
    assert len(result.trace) == result.steps
    assert all(0 <= n < len(tree) for n in result.trace)


def test_range_matches_brute_force(tree, rng):
    for _ in range(10):
        query = rng.normal(size=3)
        exact = brute_force_range(tree.points, query, 0.8)
        found = tree.range_search(query, 0.8)
        np.testing.assert_array_equal(np.sort(found.indices),
                                      np.sort(exact.indices))


def test_range_max_results(tree):
    result = tree.range_search(tree.points[0], 2.0, max_results=3)
    assert len(result.indices) <= 3
    # Closest results kept.
    assert np.all(np.diff(result.distances) >= 0)


def test_range_validations(tree):
    with pytest.raises(ValidationError):
        tree.range_search(np.zeros(3), -1.0)


def test_range_step_cap(tree):
    result = tree.range_search(tree.points[0], 1.0, max_steps=2)
    assert result.terminated
    assert result.steps == 2


def test_profile_steps(tree):
    steps = tree.profile_steps(tree.points[:10], 4)
    assert steps.shape == (10,)
    assert np.all(steps > 0)


def test_depth_reasonable(tree):
    depth = tree.depth()
    # Median splits keep the tree balanced: depth ~ log2(n) + slack.
    assert np.log2(len(tree)) <= depth <= 4 * np.log2(len(tree))


def test_duplicate_points_handled():
    pts = np.zeros((10, 3))
    tree = KDTree(pts)
    result = tree.knn(np.zeros(3), 3)
    assert len(result.indices) == 3
    np.testing.assert_allclose(result.distances, 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 10))
def test_knn_property_exactness(seed, k):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(60, 3))
    tree = KDTree(pts)
    query = rng.normal(size=3)
    exact = brute_force_knn(pts, query, k)
    found = tree.knn(query, k)
    np.testing.assert_allclose(found.distances, exact.distances,
                               atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), cap=st.integers(1, 40))
def test_capped_steps_never_exceed_cap(seed, cap):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(50, 3))
    tree = KDTree(pts)
    result = tree.knn(rng.normal(size=3), 5, max_steps=cap)
    assert result.steps <= cap


def _walked_depth(tree):
    """Oracle: deepest node (root = 1) by an explicit left/right walk."""
    best = 0
    stack = [(tree.root, 1)]
    while stack:
        node, depth = stack.pop()
        if node == -1:
            continue
        best = max(best, depth)
        stack.append((int(tree.left[node]), depth + 1))
        stack.append((int(tree.right[node]), depth + 1))
    return best


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 3000),
       layout=st.sampled_from(["uniform", "duplicates", "collinear"]))
def test_depth_closed_form_matches_walk(seed, n, layout):
    rng = np.random.default_rng(seed)
    if layout == "uniform":
        pts = rng.uniform(0, 1, size=(n, 3))
    elif layout == "duplicates":
        pts = rng.integers(0, 3, size=(n, 3)).astype(np.float64)
    else:
        t = rng.uniform(0, 1, size=n)
        pts = np.stack([t, 2 * t, -t], axis=1)
    tree = KDTree(pts)
    assert tree.depth() == _walked_depth(tree) == n.bit_length()
