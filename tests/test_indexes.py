"""Spatial indexes: the grid agrees with brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.clustering import BruteForceIndex, GridIndex
from repro.clustering.neighbors import pairwise_neighbor_lists

coords = arrays(
    np.float64,
    st.integers(1, 40),
    elements=st.floats(-100, 100, allow_nan=False, width=32),
)


def _points(seed, n=60, extent=50.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, extent, size=(n, 2))
    return pts[:, 0], pts[:, 1]


class TestBruteForceIndex:
    def test_includes_self(self):
        xs, ys = np.array([0.0, 10.0]), np.array([0.0, 0.0])
        index = BruteForceIndex(xs, ys)
        assert 0 in index.neighbors(0, 1.0)

    def test_boundary_is_inclusive(self):
        xs, ys = np.array([0.0, 3.0]), np.array([0.0, 4.0])
        index = BruteForceIndex(xs, ys)
        assert set(index.neighbors(0, 5.0).tolist()) == {0, 1}
        assert set(index.neighbors(0, 4.999).tolist()) == {0}

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BruteForceIndex(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("eps", [1.0, 5.0, 20.0])
def test_grid_matches_brute_force(seed, eps):
    xs, ys = _points(seed)
    grid = GridIndex(xs, ys, eps)
    brute = BruteForceIndex(xs, ys)
    for i in range(len(xs)):
        assert sorted(grid.neighbors(i, eps).tolist()) == sorted(
            brute.neighbors(i, eps).tolist()
        )


def test_grid_rejects_queries_beyond_cell_size():
    xs, ys = _points(0, n=10)
    grid = GridIndex(xs, ys, 2.0)
    with pytest.raises(ValueError):
        grid.neighbors(0, 5.0)


def test_grid_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        GridIndex(np.zeros(2), np.zeros(2), 0.0)


def test_grid_handles_duplicates():
    xs = np.array([1.0, 1.0, 1.0, 5.0])
    ys = np.array([2.0, 2.0, 2.0, 5.0])
    grid = GridIndex(xs, ys, 0.1)
    assert set(grid.neighbors(0, 0.1).tolist()) == {0, 1, 2}
    assert set(grid.neighbors(3, 0.1).tolist()) == {3}


def test_grid_empty():
    grid = GridIndex(np.empty(0), np.empty(0), 1.0)
    assert len(grid) == 0


def test_grid_large_set_matches_brute_force():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1000, size=(5000, 2))
    grid = GridIndex(pts[:, 0], pts[:, 1], 30.0)
    for i in range(0, 5000, 97):
        dx, dy = pts[:, 0] - pts[i, 0], pts[:, 1] - pts[i, 1]
        expected = np.flatnonzero(dx * dx + dy * dy <= 900.0)
        assert sorted(grid.neighbors(i, 30.0).tolist()) == expected.tolist()


@given(st.integers(0, 10_000), st.floats(0.5, 30.0))
@settings(max_examples=25, deadline=None)
def test_property_grid_and_brute_force_agree(seed, eps):
    xs, ys = _points(seed, n=30)
    grid = GridIndex(xs, ys, eps)
    brute = BruteForceIndex(xs, ys)
    for i in range(len(xs)):
        assert sorted(grid.neighbors(i, eps).tolist()) == sorted(
            brute.neighbors(i, eps).tolist()
        )


def test_pairwise_helper_symmetry():
    xs, ys = _points(3, n=25)
    lists = pairwise_neighbor_lists(xs, ys, 10.0)
    for i, neighbors in enumerate(lists):
        for j in neighbors.tolist():
            assert i in lists[j].tolist()
