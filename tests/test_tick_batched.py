"""Tick-batched re-clustering: the one-cluster kernel, the batched fetch,
and point-for-point parity of the engines that use them.

HWMT, extension and validation answer "is ``O`` still exactly one
cluster?" for many ticks at once with :func:`one_cluster_ticks`, fed by
``Dataset.points_for_many``.  Both must agree with the per-tick paths
they replace, and the vectorized engine must read and count exactly the
points the scalar engine (the per-tick reference) does.
"""

import importlib
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import cluster_snapshot, one_cluster_ticks
from repro.clustering.whole import CELL_BUDGET
from repro.core import ConvoyQuery, K2Hop, MiningStats, scalar_engine
from repro.core.bench_points import HopWindow
from repro.core.hwmt import mine_hop_window
from repro.data import Dataset, random_walk_dataset
from tests.conftest import make_line_dataset

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _per_tick(xs, ys, eps, m):
    """The reference answer, one ``cluster_snapshot`` call per tick."""
    n = xs.shape[1]
    everyone = [frozenset(range(n))]
    return [
        cluster_snapshot(range(n), xs[t], ys[t], eps, m) == everyone
        for t in range(xs.shape[0])
    ]


def _assert_kernel_matches(xs, ys, eps, m):
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    got = one_cluster_ticks(xs, ys, eps, m)
    assert got.dtype == bool and got.shape == (xs.shape[0],)
    assert got.tolist() == _per_tick(xs, ys, eps, m)


class TestOneClusterKernel:
    @given(
        st.integers(1, 4),
        st.integers(0, 9),
        st.integers(1, 3),
        st.integers(2, 5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_integer_grid_matches_per_tick(self, ticks, n, eps, m, seed):
        # Integer coordinates on a small grid with an integer eps: many
        # duplicate positions and pairs exactly eps apart (incl. 3-4-5).
        rng = np.random.default_rng(seed)
        side = int(rng.integers(1, 8))
        xs = rng.integers(0, side, (ticks, n))
        ys = rng.integers(0, side, (ticks, n))
        _assert_kernel_matches(xs, ys, float(eps), m)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_real_coordinates_match_per_tick(self, seed, n):
        rng = np.random.default_rng(seed)
        xs = rng.normal(0.0, 10.0, (6, n))
        ys = rng.normal(0.0, 10.0, (6, n))
        _assert_kernel_matches(xs, ys, 9.0, int(rng.integers(2, 5)))

    def test_fewer_points_than_m(self):
        xs = np.zeros((3, 2))
        assert one_cluster_ticks(xs, xs, 1.0, 3).tolist() == [False] * 3
        empty = np.zeros((2, 0))
        assert one_cluster_ticks(empty, empty, 1.0, 2).tolist() == [False] * 2

    def test_exactly_m_points(self):
        xs = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 5.0]])
        _assert_kernel_matches(xs, np.zeros_like(xs), 1.0, 3)
        _assert_kernel_matches(xs, np.zeros_like(xs), 2.0, 3)

    def test_pair_exactly_eps_apart_is_adjacent(self):
        xs = np.array([[0.0, 3.0, 3.0]])
        ys = np.array([[0.0, 4.0, 4.0]])
        assert one_cluster_ticks(xs, ys, 5.0, 2).tolist() == [True]
        assert one_cluster_ticks(xs, ys, 4.999, 2).tolist() == [False]

    def test_shared_border_point_between_two_cores(self):
        # Point 6 borders both core groups, which are not density-connected:
        # two clusters that share it, not one cluster of all seven.
        xs = np.array([[0.0, 1.0, 2.0, 8.0, 9.0, 10.0, 5.0]])
        assert one_cluster_ticks(xs, np.zeros_like(xs), 3.0, 4).tolist() == [False]
        _assert_kernel_matches(xs, np.zeros_like(xs), 3.0, 4)

    def test_chain_through_cores_is_one_cluster(self):
        xs = np.arange(9, dtype=np.float64)[None, :]
        _assert_kernel_matches(xs, np.zeros_like(xs), 1.0, 3)
        assert one_cluster_ticks(xs, np.zeros_like(xs), 1.0, 3).tolist() == [True]

    def test_two_components(self):
        xs = np.array([[0.0, 0.5, 1.0, 20.0, 20.5, 21.0]])
        assert one_cluster_ticks(xs, np.zeros_like(xs), 1.0, 3).tolist() == [False]

    def test_noise_point_breaks_the_set(self):
        xs = np.array([[0.0, 0.5, 1.0, 9.0]])
        assert one_cluster_ticks(xs, np.zeros_like(xs), 1.0, 3).tolist() == [False]

    @pytest.mark.parametrize("n", [9, int(CELL_BUDGET**0.5) + 1])
    def test_more_cells_than_one_chunk(self, n):
        # Many ticks of a small set run in several chunks; a set too large
        # for one tick's cells falls back to one cluster_snapshot per tick.
        ticks = CELL_BUDGET // (n * n) * 2 + 3
        rng = np.random.default_rng(n)
        xs = rng.normal(0.0, 2.0, (ticks, n))
        ys = rng.normal(0.0, 2.0, (ticks, n))
        xs[::3, 0] += 50.0  # every third tick has a far-off point
        _assert_kernel_matches(xs, ys, 2.5, 3)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            one_cluster_ticks(np.zeros((2, 3)), np.zeros((2, 4)), 1.0, 2)
        with pytest.raises(ValueError):
            one_cluster_ticks(np.zeros(3), np.zeros(3), 1.0, 2)


@st.composite
def _datasets(draw):
    """Rows at random (t, oid) cells, some oids negative, none repeated."""
    cells = draw(
        st.sets(st.tuples(st.integers(-2, 9), st.integers(-3, 12)), max_size=60)
    )
    cells = sorted(cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Dataset(
        np.array([oid for _, oid in cells], dtype=np.int64),
        np.array([t for t, _ in cells], dtype=np.int64),
        rng.normal(size=len(cells)),
        rng.normal(size=len(cells)),
    )


def _assert_same_as_points_for(dataset, ts, oids):
    got = dataset.points_for_many(ts, oids)
    assert list(got) == list(dict.fromkeys(int(t) for t in ts))
    for t, snapshot in got.items():
        expected = dataset.points_for(t, oids)
        for column, reference in zip(snapshot, expected):
            assert column.tolist() == reference.tolist()
        assert [c.dtype for c in snapshot] == [np.int64, np.float64, np.float64]


class TestPointsForMany:
    @given(
        _datasets(),
        st.lists(st.integers(-5, 12), max_size=12),
        st.lists(st.integers(-6, 15), max_size=10),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_tick_points_for(self, dataset, ts, oids):
        # Unsorted and repeated ticks, ticks outside the data, unknown and
        # repeated oids, and empty requests all come up.
        _assert_same_as_points_for(dataset, ts, oids)

    def test_empty_inputs(self):
        _assert_same_as_points_for(Dataset.empty(), [0, 3, 0], [1, 2])
        dataset = Dataset(
            np.array([4, 2, 4]), np.array([0, 1, 1]), np.ones(3), np.zeros(3)
        )
        _assert_same_as_points_for(dataset, [], [2, 4])
        _assert_same_as_points_for(dataset, [1, 0], [])

    def test_key_overflow_falls_back_to_per_tick_select(self):
        dataset = Dataset(
            np.array([0, 2**62, 0, 2**62], dtype=np.int64),
            np.array([0, 0, 9, 9], dtype=np.int64),
            np.arange(4.0),
            np.arange(4.0),
        )
        _assert_same_as_points_for(dataset, [9, 0, 5], [2**62, 0, 7])


def _paperbench():
    """The paper-figure workloads, importable as the benchmarks import them."""
    if str(BENCHMARKS) not in sys.path:
        sys.path.insert(0, str(BENCHMARKS))
    return importlib.import_module("paperbench")


def _assert_engines_agree(dataset, query):
    vectorized = K2Hop(query).mine(dataset)
    with scalar_engine():
        scalar = K2Hop(query).mine(dataset)
    assert vectorized.convoys == scalar.convoys
    v, s = vectorized.stats, scalar.stats
    assert v.points_processed_by_phase == s.points_processed_by_phase
    for count in (
        "candidate_cluster_count",
        "spanning_convoy_count",
        "merged_convoy_count",
        "pre_validation_convoy_count",
        "convoy_count",
    ):
        assert getattr(v, count) == getattr(s, count), count


class TestEnginePointParity:
    """Same convoys, same points read per phase, same pruning counts."""

    @pytest.mark.parametrize("name", ["trucks", "tdrive", "brinkhoff"])
    def test_paperbench_workloads(self, name):
        paperbench = _paperbench()
        _assert_engines_agree(
            paperbench.DATASETS[name](), paperbench.DEFAULT_QUERIES[name]
        )

    def test_planted_fixture(self, planted, planted_query):
        _assert_engines_agree(planted.dataset, planted_query)

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_random_walk(self, seed):
        # Short hops and frequent splits exercise the split-frontier loop
        # and multi-convoy extension frontiers.
        dataset = random_walk_dataset(
            n_objects=20, duration=40, extent=40.0, step=5.0, seed=seed
        )
        _assert_engines_agree(dataset, ConvoyQuery(m=2, k=6, eps=9.0))


class TestSplitFrontier:
    def test_split_piece_equal_to_a_later_whole_survivor(self):
        # Root tick 2 holds all six objects; at ticks 1 and 3, {0,1,2} and
        # {3,4,5} part.  The first survivor splits into a piece equal to
        # the second survivor, which stays whole: the piece keeps the first
        # survivor's place, exactly as in a loop re-clustering every entry.
        near = {0: (0, 0), 1: (1, 0), 2: (2, 0)}
        far = {3: (100, 0), 4: (101, 0), 5: (102, 0)}
        together = {**near, 3: (3, 0), 4: (4, 0), 5: (5, 0)}
        dataset = make_line_dataset(
            {0: together, 1: {**near, **far}, 2: together,
             3: {**near, **far}, 4: together}
        )
        query = ConvoyQuery(m=3, k=8, eps=1.5)
        candidates = [frozenset(range(6)), frozenset({0, 1, 2})]
        window = HopWindow(0, 4)
        stats = MiningStats()
        mined = mine_hop_window(dataset, window, candidates, query, stats)
        reference_stats = MiningStats()
        with scalar_engine():
            reference = mine_hop_window(
                dataset, window, candidates, query, reference_stats
            )
        assert [c.objects for c in mined] == [
            frozenset({0, 1, 2}), frozenset({3, 4, 5})
        ]
        assert mined == reference
        assert stats.points_processed_by_phase == (
            reference_stats.points_processed_by_phase
        )
