"""End-to-end k/2-hop: exactness, pruning, stats, and edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import mine_oracle, mine_vcoda_star
from repro.core import ConvoyQuery, K2Hop
from repro.data import Dataset, plant_convoys, random_walk_dataset


class TestExactness:
    @pytest.mark.parametrize("seed", range(10))
    def test_equals_vcoda_star_on_random_walks(self, seed):
        ds = random_walk_dataset(
            n_objects=10, duration=24, extent=55.0, step=8.0, seed=seed
        )
        query = ConvoyQuery(m=3, k=5, eps=13.0)
        assert set(K2Hop(query).mine(ds).convoys) == set(mine_vcoda_star(ds, query))

    @pytest.mark.parametrize(
        "m,k,eps", [(2, 3, 10.0), (3, 4, 14.0), (2, 6, 9.0), (4, 5, 18.0)]
    )
    def test_equals_oracle_on_tiny_inputs(self, m, k, eps):
        ds = random_walk_dataset(
            n_objects=7, duration=13, extent=40.0, step=7.0, seed=m * 10 + k
        )
        query = ConvoyQuery(m=m, k=k, eps=eps)
        assert set(K2Hop(query).mine(ds).convoys) == set(mine_oracle(ds, query))

    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(2, 4),
        k=st.integers(2, 8),
        eps=st.floats(6.0, 20.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_equals_vcoda_star(self, seed, m, k, eps):
        ds = random_walk_dataset(
            n_objects=8, duration=16, extent=45.0, step=8.0, seed=seed
        )
        query = ConvoyQuery(m=m, k=k, eps=eps)
        assert set(K2Hop(query).mine(ds).convoys) == set(mine_vcoda_star(ds, query))

    def test_k_equal_one_degenerate_path(self):
        ds = random_walk_dataset(n_objects=7, duration=8, extent=30.0, step=6.0, seed=3)
        query = ConvoyQuery(m=3, k=1, eps=12.0)
        assert set(K2Hop(query).mine(ds).convoys) == set(mine_oracle(ds, query))


class TestResultProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_output_is_an_antichain_of_long_enough_convoys(self, seed):
        ds = random_walk_dataset(n_objects=10, duration=20, extent=50.0, step=8.0, seed=seed)
        query = ConvoyQuery(m=3, k=4, eps=12.0)
        convoys = K2Hop(query).mine(ds).convoys
        for convoy in convoys:
            assert convoy.duration >= query.k
            assert convoy.size >= query.m
        for a in convoys:
            for b in convoys:
                assert a == b or not a.is_subconvoy_of(b)

    def test_every_result_is_fully_connected(self):
        from repro.core.validate import is_fully_connected

        ds = random_walk_dataset(n_objects=10, duration=20, extent=50.0, step=8.0, seed=7)
        query = ConvoyQuery(m=3, k=4, eps=12.0)
        for convoy in K2Hop(query).mine(ds).convoys:
            assert is_fully_connected(ds, convoy, query)


class TestPlantedRecovery:
    def test_recovers_all_planted(self, planted, planted_query):
        mined = K2Hop(planted_query).mine(planted.dataset).convoys
        for truth in planted.convoys:
            assert any(
                truth.objects <= found.objects
                and found.interval.contains_interval(truth.interval)
                for found in mined
            )

    def test_prunes_noise_heavily(self, planted, planted_query):
        result = K2Hop(planted_query).mine(planted.dataset)
        assert result.stats.pruning_ratio > 0.30  # small data, still prunes

    def test_pruning_dominates_on_sparse_data(self):
        workload = plant_convoys(
            n_convoys=2, convoy_size=4, convoy_duration=40, n_noise=120,
            duration=200, extent=5000.0, seed=5,
        )
        query = ConvoyQuery(m=3, k=30, eps=workload.eps)
        result = K2Hop(query).mine(workload.dataset)
        # Benchmark snapshots alone cost 1/hop of the data; with k=30
        # (hop 15) everything beyond that floor should be pruned away.
        assert result.stats.pruning_ratio > 0.88


class TestStats:
    def test_phase_times_recorded(self, planted, planted_query):
        stats = K2Hop(planted_query).mine(planted.dataset).stats
        for phase in (
            "benchmark_clustering",
            "candidate_intersection",
            "hwmt",
            "merge",
            "extend_right",
            "extend_left",
            "validation",
        ):
            assert phase in stats.phase_times

    def test_counters_consistent(self, planted, planted_query):
        result = K2Hop(planted_query).mine(planted.dataset)
        stats = result.stats
        assert stats.total_points == planted.dataset.num_points
        assert stats.convoy_count == len(result.convoys)
        assert stats.benchmark_point_count > 0
        assert 0.0 <= stats.pruning_ratio <= 1.0
        assert stats.pre_validation_convoy_count >= stats.convoy_count

    def test_summary_renders(self, planted, planted_query):
        stats = K2Hop(planted_query).mine(planted.dataset).stats
        text = stats.summary()
        assert "pruning" in text and "convoys found" in text


class TestEdgeCases:
    def test_empty_dataset(self):
        result = K2Hop(ConvoyQuery(m=2, k=3, eps=1.0)).mine(Dataset.empty())
        assert result.convoys == [] and len(result) == 0

    def test_dataset_shorter_than_k(self):
        ds = random_walk_dataset(n_objects=5, duration=4, seed=0)
        result = K2Hop(ConvoyQuery(m=2, k=10, eps=5.0)).mine(ds)
        assert result.convoys == []

    def test_single_timestamp_dataset(self):
        ds = Dataset.from_records([(0, 5, 0.0, 0.0), (1, 5, 1.0, 0.0)])
        result = K2Hop(ConvoyQuery(m=2, k=1, eps=2.0)).mine(ds)
        assert result.convoys == [  # one snapshot, one cluster, k=1
            type(result.convoys[0]).of([0, 1], 5, 5)
        ] if result.convoys else result.convoys == []
        assert len(result.convoys) == 1

    def test_mining_result_iterable(self, planted, planted_query):
        result = K2Hop(planted_query).mine(planted.dataset)
        assert list(result) == result.convoys
