"""Dataset container: sorting, snapshots, restrictions, IO round-trips."""

import numpy as np
import pytest

from repro.core.types import Convoy
from repro.data import (
    Dataset,
    load_csv,
    load_npz,
    random_walk_dataset,
    save_csv,
    save_npz,
)


@pytest.fixture()
def dataset():
    return Dataset.from_records(
        [
            (2, 1, 5.0, 6.0),
            (1, 0, 1.0, 2.0),
            (1, 1, 3.0, 4.0),
            (3, 2, 7.0, 8.0),
            (2, 0, 0.5, 0.5),
        ]
    )


class TestConstruction:
    def test_sorted_by_time_then_oid(self, dataset):
        assert dataset.ts.tolist() == [0, 0, 1, 1, 2]
        assert dataset.oids.tolist() == [1, 2, 1, 2, 3]

    def test_from_records_empty(self):
        assert len(Dataset.from_records([])) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([1]), np.array([1, 2]), np.array([0.0]), np.array([0.0]))

    def test_info(self, dataset):
        info = dataset.info()
        assert info.num_points == 5
        assert info.num_objects == 3
        assert info.start_time == 0 and info.end_time == 2
        assert info.duration == 3


class TestAccessPaths:
    def test_snapshot(self, dataset):
        oids, xs, ys = dataset.snapshot(1)
        assert oids.tolist() == [1, 2]
        assert xs.tolist() == [3.0, 5.0]

    def test_snapshot_missing_time(self, dataset):
        oids, _, _ = dataset.snapshot(99)
        assert oids.size == 0

    def test_points_for_subset(self, dataset):
        oids, xs, _ = dataset.points_for(1, [2])
        assert oids.tolist() == [2]
        assert xs.tolist() == [5.0]

    def test_points_for_absent_oid(self, dataset):
        oids, _, _ = dataset.points_for(1, [99])
        assert oids.size == 0

    def test_points_for_mixed_presence(self, dataset):
        oids, _, _ = dataset.points_for(0, [1, 3])
        assert oids.tolist() == [1]

    def test_points_for_duplicate_request(self, dataset):
        oids, _, _ = dataset.points_for(0, [1, 1, 1])
        assert oids.tolist() == [1]

    def test_points_for_near_miss_ids(self, dataset):
        # Requesting an id that would searchsorted onto a *different*
        # present id must not fabricate rows.
        oids, _, _ = dataset.points_for(2, [2])
        assert oids.size == 0

    def test_timestamps_and_objects(self, dataset):
        assert dataset.timestamps().tolist() == [0, 1, 2]
        assert dataset.objects().tolist() == [1, 2, 3]


class TestRestriction:
    def test_restrict_objects(self, dataset):
        reduced = dataset.restrict_objects([1])
        assert set(reduced.oids.tolist()) == {1}
        assert reduced.num_points == 2

    def test_restrict_time(self, dataset):
        reduced = dataset.restrict_time(1, 2)
        assert reduced.ts.min() == 1 and reduced.ts.max() == 2
        assert reduced.num_points == 3

    def test_restrict_time_empty_window(self, dataset):
        assert dataset.restrict_time(50, 60).num_points == 0

    def test_concat(self, dataset):
        doubled = dataset.concat(dataset)
        assert doubled.num_points == 2 * dataset.num_points


class TestMemberBBox:
    """``member_bbox``: the extent the convoy index stores for a convoy."""

    def test_spans_every_member_row_of_the_lifetime(self, dataset):
        assert dataset.member_bbox(Convoy.of([1, 2], 0, 1)) == (0.5, 0.5, 5.0, 6.0)

    def test_rows_outside_the_lifetime_are_ignored(self, dataset):
        assert dataset.member_bbox(Convoy.of([1, 2], 1, 1)) == (3.0, 4.0, 5.0, 6.0)

    def test_rows_of_other_objects_are_ignored(self, dataset):
        assert dataset.member_bbox(Convoy.of([1], 0, 2)) == (1.0, 2.0, 3.0, 4.0)

    def test_none_when_no_member_row_falls_in_the_lifetime(self, dataset):
        assert dataset.member_bbox(Convoy.of([1, 2], 2, 2)) is None
        assert dataset.member_bbox(Convoy.of([7, 8], 0, 2)) is None
        assert Dataset.empty().member_bbox(Convoy.of([1, 2], 0, 5)) is None

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_min_max(self, seed):
        ds = random_walk_dataset(n_objects=12, duration=30, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            members = rng.choice(ds.objects(), size=3, replace=False).tolist()
            start = int(rng.integers(ds.start_time, ds.end_time + 1))
            end = int(rng.integers(start, ds.end_time + 1))
            keep = (
                np.isin(ds.oids, members) & (ds.ts >= start) & (ds.ts <= end)
            )
            expected = (
                float(ds.xs[keep].min()), float(ds.ys[keep].min()),
                float(ds.xs[keep].max()), float(ds.ys[keep].max()),
            )
            assert ds.member_bbox(Convoy.of(members, start, end)) == expected


class TestEquality:
    def test_equal_roundtrip(self, dataset):
        same = Dataset.from_records(list(dataset.iter_records()))
        assert same == dataset

    def test_not_equal_different_points(self, dataset):
        other = Dataset.from_records([(1, 0, 9.0, 9.0)])
        assert dataset != other


class TestIO:
    def test_csv_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        assert load_csv(path) == dataset

    def test_npz_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "data.npz"
        save_npz(dataset, path)
        assert load_npz(path) == dataset

    def test_csv_preserves_float_precision(self, tmp_path):
        dataset = Dataset.from_records([(1, 0, 0.1 + 0.2, 1e-17)])
        path = tmp_path / "precise.csv"
        save_csv(dataset, path)
        assert load_csv(path) == dataset

    def test_empty_time_range_raises(self):
        with pytest.raises(ValueError):
            Dataset.empty().start_time
