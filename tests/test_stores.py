"""Store-level integration: every backend serves identical mining results."""

import os

import pytest

from repro.core import ConvoyQuery, K2Hop
from repro.data import plant_convoys
from repro.storage import (
    STORE_KINDS,
    FlatFileStore,
    LSMTStore,
    MemoryStore,
    RelationalStore,
    build_store,
)


@pytest.fixture(scope="module")
def workload():
    return plant_convoys(
        n_convoys=2, convoy_size=4, convoy_duration=16, n_noise=15,
        duration=48, seed=2,
    )


@pytest.fixture(scope="module")
def query(workload):
    return ConvoyQuery(m=3, k=8, eps=workload.eps)


@pytest.fixture(scope="module")
def expected(workload, query):
    return K2Hop(query).mine(workload.dataset).convoys


class TestMemoryStore:
    def test_same_results_as_dataset(self, workload, query, expected):
        store = MemoryStore(workload.dataset)
        assert K2Hop(query).mine(store).convoys == expected

    def test_counts_accesses(self, workload, query):
        store = MemoryStore(workload.dataset)
        K2Hop(query).mine(store)
        assert store.stats.range_scans > 0
        assert store.stats.point_queries > 0


class TestRelationalStore:
    def test_same_results(self, workload, query, expected, tmp_path):
        store = RelationalStore.create(str(tmp_path / "rel.db"), workload.dataset)
        try:
            assert K2Hop(query).mine(store).convoys == expected
        finally:
            store.close()

    def test_snapshot_matches_dataset(self, workload, tmp_path):
        store = RelationalStore.create(str(tmp_path / "rel2.db"), workload.dataset)
        try:
            t = workload.dataset.start_time + 3
            s_oids, s_xs, _ = store.snapshot(t)
            d_oids, d_xs, _ = workload.dataset.snapshot(t)
            assert s_oids.tolist() == d_oids.tolist()
            assert s_xs.tolist() == d_xs.tolist()
        finally:
            store.close()

    def test_points_for_matches_dataset(self, workload, tmp_path):
        store = RelationalStore.create(str(tmp_path / "rel3.db"), workload.dataset)
        try:
            t = workload.dataset.start_time + 5
            subset = workload.dataset.objects()[:4].tolist()
            s_oids, _, _ = store.points_for(t, subset)
            d_oids, _, _ = workload.dataset.points_for(t, subset)
            assert s_oids.tolist() == d_oids.tolist()
        finally:
            store.close()

    def test_time_bounds(self, workload, tmp_path):
        store = RelationalStore.create(str(tmp_path / "rel4.db"), workload.dataset)
        try:
            assert store.start_time == workload.dataset.start_time
            assert store.end_time == workload.dataset.end_time
            assert store.num_points == workload.dataset.num_points
        finally:
            store.close()

    def test_incremental_insert(self, tmp_path):
        store = RelationalStore(str(tmp_path / "inc.db"))
        try:
            store.insert(oid=3, t=7, x=1.5, y=2.5)
            oids, xs, ys = store.snapshot(7)
            assert oids.tolist() == [3]
            assert xs[0] == 1.5 and ys[0] == 2.5
        finally:
            store.close()

    def test_reports_physical_io(self, workload, query, tmp_path):
        store = RelationalStore.create(
            str(tmp_path / "rel5.db"), workload.dataset, pool_pages=4
        )
        try:
            store.stats.reset()
            K2Hop(query).mine(store)
            # With a 4-page pool the tree cannot stay cached.
            assert store.stats.pages_read > 0
            assert store.stats.seeks > 0
        finally:
            store.close()


class TestLSMTStore:
    def test_same_results(self, workload, query, expected, tmp_path):
        store = LSMTStore.create(str(tmp_path / "lsm"), workload.dataset)
        try:
            assert K2Hop(query).mine(store).convoys == expected
        finally:
            store.close()

    def test_bounds_and_count(self, workload, tmp_path):
        store = LSMTStore.create(str(tmp_path / "lsm2"), workload.dataset)
        try:
            assert store.num_points == workload.dataset.num_points
            assert store.start_time == workload.dataset.start_time
            assert store.end_time == workload.dataset.end_time
        finally:
            store.close()

    def test_incremental_insert_visible(self, tmp_path):
        store = LSMTStore(str(tmp_path / "lsm3"))
        try:
            store.insert(oid=1, t=3, x=1.0, y=2.0)
            store.insert(oid=2, t=3, x=1.5, y=2.5)
            oids, _, _ = store.snapshot(3)
            assert oids.tolist() == [1, 2]
        finally:
            store.close()

    def test_reports_physical_io(self, workload, query, tmp_path):
        store = LSMTStore.create(str(tmp_path / "lsm4"), workload.dataset)
        try:
            store.stats.reset()
            K2Hop(query).mine(store)
            assert store.stats.bytes_read > 0
            assert store.stats.seeks > 0
        finally:
            store.close()


class TestFlatFileStore:
    def test_same_results(self, workload, query, expected, tmp_path):
        store = FlatFileStore.create(str(tmp_path / "flat.bin"), workload.dataset)
        assert K2Hop(query).mine(store).convoys == expected

    def test_one_full_scan_then_memory(self, workload, query, tmp_path):
        store = FlatFileStore.create(str(tmp_path / "flat2.bin"), workload.dataset)
        K2Hop(query).mine(store)
        assert store.stats.full_scans == 1  # single cold scan

    def test_num_points_from_file_size(self, workload, tmp_path):
        store = FlatFileStore.create(str(tmp_path / "flat3.bin"), workload.dataset)
        assert store.num_points == workload.dataset.num_points


class TestBuildStore:
    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_every_kind_builds_and_mines_the_same(
        self, workload, query, expected, tmp_path, kind
    ):
        store = build_store(kind, workload.dataset, str(tmp_path))
        try:
            assert K2Hop(query).mine(store).convoys == expected
        finally:
            store.close()
        # memory writes nothing; each on-disk kind writes one entry
        assert len(os.listdir(tmp_path)) == (kind != "memory")

    @pytest.mark.parametrize(
        "kind, entry", [("file", "data.bin"), ("rdbms", "data.db"), ("lsmt", "lsm")]
    )
    def test_on_disk_kind_writes_its_named_entry(
        self, workload, tmp_path, kind, entry
    ):
        store = build_store(kind, workload.dataset, str(tmp_path))
        try:
            assert os.listdir(tmp_path) == [entry]
            assert store.num_points == workload.dataset.num_points
        finally:
            store.close()

    def test_memory_needs_no_directory(self, workload):
        store = build_store("memory", workload.dataset)
        assert isinstance(store, MemoryStore)
        assert store.num_points == workload.dataset.num_points

    def test_rejects_unknown_kind_and_missing_directory(self, workload):
        with pytest.raises(ValueError, match="unknown trajectory store"):
            build_store("papyrus", workload.dataset, "unused")
        with pytest.raises(ValueError, match="needs a directory"):
            build_store("lsmt", workload.dataset)
