"""Persistent convoy index: encodings, maximality, reopening, upgrades."""

import json
import os

import pytest

from repro.api import ConvoySession, RetentionPolicy
from repro.core import Convoy, ConvoyQuery
from repro.service import ConvoyIndex, create_index, open_index
from repro.service.records import (
    TAG_BBOX,
    TAG_HEAD,
    TAG_MEMBER,
    decode_pair,
    decode_result_key,
    encode_pair,
    encode_xy,
    member_chunks,
    result_key,
    tag_range,
    unpack_members,
)
from repro.storage.lsm.tree import LSMTree


class TestRecords:
    @pytest.mark.parametrize(
        "tag,a,b", [(1, 0, 0), (4, 17, 3), (5, 2**40, 2**61)]
    )
    def test_key_round_trip(self, tag, a, b):
        assert decode_result_key(result_key(tag, a, b)) == (tag, a, b)

    def test_key_order_matches_tuple_order(self):
        keys = [
            result_key(1, 5, 9),
            result_key(1, 6, 0),
            result_key(2, 0, 0),
            result_key(4, 100, 2),
            result_key(4, 100, 3),
        ]
        assert keys == sorted(keys)

    def test_out_of_range_fields_rejected(self):
        with pytest.raises(ValueError):
            result_key(1, 1 << 48, 0)
        with pytest.raises(ValueError):
            result_key(1, 0, -1)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
    def test_member_chunks_round_trip(self, n):
        members = tuple(range(10, 10 + 3 * n, 3))
        rows = list(member_chunks(members))
        assert unpack_members(v for _, v in rows) == members
        assert len(rows) == (n + 1) // 2

    def test_tag_range_brackets_only_that_tag(self):
        lo, hi = tag_range(4)
        assert decode_result_key(lo)[0] == 4
        assert lo < result_key(4, 17, 3) < hi < result_key(5, 0, 0)


def _tree(kind, tmp_path, **options):
    if kind == "memory":
        return None
    return LSMTree(str(tmp_path / "convoys.lsm"), **options)


def _row_cids(tree, tag):
    """Convoy ids holding at least one ``tag`` row in the tree."""
    rows = tree.range(*tag_range(tag))
    return sorted({decode_result_key(key)[1] for key, _ in rows})


@pytest.mark.parametrize("kind", ["memory", "lsmt"])
class TestConvoyIndexBackends:
    def test_add_and_query_paths(self, kind, tmp_path):
        index = ConvoyIndex(_tree(kind, tmp_path))
        a = Convoy.of([1, 2, 3], 0, 9)
        b = Convoy.of([2, 4], 5, 20)
        index.add(a, bbox=(0.0, 0.0, 10.0, 10.0))
        index.add(b)
        assert len(index) == 2
        assert index.convoys() == [a, b]
        assert sorted(index.ids_overlapping(8, 12)) == [0, 1]
        assert index.ids_overlapping(10, 12) == [1]
        assert index.ids_of_object(2) == [0, 1]
        assert index.ids_of_object(4) == [1]
        assert index.ids_containing([2, 3]) == [0]
        assert index.ids_in_region((5.0, 5.0, 20.0, 20.0)) == [0]
        index.close()

    def test_subsumed_insert_is_dropped(self, kind, tmp_path):
        index = ConvoyIndex(_tree(kind, tmp_path))
        big = Convoy.of([1, 2, 3], 0, 10)
        assert index.add(big) is not None
        version = index.version
        assert index.add(Convoy.of([1, 2], 2, 8)) is None
        assert index.version == version  # nothing changed
        assert index.convoys() == [big]
        index.close()

    def test_subsuming_insert_evicts(self, kind, tmp_path):
        tree = _tree(kind, tmp_path)
        index = ConvoyIndex(tree)
        index.add(Convoy.of([1, 2], 2, 8), bbox=(0, 0, 1, 1))
        bigger = Convoy.of([1, 2, 3], 0, 10)
        index.add(bigger)
        assert index.convoys() == [bigger]
        assert index.ids_of_object(1) == [1]
        # Stored rows of the evicted convoy are gone too.
        if tree is not None:
            assert _row_cids(tree, TAG_HEAD) == [1]
            assert _row_cids(tree, TAG_MEMBER) == [1]
            assert _row_cids(tree, TAG_BBOX) == []
        index.close()

    def test_out_of_domain_convoy_rejected_before_any_write(self, kind, tmp_path):
        tree = _tree(kind, tmp_path)
        index = ConvoyIndex(tree)
        with pytest.raises(ValueError):
            index.add(Convoy.of([1, 2], -20, -5))
        with pytest.raises(ValueError):
            index.add(Convoy.of([-1, 2], 0, 5))
        # Nothing was half-written: a cold reopen sees an empty store.
        assert len(index) == 0
        if tree is not None:
            assert list(tree.range(bytes(16), b"\xff" * 16)) == []
        index.close()

    def test_containing_unknown_oid_does_not_grow_interner(self, kind, tmp_path):
        index = ConvoyIndex(_tree(kind, tmp_path))
        index.add(Convoy.of([1, 2, 3], 0, 9))
        interned = len(index._interner)
        assert index.ids_containing([1, 999]) == []
        assert len(index._interner) == interned
        index.close()


@pytest.mark.parametrize("kind", ["lsmt"])
class TestPersistence:
    def test_reopen_round_trip(self, kind, tmp_path):
        convoys = [
            Convoy.of([1, 2, 3], 0, 9),
            Convoy.of([7, 8, 9, 10, 11], 4, 40),  # odd + even member chunks
            Convoy.of([2, 7], 50, 60),
        ]
        index = ConvoyIndex(_tree(kind, tmp_path))
        index.add(convoys[0], bbox=(1.0, 2.0, 3.0, 4.0))
        index.add(convoys[1])
        index.add(convoys[2])
        index.flush()
        index.close()

        reopened = ConvoyIndex(_tree(kind, tmp_path))
        assert reopened.convoys() == sorted(
            convoys, key=lambda c: (c.start, c.end)
        )
        assert reopened.get(0).bbox == (1.0, 2.0, 3.0, 4.0)
        assert reopened.get(1).bbox is None
        assert reopened.ids_of_object(7) == [1, 2]
        assert reopened.ids_containing([7, 8]) == [1]
        # New inserts continue the id sequence.
        assert reopened.add(Convoy.of([100, 101], 70, 90)) == 3
        reopened.close()

    def test_create_index_refuses_mismatched_reopen(self, kind, tmp_path):
        path = str(tmp_path / "catalog")
        query = ConvoyQuery(m=3, k=10, eps=5.0)
        index = create_index(path, kind, query)
        index.add(Convoy.of([1, 2, 3], 0, 9))
        index.close()
        # Same params: reopens fine, data intact.
        again = create_index(path, kind, query)
        assert len(again) == 1
        again.close()
        # Different query params: refused, data untouched.
        with pytest.raises(ValueError):
            create_index(path, kind, ConvoyQuery(m=5, k=20, eps=3.0))
        reopened, stored_query = open_index(path)
        assert stored_query == query and len(reopened) == 1
        reopened.close()

    def test_eviction_survives_reopen(self, kind, tmp_path):
        index = ConvoyIndex(_tree(kind, tmp_path))
        index.add(Convoy.of([1, 2], 2, 8))
        index.add(Convoy.of([1, 2, 3], 0, 10))  # evicts the first
        index.flush()
        index.close()
        reopened = ConvoyIndex(_tree(kind, tmp_path))
        assert reopened.convoys() == [Convoy.of([1, 2, 3], 0, 10)]
        reopened.close()


def _rows_by_tag(tree):
    """``{tag: [(cid, row), ...]}`` over every row in the tree."""
    rows = {}
    for key, _ in tree.range(bytes(16), b"\xff" * 16):
        tag, cid, row = decode_result_key(key)
        rows.setdefault(tag, []).append((cid, row))
    return rows


class TestStoredRows:
    """A persistent index stores exactly the rows a reopen reads back."""

    def test_writes_only_head_member_and_bbox_rows(self, tmp_path):
        tree = LSMTree(str(tmp_path / "convoys.lsm"))
        index = ConvoyIndex(tree)
        index.add(Convoy.of([1, 2, 3], 0, 9), bbox=(0.0, 0.0, 1.0, 1.0))
        index.add(Convoy.of([4, 5], 3, 12))
        index.add(Convoy.of([6, 7, 8, 9, 10], 20, 30), bbox=(2.0, 2.0, 3.0, 3.0))
        index.flush()
        assert _rows_by_tag(tree) == {
            TAG_HEAD: [(0, 0), (1, 0), (2, 0)],
            TAG_BBOX: [(0, 0), (0, 1), (2, 0), (2, 1)],
            TAG_MEMBER: [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (2, 2)],
        }
        index.close()

    def test_compaction_under_the_horizon_keeps_only_live_rows(self, tmp_path):
        tree = LSMTree(
            str(tmp_path / "convoys.lsm"), memtable_limit=512, compaction_fanin=2
        )
        index = ConvoyIndex(tree)
        index.set_retention(RetentionPolicy(window=8, partition=1))
        for i in range(40):
            t = 3 * i
            index.add(
                Convoy.of([3 * i, 3 * i + 1, 3 * i + 2], t, t + 4),
                bbox=(float(i), 0.0, i + 1.0, 1.0),
            )
            index.apply_retention(t + 4)
        index.flush()  # fan-in 2: this flush is a full compaction
        live = [record.convoy_id for record in index.records()]
        assert 0 < len(live) < 40 and tree.stats.compaction_drops > 0
        rows = _rows_by_tag(tree)
        assert rows.pop(0) == [(0, 0)]  # the horizon row survives
        assert rows == {
            TAG_HEAD: [(cid, 0) for cid in live],
            TAG_BBOX: [(cid, row) for cid in live for row in (0, 1)],
            TAG_MEMBER: [(cid, chunk) for cid in live for chunk in (0, 1)],
        }
        assert decode_pair(tree.get(encode_pair(0, 0))) == (live[0], 40)
        index.close()


class TestInMemoryIndex:
    def test_retention_without_a_tree(self):
        index = ConvoyIndex()
        index.set_retention(RetentionPolicy(window=8, partition=1))
        for i in range(10):
            t = 10 * i
            index.add(Convoy.of([2 * i, 2 * i + 1], t, t + 4))
            index.apply_retention(t + 4)
        assert index.evicted_total == 9
        assert [record.convoy_id for record in index.records()] == [9]
        # Retired ids are never handed out again.
        assert index.add(Convoy.of([100, 101], 200, 204)) == 10
        index.flush()
        index.close()


def _older_build_rows(cid, convoy, bbox):
    """Every row an older build wrote per convoy: HEAD/MEMBER/BBOX plus the
    write-only temporal ``(4 | end, cid)`` and object ``(5 | oid, cid)`` rows."""
    span = encode_pair(convoy.start, convoy.end)
    rows = [(result_key(TAG_HEAD, cid, 0), span)]
    rows += [
        (result_key(TAG_MEMBER, cid, chunk), value)
        for chunk, value in member_chunks(tuple(sorted(convoy.objects)))
    ]
    if bbox is not None:
        rows.append((result_key(TAG_BBOX, cid, 0), encode_xy(*bbox[:2])))
        rows.append((result_key(TAG_BBOX, cid, 1), encode_xy(*bbox[2:])))
    rows.append((result_key(4, convoy.end, cid), span))
    rows += [(result_key(5, oid, cid), span) for oid in convoy.objects]
    return rows


def _snapshot(index):
    return [(r.convoy_id, r.convoy, r.bbox) for r in index.records()], index.next_id


class TestUpgradePath:
    """An LSM index directory from an older build reopens unchanged."""

    def _older_build_tree(self, path):
        """12 convoys; cids 0-3 retired behind the horizon, 6 subsumed by 11."""
        tree = LSMTree(path)
        stored = {}
        for cid in range(11):
            objects = [10 * cid, 10 * cid + 1, 10 * cid + 2]
            bbox = (float(cid), 0.0, cid + 1.0, 1.0) if cid % 2 else None
            stored[cid] = (Convoy.of(objects, cid, cid + 4), bbox)
        stored[11] = (Convoy.of([60, 61, 62, 63], 5, 20), (0.0, 0.0, 9.0, 9.0))
        for cid, (convoy, bbox) in stored.items():
            for key, value in _older_build_rows(cid, convoy, bbox):
                tree.put(key, value)
        for key, _ in _older_build_rows(6, *stored.pop(6)):
            tree.delete(key)
        tree.put(encode_pair(0, 0), encode_pair(4, 12))  # the horizon row
        tree.flush()
        tree.close()
        live = [(cid, *stored[cid]) for cid in sorted(stored) if cid >= 4]
        return live, 12

    def test_reopens_identically_before_and_after_compactions(self, tmp_path):
        path = str(tmp_path / "convoys.lsm")
        live, next_id = self._older_build_tree(path)
        # Fan-in 2: every flush from the second run on is a full compaction.
        options = dict(memtable_limit=512, compaction_fanin=2)
        tree = LSMTree(path, **options)
        index = ConvoyIndex(tree)
        assert _snapshot(index) == (live, next_id)

        index.set_retention(RetentionPolicy(window=8, partition=1))
        for i in range(140):
            t = 30 + i
            index.add(
                Convoy.of([1000 + 3 * i, 1001 + 3 * i, 1002 + 3 * i], t, t + 4),
                bbox=(float(i), 0.0, i + 1.0, 1.0),
            )
            index.apply_retention(t + 4)
        assert index.evicted_total > 0
        assert tree.stats.compaction_drops > 0  # the new predicate ran
        index.flush()  # compacts under the last horizon
        before = _snapshot(index)
        index.close()

        reopened = ConvoyIndex(LSMTree(path, **options))
        assert _snapshot(reopened) == before
        # Retire every convoy; the compaction of the next flush drops all
        # their rows but must keep the horizon, or ids would be reused.
        reopened.set_retention(RetentionPolicy(window=8, partition=1))
        reopened.apply_retention(10**6)
        assert len(reopened) == 0
        reopened.flush()
        reopened.close()

        emptied = ConvoyIndex(LSMTree(path))
        assert _snapshot(emptied) == ([], before[1])
        emptied.close()


class TestRefusedBackends:
    """Only ``lsmt`` persists; a B+tree index directory has to be re-served."""

    QUERY = ConvoyQuery(m=3, k=10, eps=5.0)

    def _bptree_directory(self, tmp_path):
        directory = str(tmp_path / "old")
        os.makedirs(directory)
        meta = {
            "format": "repro-convoy-service",
            "backend": "bptree",
            "query": {"m": 3, "k": 10, "eps": 5.0},
        }
        with open(os.path.join(directory, "service.json"), "w") as fh:
            json.dump(meta, fh)
        return directory

    def test_open_index_refuses_a_bptree_directory(self, tmp_path):
        directory = self._bptree_directory(tmp_path)
        with pytest.raises(ValueError, match="bptree"):
            open_index(directory)
        assert os.listdir(directory) == ["service.json"]

    def test_session_open_refuses_a_bptree_directory(self, tmp_path):
        with pytest.raises(ValueError, match="bptree"):
            ConvoySession.open(self._bptree_directory(tmp_path))

    def test_create_index_refuses_other_kinds_before_touching_disk(self, tmp_path):
        directory = str(tmp_path / "new")
        for kind in ("bptree", "memory"):
            with pytest.raises(ValueError, match=kind):
                create_index(directory, kind, self.QUERY)
        assert not os.path.exists(directory)
