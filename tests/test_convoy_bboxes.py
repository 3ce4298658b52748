"""Stored convoy bounding boxes equal a brute-force min/max.

A convoy's bbox is the extent of its members' rows over the part of its
lifetime that the feed's history window still covered when it closed
(all of it for a batch mine).  Each case recomputes that from the raw
dataset and compares every bbox the index stores.
"""

import numpy as np
import pytest

from repro.api import ConvoySession
from repro.data import plant_convoys

HISTORY_SHORT = 12  # below the planted 30-tick lifetimes: convoys outrun it


@pytest.fixture(scope="module")
def workload():
    workload = plant_convoys(
        n_convoys=3, convoy_size=4, convoy_duration=30, n_noise=40,
        duration=100, seed=11,
    )
    ticks = workload.dataset.timestamps()
    # No gaps: the window at a convoy's close is then the last `history`
    # ticks up to the closing one.
    assert np.array_equal(ticks, np.arange(ticks[0], ticks[-1] + 1))
    return workload


def _session(workload):
    return ConvoySession.from_dataset(workload.dataset).params(
        m=3, k=10, eps=workload.eps
    )


def _brute_bbox(dataset, convoy, first):
    """Min/max over the members' rows at ticks ``first..convoy.end``."""
    keep = (
        np.isin(dataset.oids, sorted(convoy.objects))
        & (dataset.ts >= first)
        & (dataset.ts <= convoy.end)
    )
    if not keep.any():
        return None
    xs, ys = dataset.xs[keep], dataset.ys[keep]
    return (float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))


def _covered_from(convoy, history, last_tick):
    """First tick of the convoy's lifetime inside the window at its close.

    A convoy closes when the tick after its end is observed (or at the
    end of the feed), and the window then holds the last ``history``
    ticks up to that one.  A convoy that validation shrank closed no
    earlier than its end, and validation only runs on lifetimes the
    window covers, so the bound below never cuts into it.
    """
    closing = min(convoy.end + 1, last_tick)
    return max(convoy.start, closing - history + 1)


def _fed_records(workload, history):
    service = _session(workload).shards("2x2").history(history).feed()
    dataset = workload.dataset
    for t in dataset.timestamps().tolist():
        service.observe(t, *dataset.snapshot(t))
    service.finish()
    records = service.index.records()
    service.close()
    return records


def test_feed_full_history_bboxes_cover_whole_lifetimes(workload):
    dataset = workload.dataset
    records = _fed_records(workload, history=dataset.info().duration)
    assert len(records) >= len(workload.convoys)
    for record in records:
        expected = _brute_bbox(dataset, record.convoy, record.convoy.start)
        assert expected is not None
        assert record.bbox == expected, record.convoy


def test_feed_short_history_bboxes_cover_the_window(workload):
    dataset = workload.dataset
    last_tick = dataset.end_time
    records = _fed_records(workload, history=HISTORY_SHORT)
    assert records
    outran = 0
    for record in records:
        convoy = record.convoy
        first = _covered_from(convoy, HISTORY_SHORT, last_tick)
        outran += first > convoy.start
        assert record.bbox == _brute_bbox(dataset, convoy, first), convoy
    assert outran, "no convoy outran the window; the case tests nothing"


def _assert_persisted_bboxes_cover_whole_lifetimes(workload, session, directory):
    mined = session.store("lsm", directory).mine()
    service = ConvoySession.open(directory)
    try:
        records = service.index.records()
    finally:
        service.close()
    assert {r.convoy for r in records} == set(mined.convoys)
    for record in records:
        expected = _brute_bbox(workload.dataset, record.convoy, record.convoy.start)
        assert expected is not None
        assert record.bbox == expected, record.convoy


def test_persisted_mine_bboxes_cover_whole_lifetimes(workload, tmp_path):
    _assert_persisted_bboxes_cover_whole_lifetimes(
        workload, _session(workload), str(tmp_path / "idx")
    )


@pytest.mark.parametrize("kind", ["file", "rdbms", "lsmt"])
def test_persisted_mine_through_a_store_bboxes_cover_whole_lifetimes(
    workload, tmp_path, kind
):
    """Mining through an on-disk store still bounds from the dataset."""
    _assert_persisted_bboxes_cover_whole_lifetimes(
        workload, _session(workload).read_from(kind), str(tmp_path / "idx")
    )
