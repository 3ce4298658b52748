"""Analytics subsystem units: windows, summaries, co-travel, wiring.

The equivalence of full query answers against brute-force oracles lives
in ``test_analytics_equivalence.py``; this file covers the moving parts
in isolation plus the satellite fixes that rode along (region-grid
rebuild skipping, query-cache key normalization) and the HTTP/CLI/
client exposure of the subsystem.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import ConvoyAnalytics, SummaryStore, WindowSpec
from repro.analytics.cotravel import CoTravelGraph
from repro.api import ConvoyClient, ConvoySession, SchemaError
from repro.cli import main
from repro.core import Convoy
from repro.data import save_csv
from repro.server import serve_in_background
from repro.service import ConvoyIndex
from repro.service.index import _GRID_REBUILDS


def _index():
    return ConvoyIndex()


# -- window geometry ---------------------------------------------------------


class TestWindowSpec:
    def test_tumbling_by_default(self):
        spec = WindowSpec.of(10)
        assert spec.tumbling
        assert list(spec.indices_of(0)) == [0]
        assert list(spec.indices_of(9)) == [0]
        assert list(spec.indices_of(10)) == [1]
        assert spec.span(2) == (20, 29)

    def test_sliding_covers_overlapping_windows(self):
        spec = WindowSpec.of(10, 3, origin=2)
        for j in spec.indices_of(17):
            start, end = spec.span(j)
            assert start <= 17 <= end

    @given(
        width=st.integers(1, 50),
        step=st.one_of(st.none(), st.integers(1, 50)),
        origin=st.integers(-100, 100),
        t=st.integers(-200, 200),
    )
    @settings(max_examples=100, deadline=None)
    def test_membership_matches_span(self, width, step, origin, t):
        """j is in indices_of(t) exactly when window j's span covers t."""
        spec = WindowSpec.of(width, step, origin)
        hits = set(spec.indices_of(t))
        lo = (t - origin - width) // spec.step - 2
        hi = (t - origin) // spec.step + 2
        for j in range(lo, hi + 1):
            start, end = spec.span(j)
            assert (j in hits) == (start <= t <= end)

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec.of(0)
        with pytest.raises(ValueError):
            WindowSpec.of(5, 0)


# -- co-travel graph ---------------------------------------------------------


class TestCoTravelGraph:
    def test_add_remove_round_trip(self):
        graph = CoTravelGraph()
        graph.add_convoy([1, 2, 3], 10)
        graph.add_convoy([2, 3], 5)
        assert graph.weight(2, 3) == 15
        assert graph.weight(3, 1) == 10  # symmetric lookup
        graph.remove_convoy([1, 2, 3], 10)
        assert graph.weight(1, 2) == 0
        assert graph.weight(2, 3) == 5
        graph.remove_convoy([2, 3], 5)
        assert graph.node_count == 0
        assert graph.edge_count == 0

    def test_neighbors_ranked_heaviest_first_with_id_ties(self):
        graph = CoTravelGraph()
        graph.add_convoy([1, 2], 7)
        graph.add_convoy([1, 3], 9)
        graph.add_convoy([1, 4], 9)
        assert graph.neighbors(1) == [(3, 9), (4, 9), (2, 7)]
        assert graph.neighbors(1, k=2) == [(3, 9), (4, 9)]

    def test_components_respect_min_weight(self):
        graph = CoTravelGraph()
        graph.add_convoy([1, 2], 10)
        graph.add_convoy([2, 3], 2)
        graph.add_convoy([4, 5], 10)
        assert graph.components() == [[1, 2, 3], [4, 5]]
        # The weak 2-3 edge dissolves; 3 becomes a singleton.
        assert graph.components(min_weight=5) == [[1, 2], [4, 5], [3]]


# -- summary store -----------------------------------------------------------


class TestSummaryStore:
    def test_on_add_is_idempotent_per_cid(self):
        index = _index()
        store = SummaryStore()
        index.add(Convoy.of([1, 2, 3], 0, 9))
        record = index.records()[0]
        store.on_add(record)
        store.on_add(record)  # bootstrap overlap
        assert store.convoy_count == 1
        assert store.objects[1].convoys == 1
        assert store.graph.weight(1, 2) == 10

    def test_discard_unknown_cid_is_noop(self):
        store = SummaryStore()
        store.discard(42)
        assert store.stats.evictions == 0

    def test_evict_recomputes_object_max_duration(self):
        index = _index()
        store = SummaryStore()
        index.add_listener(store)
        long_cid = index.add(Convoy.of([1, 2, 3], 0, 19))
        index.add(Convoy.of([1, 9], 0, 4))
        assert store.objects[1].max_duration == 20
        store.discard(long_cid)
        assert store.objects[1].max_duration == 5
        assert 2 not in store.objects  # no surviving convoy carries oid 2

    def test_rejects_nonpositive_cell_size(self):
        with pytest.raises(ValueError):
            SummaryStore(region_cell_size=0.0)

    def test_cell_size_freezes_on_first_bbox(self):
        store = SummaryStore()
        assert store.cell_of(None) is None
        assert store.region_cell_size is None
        assert store.cell_of((0.0, 0.0, 8.0, 4.0)) == (0, 0)
        assert store.region_cell_size == 8.0
        assert store.cell_of((16.0, 0.0, 17.0, 1.0)) == (2, 0)


# -- index listener protocol -------------------------------------------------


class _Recorder:
    def __init__(self):
        self.added, self.evicted = [], []

    def on_add(self, record):
        self.added.append(record.convoy_id)

    def on_evict(self, record):
        self.evicted.append(record.convoy_id)


class TestIndexListeners:
    def test_add_and_subsumption_evict_notify(self):
        index, recorder = _index(), _Recorder()
        index.add_listener(recorder)
        index.add_listener(recorder)  # dedup: registered once
        small = index.add(Convoy.of([1, 2, 3], 2, 8))
        index.add(Convoy.of([4, 5, 6], 0, 5))
        big = index.add(Convoy.of([1, 2, 3], 0, 10))  # subsumes `small`
        assert recorder.added == [small, 1, big]
        assert recorder.evicted == [small]
        # Sub-convoy arrivals store nothing and must notify nothing.
        assert index.add(Convoy.of([1, 2], 3, 4)) is None
        assert recorder.added == [small, 1, big]

    def test_records_snapshot_sorted_by_cid(self):
        index = _index()
        index.add(Convoy.of([1, 2], 5, 9))
        index.add(Convoy.of([3, 4], 0, 2))
        assert [r.convoy_id for r in index.records()] == [0, 1]


# -- satellite: region-grid rebuilds skipped when bboxes unchanged -----------


class TestGridRebuildSkipping:
    REGION = (-1e9, -1e9, 1e9, 1e9)

    def _grown(self, index, n=70):
        # Enough bboxed records to clear the grid's linear-scan cutoff.
        for i in range(n):
            index.add(
                Convoy.of([3 * i, 3 * i + 1, 3 * i + 2], 0, 5),
                bbox=(float(i), 0.0, float(i) + 1.0, 1.0),
            )
        return index

    def test_repeat_queries_build_grid_once(self):
        index = self._grown(_index())
        before = _GRID_REBUILDS.value
        first = index.ids_in_region(self.REGION)
        assert _GRID_REBUILDS.value == before + 1
        assert index.ids_in_region(self.REGION) == first
        assert _GRID_REBUILDS.value == before + 1

    def test_bboxless_add_does_not_invalidate_grid(self):
        index = self._grown(_index())
        index.ids_in_region(self.REGION)
        before = _GRID_REBUILDS.value
        version = index.version
        index.add(Convoy.of([900, 901, 902], 0, 5))  # no bbox
        assert index.version == version + 1  # cache-relevant version moved
        index.ids_in_region(self.REGION)
        assert _GRID_REBUILDS.value == before  # grid reused as-is

    def test_bboxed_add_still_rebuilds(self):
        index = self._grown(_index())
        index.ids_in_region(self.REGION)
        before = _GRID_REBUILDS.value
        index.add(
            Convoy.of([900, 901, 902], 0, 5), bbox=(500.0, 0.0, 501.0, 1.0)
        )
        hits = index.ids_in_region((499.5, -1.0, 502.0, 2.0))
        assert _GRID_REBUILDS.value == before + 1
        assert hits  # the new record is findable through the fresh grid


# -- satellite: query-cache keys normalize numeric flavours ------------------


class TestQueryCacheKeyNormalization:
    def test_int_and_float_spellings_share_one_entry(self, planted):
        service = (
            ConvoySession.from_dataset(planted.dataset)
            .params(m=3, k=10, eps=planted.eps)
            .serve()
        )
        engine = service.query
        assert engine.region((0, 0, 1000, 1000)) == \
            engine.region((0.0, 0.0, 1000.0, 1000.0))
        assert engine.cache_stats.hits >= 1
        import numpy as np
        hits = engine.cache_stats.hits
        assert engine.time_range(0, 60) == \
            engine.time_range(np.int64(0), 60.0)
        assert engine.cache_stats.hits == hits + 1


# -- wiring: session accessor, metrics, HTTP, CLI ----------------------------


@pytest.fixture(scope="module")
def served_analytics(planted):
    service = (
        ConvoySession.from_dataset(planted.dataset)
        .params(m=3, k=10, eps=planted.eps)
        .serve()
    )
    with serve_in_background(service, dataset=planted.dataset) as handle:
        client = ConvoyClient(handle.host, handle.port)
        yield service, client
        client.close()


# conftest's session-scoped `planted` fixture is function-agnostic, but
# this module wants its own copy for a module-scoped HTTP server.
@pytest.fixture(scope="module")
def planted():
    from repro.data import plant_convoys

    return plant_convoys(
        n_convoys=3, convoy_size=4, convoy_duration=20, n_noise=20,
        duration=60, seed=1,
    )


class TestSessionAccessor:
    def test_analytics_is_a_cached_singleton(self, served_analytics):
        service, _ = served_analytics
        engine = service.analytics()
        assert isinstance(engine, ConvoyAnalytics)
        assert service.analytics() is engine

    def test_conflicting_cell_size_rejected(self, served_analytics):
        service, _ = served_analytics
        service.analytics()
        with pytest.raises(ValueError, match="cell"):
            service.analytics(region_cell_size=123.0)

    def test_summary_tracks_the_index(self, served_analytics):
        service, _ = served_analytics
        engine = service.analytics()
        assert engine.summary.convoy_count == len(service.index)

    def test_analytics_metrics_exported(self, served_analytics):
        from repro.obs import METRICS

        service, _ = served_analytics
        service.analytics().windowed(10)
        text = METRICS.render_prometheus()
        assert "repro_analytics_query_seconds" in text
        assert "repro_analytics_summary_rows" in text
        assert "repro_index_grid_rebuilds_total" in text


class TestAnalyticsOverHttp:
    def test_windows_route_matches_engine(self, served_analytics):
        service, client = served_analytics
        assert client.analytics().windowed(20) == \
            [row.as_dict() for row in service.analytics().windowed(20)]

    def test_cotravel_route_shapes(self, served_analytics):
        service, client = served_analytics
        engine = service.analytics()
        remote = client.analytics()
        pairs = engine.co_travel_pairs(5)
        assert remote.co_travel_pairs(5) == [
            {"a": a, "b": b, "weight": w} for a, b, w in pairs
        ]
        oid = pairs[0][0]
        assert remote.co_travel_neighbors(oid, 3) == [
            {"object": o, "weight": w}
            for o, w in engine.co_travel_neighbors(oid, 3)
        ]
        assert remote.co_travel_components(2) == engine.co_travel_components(2)

    def test_lineage_route_matches_engine(self, served_analytics):
        service, client = served_analytics
        cid = service.index.records()[0].convoy_id
        assert client.analytics().lineage(cid) == \
            service.analytics().lineage(cid).as_dict()

    def test_bad_window_params_answer_schema_400(self, served_analytics):
        _, client = served_analytics
        remote = client.analytics()
        with pytest.raises(SchemaError, match="width"):
            remote.windowed(0)
        with pytest.raises(SchemaError, match="width"):
            remote._get("/analytics/windows", {})  # missing required param
        with pytest.raises(SchemaError, match="group"):
            remote.top_k(3, group="bogus")
        with pytest.raises(SchemaError, match="convoy"):
            remote._get("/analytics/lineage", {})

    def test_client_rejects_cell_size_override(self, served_analytics):
        _, client = served_analytics
        with pytest.raises(ValueError, match="server"):
            client.analytics(region_cell_size=9.0)


class TestAnalyticsCli:
    @pytest.fixture(scope="class")
    def index_dir(self, planted, tmp_path_factory):
        root = tmp_path_factory.mktemp("analytics-cli")
        csv = str(root / "data.csv")
        save_csv(planted.dataset, csv)
        path = str(root / "idx")
        assert main(["serve", csv, "-m", "3", "-k", "10",
                     "--eps", str(planted.eps), "--index-dir", path]) == 0
        return path

    def test_windows_and_topk(self, index_dir, capsys):
        assert main(["analytics", index_dir, "--windows", "20"]) == 0
        assert "convoys" in capsys.readouterr().out
        assert main(["analytics", index_dir, "--top-k", "3",
                     "--by", "size", "--group", "region"]) == 0
        assert "#1" in capsys.readouterr().out

    def test_json_rows_parse(self, index_dir, capsys):
        import json

        assert main(["analytics", index_dir, "--pairs", "4", "--json"]) == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert rows and all(row["weight"] > 0 for row in rows)

    def test_bad_metric_exits_2(self, index_dir, capsys):
        assert main(["analytics", index_dir, "--objects",
                     "--by", "bogus"]) == 2
        assert "bad analytics argument" in capsys.readouterr().err
