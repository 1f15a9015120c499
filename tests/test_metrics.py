"""Unit + property tests for :mod:`repro.metrics`.

The load-bearing properties:

- :class:`ExactSum` reads the same value for any accumulation order;
- fixed-bucket quantile estimates land within one bucket width of the
  exact nearest-rank quantile;
- histogram merge is lossless (shards == single pass);
- the JSONL export round-trips and the digest keys on body lines only;
- the flight recorder's ring is bounded and its dumps deterministic;
- the null objects are inert shared singletons.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    NULL_FLIGHT_RECORDER,
    NULL_REGISTRY,
    ExactSum,
    FixedBucketHistogram,
    FlightRecorder,
    MetricsRegistry,
    bucket_quantile,
    linear_buckets,
    log_buckets,
    read_metrics_jsonl,
    registry_digest,
    render_top,
    series_rows,
    write_flight_jsonl,
    write_metrics_jsonl,
)
from repro.obs import FrameTrace, StageStats, summarize

finite_small = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False, width=32
)
finite_wide = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


class TestExactSum:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite_wide, min_size=1, max_size=60))
    def test_order_independent(self, values):
        orders = [values, list(reversed(values)), sorted(values), sorted(values, reverse=True)]
        results = {ExactSum(order).value for order in orders}
        assert len(results) == 1
        assert results.pop() == math.fsum(values)

    def test_merge_equals_single_accumulator(self):
        a, b = ExactSum([0.1] * 7), ExactSum([1e16, 1.0, -1e16])
        a.merge(b)
        assert a.value == math.fsum([0.1] * 7 + [1e16, 1.0, -1e16])


class TestBuckets:
    def test_linear_edges(self):
        assert linear_buckets(0.0, 1.0, 5) == (0.0, 0.25, 0.5, 0.75, 1.0)
        with pytest.raises(ValueError):
            linear_buckets(1.0, 0.0, 5)

    def test_log_edges_cover_hi(self):
        edges = log_buckets(1e-3, 1.0, per_decade=2)
        assert edges[0] == 1e-3 and edges[-1] >= 1.0
        assert all(b > a for a, b in zip(edges, edges[1:]))


class TestBucketQuantile:
    EDGES = linear_buckets(0.0, 10.0, 21)  # bucket width 0.5
    WIDTH = 0.5

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(finite_small, min_size=1, max_size=200),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_within_one_bucket_width_of_exact(self, values, q):
        hist = FixedBucketHistogram(self.EDGES)
        for v in values:
            assert hist.observe(v)
        estimate = hist.quantile(q)
        rank_up = min(len(values), math.ceil(q * (len(values) - 1) + 1.0))
        exact = sorted(values)[rank_up - 1]
        assert abs(estimate - exact) <= self.WIDTH + 1e-9
        assert hist.min - 1e-9 <= estimate <= hist.max + 1e-9

    def test_empty_distribution_is_zero(self):
        assert bucket_quantile(self.EDGES, [0] * (len(self.EDGES) + 1), 0.5) == 0.0
        assert FixedBucketHistogram(self.EDGES).quantile(0.9) == 0.0

    def test_open_buckets_clamped_by_min_max(self):
        hist = FixedBucketHistogram(self.EDGES)
        for v in (-3.0, -3.0, 42.0):  # under/overflow only
            hist.observe(v)
        # Open buckets are bounded by the recorded min/max, so estimates
        # stay inside [min, edges[0]] / [edges[-1], max].
        assert -3.0 <= hist.quantile(0.0) <= self.EDGES[0]
        assert self.EDGES[-1] <= hist.quantile(1.0) <= 42.0
        assert hist.quantile(1.0) == 42.0  # rank falls at the recorded max


class TestHistogramMerge:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite_small, min_size=1, max_size=80), st.integers(1, 5))
    def test_sharded_merge_is_lossless(self, values, k):
        edges = linear_buckets(0.0, 10.0, 11)
        whole = FixedBucketHistogram(edges)
        for v in values:
            whole.observe(v)
        merged = FixedBucketHistogram(edges)
        for i in range(k):
            shard = FixedBucketHistogram(edges)
            for v in values[i::k]:
                shard.observe(v)
            merged.merge(shard)
        assert merged.counts == whole.counts
        assert merged.count == whole.count
        assert merged.min == whole.min and merged.max == whole.max
        assert merged.sum == whole.sum  # ExactSum: bit-identical, not approx

    def test_mismatched_edges_refuse_to_merge(self):
        a = FixedBucketHistogram(linear_buckets(0.0, 1.0, 3))
        b = FixedBucketHistogram(linear_buckets(0.0, 2.0, 3))
        with pytest.raises(ValueError, match="different edges"):
            a.merge(b)

    def test_non_finite_observations_skipped(self):
        hist = FixedBucketHistogram(linear_buckets(0.0, 1.0, 3))
        assert not hist.observe(float("nan"))
        assert not hist.observe(float("inf"))
        assert hist.count == 0


class TestRegistry:
    def test_window_index_floors_virtual_time(self):
        reg = MetricsRegistry(window=0.25)
        assert [reg.window_index(t) for t in (0.0, 0.24, 0.25, 1.0)] == [0, 0, 1, 4]

    def test_counter_windows_accumulate(self):
        reg = MetricsRegistry(window=1.0)
        c = reg.counter("frames")
        for t in (0.1, 0.2, 1.5):
            c.inc(2.0, at=t)
        snap = reg.snapshot()
        windows = snap["instruments"][0]["series"][0]["windows"]
        assert [(w["index"], w["count"], w["sum"]) for w in windows] == [(0, 2, 4.0), (1, 1, 2.0)]

    def test_gauge_last_breaks_ties_deterministically(self):
        reg = MetricsRegistry(window=1.0)
        g = reg.gauge("depth")
        g.set(3.0, at=0.5)
        g.set(1.0, at=0.5)  # same stamp: lexicographically greatest (at, value) wins
        win = reg.snapshot()["instruments"][0]["series"][0]["windows"][0]
        assert win["last"] == 3.0 and win["min"] == 1.0 and win["max"] == 3.0

    def test_labels_create_sorted_series(self):
        reg = MetricsRegistry()
        c = reg.counter("outcomes")
        c.labels(status="dropped").inc(1.0, at=0.0)
        c.labels(status="delivered").inc(1.0, at=0.0)
        labels = [s["labels"] for s in reg.snapshot()["instruments"][0]["series"]]
        assert labels == [{}, {"status": "delivered"}, {"status": "dropped"}]

    def test_instrument_lookup_idempotent_and_kind_checked(self):
        reg = MetricsRegistry()
        assert reg.counter("n") is reg.counter("n")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("n")
        reg.histogram("h", buckets=(0.0, 1.0))
        with pytest.raises(ValueError, match="different buckets"):
            reg.histogram("h", buckets=(0.0, 2.0))

    def test_non_finite_samples_skipped(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(float("nan"), at=0.0)
        reg.gauge("g").set(1.0, at=float("inf"))
        snap = reg.snapshot()
        assert all(not s["windows"] for i in snap["instruments"] for s in i["series"])

    def test_histogram_pooled_merges_all_windows(self):
        reg = MetricsRegistry(window=0.5)
        h = reg.histogram("lat", buckets=linear_buckets(0.0, 2.0, 5))
        for t, v in ((0.1, 0.2), (0.6, 1.2), (1.4, 1.9)):
            h.observe(v, at=t)
        pooled = h.labels().pooled()
        assert pooled.count == 3 and pooled.min == 0.2 and pooled.max == 1.9


class TestNullObjects:
    def test_shared_inert_singletons(self):
        c = NULL_REGISTRY.counter("anything")
        assert c is NULL_REGISTRY.histogram("other")
        assert c.labels(status="x") is c
        c.inc(1.0, at=0.0)
        c.set(1.0, at=0.0)
        c.observe(1.0, at=0.0)
        assert not NULL_REGISTRY.enabled and NULL_REGISTRY.instruments() == []

    def test_null_digest_matches_empty_registry(self):
        assert NULL_REGISTRY.digest() == MetricsRegistry().digest()

    def test_null_flight_recorder_is_inert(self):
        NULL_FLIGHT_RECORDER.record("submit", 0.0, frame=1)
        assert NULL_FLIGHT_RECORDER.trigger("x", 0.0) == {}
        assert not NULL_FLIGHT_RECORDER.enabled
        assert NULL_FLIGHT_RECORDER.dumps == []


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry(window=0.25, meta={"run": "test"})
    c = reg.counter("frames", help="frames seen")
    g = reg.gauge("depth")
    h = reg.histogram("lat", buckets=linear_buckets(0.0, 1.0, 5), unit="s")
    for i in range(10):
        t = i * 0.1
        c.labels(status="ok" if i % 2 else "bad").inc(1.0, at=t)
        g.set(float(i % 3), at=t)
        h.observe(0.1 * i % 1.0, at=t)
    return reg


class TestExport:
    def test_jsonl_round_trip_preserves_pooled_histogram(self, tmp_path):
        reg = _populated_registry()
        path = write_metrics_jsonl(tmp_path / "m.jsonl", reg)
        doc = read_metrics_jsonl(path)
        assert doc.meta == {"run": "test"} and doc.window == 0.25
        live = reg.histogram("lat", buckets=linear_buckets(0.0, 1.0, 5)).labels().pooled()
        parsed = doc.pooled_histogram("lat", labels={})
        assert parsed.counts == live.counts and parsed.count == live.count
        assert parsed.quantile(0.95) == live.quantile(0.95)

    def test_digest_ignores_meta_but_not_body(self):
        reg = _populated_registry()
        before = registry_digest(reg)
        reg.meta["wall_clock"] = "2026-08-08T12:00:00"
        assert registry_digest(reg) == before
        reg.counter("frames").labels(status="ok").inc(1.0, at=5.0)
        assert registry_digest(reg) != before

    def test_jsonl_body_lines_are_canonical_json(self, tmp_path):
        path = write_metrics_jsonl(tmp_path / "m.jsonl", _populated_registry())
        lines = path.read_text().splitlines()
        assert all(json.loads(line) is not None for line in lines)
        assert "meta" in json.loads(lines[0])


class TestMalformedMetrics:
    """A metrics file comes from outside the program: bad input is a
    ValueError naming the path, the 1-based line and what was expected."""

    def test_truncated_last_line(self, tmp_path):
        whole = write_metrics_jsonl(tmp_path / "m.jsonl", _populated_registry())
        n_lines = len(whole.read_text().splitlines())
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(whole.read_bytes()[:-20])
        with pytest.raises(
                ValueError, match=rf"cut\.jsonl:{n_lines}: expected one JSON object per line"):
            read_metrics_jsonl(cut)

    def test_not_jsonl(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("p95 was 0.4 s\n")
        with pytest.raises(ValueError, match=r"notes\.txt:1: expected one JSON object per line"):
            read_metrics_jsonl(path)
        path.write_bytes(b"\x89PNG\r\n\x1a\n")
        with pytest.raises(ValueError, match=r"notes\.txt:1: expected one JSON object per line"):
            read_metrics_jsonl(path)

    def test_foreign_row(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"meta": {}}\n{"index": 0, "spans": {}, "counters": {}}\n')
        with pytest.raises(ValueError, match=r"trace\.jsonl:2: expected a counter / gauge / histogram"):
            read_metrics_jsonl(path)

    def test_histogram_row_without_its_header(self, tmp_path):
        whole = write_metrics_jsonl(tmp_path / "m.jsonl", _populated_registry())
        lines = whole.read_text().splitlines()
        (header_at,) = [i for i, line in enumerate(lines) if '"instrument": "lat"' in line]
        headless = tmp_path / "headless.jsonl"
        headless.write_text("\n".join(lines[:header_at] + lines[header_at + 1:]) + "\n")
        # The first `lat` row moved up into the deleted header's place.
        with pytest.raises(
                ValueError, match=rf'headless\.jsonl:{header_at + 1}: expected an {{"instrument": "lat"'):
            read_metrics_jsonl(headless)
        doc = read_metrics_jsonl(whole)
        del doc.instruments["lat"]
        with pytest.raises(ValueError, match="expected an .* header for histogram 'lat'"):
            doc.pooled_histogram("lat")


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=8)
        for i in range(20):
            rec.record("submit", i * 0.1, frame=i)
        assert rec.recorded == 20 and len(rec.events) == 8
        assert rec.events[0].fields == (("frame", 12),)

    def test_trigger_snapshots_ring_into_dump(self):
        rec = FlightRecorder(capacity=4)
        rec.record("submit", 0.0, frame=0)
        dump = rec.trigger("deadline-burst", 0.5, late=3)
        assert dump["reason"] == "deadline-burst"
        # the trigger event itself is part of the post-mortem
        assert [e["kind"] for e in dump["events"]] == ["submit", "trigger"]

    def test_dump_digest_deterministic_and_meta_free(self, tmp_path):
        def build():
            rec = FlightRecorder(capacity=4)
            for i in range(6):
                rec.record("seal", i * 0.25, frame=i, status="delivered")
            rec.trigger("queue-saturation", 1.5, streak=8)
            return rec

        a, b = build(), build()
        assert a.digest() == b.digest()
        pa = write_flight_jsonl(tmp_path / "a.jsonl", a)
        pb = write_flight_jsonl(tmp_path / "b.jsonl", b)
        assert pa.read_text() == pb.read_text()

    def test_max_dumps_evicts_oldest(self):
        rec = FlightRecorder(capacity=2, max_dumps=2)
        for i in range(4):
            rec.trigger(f"r{i}", float(i))
        assert [d["reason"] for d in rec.dumps] == ["r2", "r3"]

    @pytest.mark.parametrize(
        "kwargs",
        [dict(capacity=0), dict(deadline_burst=0), dict(deadline_burst=9, burst_window=8),
         dict(saturation_burst=0)],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            FlightRecorder(**kwargs)


class TestTopRendering:
    def test_series_rows_and_render(self):
        reg = _populated_registry()
        rows = series_rows(reg.snapshot(), width=16)
        assert {r["kind"] for r in rows} == {"counter", "gauge", "histogram"}
        hist_row = next(r for r in rows if r["kind"] == "histogram")
        assert {"p50", "p95", "p99"} <= set(hist_row)
        text = render_top(reg.snapshot(), flight=FlightRecorder().snapshot())
        assert "frames{status=ok}" in text and "flight recorder: armed" in text

    def test_width_clips_to_tail(self):
        reg = MetricsRegistry(window=0.1)
        c = reg.counter("n")
        for i in range(50):
            c.inc(1.0, at=i * 0.1)
        (row,) = series_rows(reg.snapshot(), width=8)
        assert len(row["spark"]) == 8


class TestPooledTraceSummary:
    """StageStats.from_histogram: the pooled row `repro report --metrics` prints."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=1e-5, max_value=50.0, allow_nan=False,
                              allow_infinity=False),
                    min_size=1, max_size=80))
    def test_pooled_summary_tracks_exact(self, durations):
        frames = [
            FrameTrace(index=i, spans={"encode": float(d)}, counters={})
            for i, d in enumerate(durations)
        ]
        exact = summarize(frames).spans["encode"]
        hist = FixedBucketHistogram(log_buckets(1e-6, 1e2, per_decade=8))
        for d in durations:
            hist.observe(float(d))
        pooled = StageStats.from_histogram(hist)
        assert pooled.count == exact.count
        assert pooled.total == pytest.approx(exact.total, rel=1e-12)
        # The pooled quantile tracks the exact *nearest-rank* quantile to
        # within one bucket of the log grid (8/decade -> <=34% relative).
        ordered = sorted(float(d) for d in durations)
        n = len(ordered)
        for q, est in ((0.5, pooled.p50), (0.95, pooled.p95)):
            rank_up = min(n, math.ceil(q * (n - 1) + 1.0))
            assert est == pytest.approx(ordered[rank_up - 1], rel=0.34, abs=1e-9)

    def test_from_histogram_empty(self):
        empty = FixedBucketHistogram(linear_buckets(0.0, 1.0, 3))
        assert StageStats.from_histogram(empty) == StageStats(0, 0.0, 0.0, 0.0, 0.0)
