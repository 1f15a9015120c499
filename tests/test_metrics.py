"""Unit + property tests for :mod:`repro.metrics`.

The load-bearing properties:

- a window's sum is exact (``math.fsum`` over its kept samples), so it
  reads the same for any recording order;
- histogram windows keep their samples, so pooling windows is lossless
  and every printed percentile is ``np.percentile`` over the pooled
  samples — the same number in ``repro report --metrics`` and
  ``repro top``;
- the JSONL export round-trips, the reader names bad input by line, and
  the digest keys on body lines only;
- the flight recorder's ring is bounded and its dumps deterministic;
- the null objects are inert shared singletons.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    NULL_FLIGHT_RECORDER,
    NULL_REGISTRY,
    WINDOW,
    FlightRecorder,
    MetricsRegistry,
    read_metrics_jsonl,
    registry_digest,
    render_top,
    series_rows,
    write_flight_jsonl,
    write_metrics_jsonl,
)
from repro.metrics.flight import CAPACITY, MAX_DUMPS
from repro.metrics.top import _fmt
from repro.obs import FrameTrace, StageStats, run_report, summarize

finite_small = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False, width=32
)
finite_wide = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


def _windows(reg: MetricsRegistry, name: str) -> list[dict]:
    (inst,) = [i for i in reg.snapshot()["instruments"] if i["name"] == name]
    (series,) = inst["series"]
    return series["windows"]


class TestExactSum:
    """A window's sum is ``math.fsum`` over its kept samples: exact, one
    rounding, whatever order the samples were recorded in."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite_wide, min_size=1, max_size=60))
    def test_order_independent(self, values):
        orders = [values, list(reversed(values)), sorted(values), sorted(values, reverse=True)]
        sums = set()
        for order in orders:
            reg = MetricsRegistry()
            for v in order:
                reg.counter("n").inc(v, at=0.1)
                reg.histogram("h").observe(v, at=0.1)
            (c,), (h,) = _windows(reg, "n"), _windows(reg, "h")
            assert c["sum"] == h["sum"]
            sums.add(c["sum"])
        assert sums == {math.fsum(values)}

    def test_merge_equals_single_accumulator(self):
        # Two batches recorded into one window read as one exact
        # accumulator, even where float addition cancels catastrophically.
        reg = MetricsRegistry()
        for v in [0.1] * 7 + [1e16, 1.0, -1e16]:
            reg.counter("n").inc(v, at=0.0)
        (win,) = _windows(reg, "n")
        assert win["sum"] == math.fsum([0.1] * 7 + [1e16, 1.0, -1e16])
        assert win["count"] == 10


class TestHistogramMerge:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite_small, min_size=1, max_size=80), st.integers(1, 5))
    def test_sharded_merge_is_lossless(self, values, k):
        # The same samples in one window, or dealt across k windows, pool
        # to the same sample set and the same summary row.
        whole, sharded = MetricsRegistry(), MetricsRegistry()
        for i, v in enumerate(values):
            whole.histogram("h").observe(v, at=0.0)
            sharded.histogram("h").observe(v, at=(i % k) * WINDOW)
        pool = {name: [v for w in _windows(reg, "h") for v in w["values"]]
                for name, reg in (("whole", whole), ("sharded", sharded))}
        assert sorted(pool["sharded"]) == pool["whole"] == sorted(values)
        assert len(_windows(sharded, "h")) == min(k, len(values))
        a, b = StageStats.from_values(pool["whole"]), StageStats.from_values(pool["sharded"])
        assert (a.count, a.p50, a.p95, a.p99) == (b.count, b.p50, b.p95, b.p99)

    def test_non_finite_observations_skipped(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(float("nan"), at=0.0)
        h.observe(float("inf"), at=0.0)
        h.observe(1.0, at=float("nan"))
        assert _windows(reg, "h") == []
        h.observe(2.0, at=0.0)
        assert [w["values"] for w in _windows(reg, "h")] == [[2.0]]


class TestRegistry:
    def test_window_index_floors_virtual_time(self):
        reg = MetricsRegistry()
        assert reg.window == WINDOW == 0.25
        assert [reg.window_index(t) for t in (0.0, 0.24, 0.25, 1.0)] == [0, 0, 1, 4]

    def test_counter_windows_accumulate(self):
        reg = MetricsRegistry()
        c = reg.counter("frames")
        for t in (0.1, 0.2, 1.5):
            c.inc(2.0, at=t)
        windows = _windows(reg, "frames")
        assert [(w["index"], w["t0"], w["count"], w["sum"]) for w in windows] == [
            (0, 0.0, 2, 4.0), (6, 1.5, 1, 2.0)]
        assert set(windows[0]) == {"index", "t0", "count", "sum"}

    def test_gauge_last_breaks_ties_deterministically(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(3.0, at=0.1)
        g.set(1.0, at=0.1)  # same stamp: lexicographically greatest (at, value) wins
        g.set(2.0, at=0.05)  # earlier stamp, recorded later: not "last"
        (win,) = _windows(reg, "depth")
        assert win["last"] == 3.0 and win["min"] == 1.0 and win["max"] == 3.0
        assert win["count"] == 3 and win["sum"] == 6.0

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
        assert reg.histogram("h") is reg.histogram("h")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("n")
        with pytest.raises(ValueError, match="already registered as histogram"):
            reg.counter("h")

    def test_non_finite_samples_skipped(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(float("nan"), at=0.0)
        reg.gauge("g").set(1.0, at=float("inf"))
        reg.histogram("h").observe(float("-inf"), at=0.0)
        snap = reg.snapshot()
        assert all(not s["windows"] for i in snap["instruments"] for s in i["series"])

    def test_histogram_pooled_merges_all_windows(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for t, v in ((0.1, 1.2), (0.2, 0.2), (0.6, 1.2), (1.4, 1.9)):
            h.observe(v, at=t)
        windows = _windows(reg, "lat")
        assert [(w["index"], w["values"]) for w in windows] == [
            (0, [0.2, 1.2]), (2, [1.2]), (5, [1.9])]
        assert [(w["count"], w["min"], w["max"]) for w in windows] == [
            (2, 0.2, 1.2), (1, 1.2, 1.2), (1, 1.9, 1.9)]
        (row,) = [r for r in series_rows(reg.snapshot()) if r["label"] == "lat"]
        pooled = [0.2, 1.2, 1.2, 1.9]
        assert row["count"] == 4
        assert row["p95"] == np.percentile(pooled, 95)


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
    reg = MetricsRegistry(meta={"run": "test"})
    c = reg.counter("frames", help="frames seen")
    g = reg.gauge("depth")
    h = reg.histogram("lat", unit="s")
    for i in range(10):
        t = i * 0.1
        c.labels(status="ok" if i % 2 else "bad").inc(1.0, at=t)
        g.set(float(i % 3), at=t)
        h.observe(0.1 * i % 1.0, at=t)
    return reg


def _report_row(text: str, series: str) -> list[str]:
    """The cells of one series row of a markdown run report."""
    (line,) = [ln for ln in text.splitlines() if ln.startswith(f"| {series} |")]
    return [cell.strip() for cell in line.strip("|").split("|")]


class TestPercentiles:
    """One percentile path: ``repro report --metrics`` and ``repro top``
    print ``np.percentile`` over a series' pooled samples."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(finite_small, st.floats(0.0, 3.0, allow_nan=False)),
                    min_size=1, max_size=60))
    def test_report_and_top_print_np_percentile(self, tmp_path_factory, samples):
        reg = MetricsRegistry()
        for value, at in samples:
            reg.histogram("lat", unit="s").observe(value, at=at)
        pooled = [v for v, _ in samples]
        want = {q: float(np.percentile(pooled, q)) for q in (50, 95, 99)}

        (row,) = series_rows(reg.snapshot())
        assert (row["p50"], row["p95"], row["p99"]) == (want[50], want[95], want[99])
        top_text = render_top(reg.snapshot())
        assert (f"p50={_fmt(want[50])}  p95={_fmt(want[95])}  p99={_fmt(want[99])}"
                in top_text)

        path = write_metrics_jsonl(tmp_path_factory.mktemp("m") / "m.jsonl", reg)
        cells = _report_row(run_report(metrics=read_metrics_jsonl(path)), "lat")
        assert cells[1] == str(len(pooled))
        assert cells[3:6] == [f"{want[q]:.4g}" for q in (50, 95, 99)]


class TestExport:
    def test_jsonl_round_trip_preserves_pooled_histogram(self, tmp_path):
        reg = _populated_registry()
        path = write_metrics_jsonl(tmp_path / "m.jsonl", reg)
        doc = read_metrics_jsonl(path)
        assert doc.meta == {"run": "test"} and doc.window == 0.25
        live = _windows(reg, "lat")
        parsed = [r for r in doc.rows if r["name"] == "lat"]
        assert [r["values"] for r in parsed] == [w["values"] for w in live]
        assert [(r["count"], r["sum"], r["min"], r["max"]) for r in parsed] == [
            (w["count"], w["sum"], w["min"], w["max"]) for w in live]
        assert "edges" not in doc.instruments["lat"]

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


#: A metrics JSONL as the bucket-grid exporter wrote it: an ``edges``
#: header and a histogram row with ``buckets`` in place of ``values``.
_BUCKET_GRID_JSONL = "\n".join([
    '{"meta": {}, "window": 0.25}',
    '{"edges": [0.1, 0.2, 0.4], "help": "", "instrument": "lat", "kind": "histogram", "unit": "s"}',
    '{"buckets": [0, 1, 0, 0], "count": 1, "kind": "histogram", "labels": {}, "max": 0.15, '
    '"min": 0.15, "name": "lat", "sum": 0.15, "t0": 0.0, "window": 0}',
]) + "\n"


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

    def test_bucket_grid_histogram_row(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "old.jsonl"
        path.write_text(_BUCKET_GRID_JSONL)
        with pytest.raises(ValueError, match=r"old\.jsonl:3: .*missing \['values'\]"):
            read_metrics_jsonl(path)
        assert main(["report", "--metrics", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "old.jsonl:3:" in captured.err
        assert "values" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("corrupt", [
        lambda v: v[:-1],
        lambda v: v + [0.5],
        lambda v: [float("nan")] + v[1:],
        lambda v: v[:-1] + [float("inf")],
        lambda v: ["0.1"] + v[1:],
        lambda v: json.dumps(v),
    ], ids=["short", "long", "nan", "inf", "string-sample", "string"])
    def test_histogram_values_must_be_the_samples(self, tmp_path, corrupt):
        lines = write_metrics_jsonl(tmp_path / "m.jsonl", _populated_registry()).read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        (at,) = [i for i, r in enumerate(rows) if r.get("name") == "lat" and r["window"] == 0]
        row = rows[at]
        assert row["count"] == len(row["values"]) == 3
        row["values"] = corrupt(row["values"])
        lines[at] = json.dumps(row, sort_keys=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(
                ValueError, match=rf"bad\.jsonl:{at + 1}: expected a histogram row whose values "
                                  r"are its 3 finite samples"):
            read_metrics_jsonl(bad)


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder()
        for i in range(CAPACITY + 12):
            rec.record("submit", i * 0.1, frame=i)
        assert rec.recorded == CAPACITY + 12 and len(rec.events) == CAPACITY
        assert rec.events[0].fields == (("frame", 12),)
        assert rec.snapshot()["capacity"] == CAPACITY

    def test_trigger_snapshots_ring_into_dump(self):
        rec = FlightRecorder()
        rec.record("submit", 0.0, frame=0)
        dump = rec.trigger("deadline-burst", 0.5, late=3)
        assert dump["reason"] == "deadline-burst"
        # the trigger event itself is part of the post-mortem
        assert [e["kind"] for e in dump["events"]] == ["submit", "trigger"]

    def test_dump_digest_deterministic_and_meta_free(self, tmp_path):
        def build():
            rec = FlightRecorder()
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
        rec = FlightRecorder()
        for i in range(MAX_DUMPS + 2):
            rec.trigger(f"r{i}", float(i))
        assert [d["reason"] for d in rec.dumps] == [f"r{i}" for i in range(2, MAX_DUMPS + 2)]


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
        reg = MetricsRegistry()
        c = reg.counter("n")
        for i in range(50):
            c.inc(1.0, at=i * WINDOW)
        (row,) = series_rows(reg.snapshot(), width=8)
        assert len(row["spark"]) == 8


class TestPooledTraceSummary:
    """The pooled row ``repro report --metrics`` prints is the row
    ``repro trace`` prints for the same samples."""

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
        reg = MetricsRegistry()
        for i, d in enumerate(durations):
            reg.histogram("encode").observe(d, at=i * 0.1)
        pooled = StageStats.from_values([v for w in _windows(reg, "encode") for v in w["values"]])
        assert (pooled.count, pooled.p50, pooled.p95, pooled.p99) == (
            exact.count, exact.p50, exact.p95, exact.p99)
        assert pooled.total == pytest.approx(exact.total, rel=1e-12)
