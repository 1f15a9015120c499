"""Streaming-runtime telemetry: rerun invariance and post-mortems.

The acceptance properties of the metrics layer, locked against the golden
clip set on the bursty-outage scenario (bounded queue, drop-oldest,
per-frame deadline, periodic uplink outages):

- the windowed metric timeline — and its digest — is bit-identical
  across reruns;
- the deadline-miss burst fires a flight-recorder dump whose JSONL
  digest is identical across runs;
- running with live telemetry does not change the streaming truth
  accounting (StreamStats digest) relative to the null path.
"""

import pytest

from repro.core import DiVEScheme
from repro.edge import EdgeServer, QualityAwareDetector
from repro.experiments import scaled_bandwidth
from repro.metrics import (
    NULL_FLIGHT_RECORDER,
    NULL_REGISTRY,
    FlightRecorder,
    MetricsRegistry,
)
from repro.network import constant_trace, with_outages
from repro.stream import StreamConfig, StreamRunner

pytestmark = pytest.mark.timeout(180)


def _bursty_trace(clip):
    return with_outages(
        constant_trace(scaled_bandwidth(2.0, clip)),
        outage_duration=0.2, interval=0.4, first_outage=0.2,
    )


def _run(clip, *, metrics=None, flight=None):
    registry = metrics if metrics is not None else NULL_REGISTRY
    recorder = flight if flight is not None else NULL_FLIGHT_RECORDER
    config = StreamConfig(queue_capacity=2, policy="drop-oldest", deadline=0.25)
    server = EdgeServer(QualityAwareDetector(seed=7), metrics=registry)
    runner = StreamRunner(DiVEScheme(), config, metrics=registry, flight_recorder=recorder)
    return runner.run(clip, _bursty_trace(clip), server)


def _total(registry, name):
    """Sum of one counter over every label set and window."""
    (inst,) = [i for i in registry.snapshot()["instruments"] if i["name"] == name]
    return sum(w["sum"] for s in inst["series"] for w in s["windows"])


class TestWorkerCountInvariance:
    def test_deadline_burst_dump_reproducible_across_reruns(self, golden_clips):
        clip = golden_clips[0]
        registries, recorders, stats = [], [], []
        for _ in range(2):
            registry, recorder = MetricsRegistry(), FlightRecorder()
            stats.append(_run(clip, metrics=registry, flight=recorder).stats)
            registries.append(registry)
            recorders.append(recorder)
        reasons = [d["reason"] for d in recorders[0].dumps]
        assert "deadline-burst" in reasons
        assert reasons == [d["reason"] for d in recorders[1].dumps]
        assert recorders[0].digest() == recorders[1].digest()
        assert registries[0].digest() == registries[1].digest()
        assert stats[0].digest() == stats[1].digest()

    def test_live_metrics_do_not_change_stream_truth(self, golden_clips):
        clip = golden_clips[1]
        null_result = _run(clip)
        live_result = _run(clip, metrics=MetricsRegistry(), flight=FlightRecorder())
        assert live_result.stats.digest() == null_result.stats.digest()


class TestInstrumentation:
    def test_streaming_run_populates_expected_instruments(self, golden_clips):
        registry = MetricsRegistry()
        _run(golden_clips[0], metrics=registry, flight=FlightRecorder())
        names = {inst.name for inst in registry.instruments()}
        assert {
            "stream_frames_captured", "stream_queue_depth",
            "stream_queue_occupancy_seconds", "stream_queue_wait_seconds",
            "stream_uplink_service_seconds", "stream_uplink_sent_bytes",
            "stream_frame_status", "stream_response_seconds",
            "stream_deadline_slack_seconds",
            "edge_requests", "edge_batch_size", "edge_service_seconds",
        } <= names
        assert _total(registry, "stream_frames_captured") == golden_clips[0].n_frames

    def test_every_sample_sits_on_the_virtual_timeline(self, golden_clips):
        registry = MetricsRegistry()
        result = _run(golden_clips[0], metrics=registry, flight=FlightRecorder())
        horizon_index = registry.window_index(result.stats.virtual_makespan) + 1
        for inst in registry.snapshot()["instruments"]:
            for series in inst["series"]:
                for win in series["windows"]:
                    assert 0 <= win["index"] <= horizon_index, inst["name"]


class TestBatchIntegration:
    def test_batch_run_records_edge_metrics(self, golden_clips):
        clip = golden_clips[0]
        registry = MetricsRegistry()
        server = EdgeServer(QualityAwareDetector(seed=7), metrics=registry)
        DiVEScheme().run(clip, constant_trace(scaled_bandwidth(2.0, clip)), server)
        for name in ("edge_requests", "edge_service_seconds"):
            assert _total(registry, name) > 0, name
