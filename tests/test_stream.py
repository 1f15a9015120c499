"""Streaming runtime units: clock, queue policies, determinism, faults.

The runtime's contract: identical seeds and virtual clock give identical
drop/degrade decisions and digests; the run is a plain call chain on the
calling thread, so no thread is started and whatever raises inside it
comes out as raised.
"""

import functools
import threading
from dataclasses import replace

import pytest

from repro.baselines.base import AnalyticsScheme, SchemeRun
from repro.core import DiVEScheme
from repro.edge.detector import QualityAwareDetector
from repro.edge.server import EdgeServer
from repro.experiments import scaled_bandwidth
from repro.fleet import FleetConfig, FleetRunner
from repro.network import constant_trace, with_outages
from repro.stream import BackpressureQueue, StreamConfig, StreamRunner, VirtualClock
from repro.world import Clip, nuscenes_like

pytestmark = [pytest.mark.timeout(300), pytest.mark.kernels]

RATE = 80_000.0  # bits/s -> a 10 kB payload takes exactly 1 s


class TestVirtualClock:
    def test_monotonic_advance(self):
        clock = VirtualClock()
        assert clock.advance(2.0) == 2.0
        assert clock.advance(1.0) == 2.0  # never backwards
        assert clock.advance(float("inf")) == 2.0  # non-events ignored
        assert clock.now == 2.0

    def test_stage_marks(self):
        clock = VirtualClock()
        clock.stamp("capture", 1.5)
        clock.stamp("uplink", 0.5)
        clock.stamp("capture", 1.0)  # older stamp does not regress the mark
        assert clock.marks == {"capture": 1.5, "uplink": 0.5}
        assert clock.now == 1.5


class TestStreamConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "panic"},
            {"queue_capacity": 0},
            {"queue_capacity": -1},
            {"deadline": -1.0},
            {"deadline": 0.0},
            {"deadline": float("nan")},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            StreamConfig(**kwargs).validate()


class TestBackpressurePolicies:
    def _queue(self, **kwargs):
        return BackpressureQueue(constant_trace(RATE), **kwargs)

    def test_block_keeps_fifo_timing(self):
        """block = unbounded timing; the stall is pure accounting."""
        queue = self._queue(capacity=1, policy="block")
        queue.submit(0, 10_000, 0.0)
        a1 = queue.submit(1, 10_000, 0.1)
        a2 = queue.submit(2, 10_000, 0.2)
        out = queue.close()
        assert [o.status for o in out] == ["delivered"] * 3
        assert [(o.start_time, o.finish_time) for o in out] == [
            (0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
        assert a1.admit_time == pytest.approx(1.0)
        assert a2.admit_time == pytest.approx(2.0)
        assert queue.blocked_time == pytest.approx(0.9 + 1.8)

    def test_degrade_shrinks_payload(self):
        queue = self._queue(capacity=1, policy="degrade-qp")  # DEGRADE_FACTOR = 0.5
        queue.submit(0, 10_000, 0.0)
        admission = queue.submit(1, 10_000, 0.1)
        assert admission.degraded and admission.size_bytes == 5_000
        out = queue.close()
        assert [o.status for o in out] == ["delivered", "degraded"]
        assert out[1].sent_bytes == 5_000
        assert (out[1].start_time, out[1].finish_time) == (1.0, 1.5)

    def test_drop_oldest_evicts_pending(self):
        queue = self._queue(capacity=2, policy="drop-oldest")
        queue.submit(0, 10_000, 0.0)   # on the wire
        queue.submit(1, 10_000, 0.1)   # waiting
        queue.submit(2, 10_000, 0.2)   # full -> evicts job 1
        out = queue.close()
        assert [(o.frame_index, o.status) for o in out] == [
            (0, "delivered"), (1, "dropped"), (2, "delivered")]
        assert out[1].reason == "evicted"
        assert out[1].release_time == pytest.approx(0.2)
        assert (out[2].start_time, out[2].finish_time) == (1.0, 2.0)

    def test_drop_oldest_tail_drops_when_wire_is_the_queue(self):
        queue = self._queue(capacity=1, policy="drop-oldest")
        queue.submit(0, 10_000, 0.0)
        admission = queue.submit(1, 10_000, 0.1)
        assert not admission.admitted
        out = queue.close()
        assert [(o.status, o.reason) for o in out] == [
            ("delivered", ""), ("dropped", "capacity")]

    def test_abandon_matches_truth_hol_drop(self):
        """Relaxed config: truth re-derives the agent's HoL drop exactly."""
        queue = self._queue(capacity=None, hol_timeout=1.0)
        queue.submit(0, 10_000, 0.0)   # transmits [0, 1], inside the timer
        queue.submit(1, 15_000, 0.1)   # would take [1, 2.5] -> timer at 2.0
        queue.abandon(1, at=2.0)       # the agent's own HoL timer fired
        out = queue.close()
        assert out[0].status == "delivered"
        assert out[1].status == "dropped"
        assert out[1].reason == "hol"
        assert out[1].release_time == pytest.approx(2.0)
        assert queue.was_abandoned(1)

    def test_abandon_frees_an_unstarted_slot(self):
        """A job abandoned before truth starts it never touches the wire."""
        queue = self._queue(capacity=None, hol_timeout=1.0)
        queue.submit(0, 10_000, 0.0)
        queue.submit(1, 10_000, 0.1)
        queue.abandon(1, at=0.5)  # truth start would be 1.0
        out = queue.close()
        assert out[1].status == "dropped"
        assert out[1].reason == "abandoned"
        assert out[1].release_time == pytest.approx(0.5)
        # The wire never carried job 1: the link is free again at 1.0.
        assert out[0].release_time == pytest.approx(1.0)


def _strict_run(policy: str):
    clip = nuscenes_like(3, n_frames=10, resolution=(192, 96))
    trace = with_outages(
        constant_trace(scaled_bandwidth(2.0, clip)),
        outage_duration=0.2, interval=0.4, first_outage=0.2,
    )
    config = StreamConfig(queue_capacity=2, policy=policy, deadline=0.15)
    server = EdgeServer(QualityAwareDetector(seed=7))
    return StreamRunner(DiVEScheme(), config).run(clip, trace, server)


def _counts(stats):
    return (stats.frames, stats.delivered, stats.degraded, stats.dropped, stats.local,
            stats.late, stats.blocked_time, stats.virtual_makespan)


@pytest.mark.parametrize("policy", ["drop-oldest", "degrade-qp"])
def test_determinism_across_reruns(policy):
    """Two runs of one configuration make identical virtual-time decisions."""
    first = _strict_run(policy)
    again = _strict_run(policy)
    assert first.stats.digest() == again.stats.digest()
    assert _counts(first.stats) == _counts(again.stats)
    assert [f.bytes_sent for f in first.run.frames] == [
        f.bytes_sent for f in again.run.frames]
    assert [f.source for f in first.run.frames] == [
        f.source for f in again.run.frames]
    # Under pressure the truth timeline actually diverged from belief
    # somewhere — otherwise this test exercises nothing.
    assert first.stats.dropped + first.stats.degraded + first.stats.late > 0


def test_determinism_on_numpy_reference():
    """The test above runs on the host's default kernel backend; the
    reference makes the same decisions."""
    from repro import kernels

    default = _strict_run("drop-oldest")
    with kernels.use_backend("numpy"):
        reference = _strict_run("drop-oldest")
    assert reference.stats.digest() == default.stats.digest()
    assert [f.bytes_sent for f in reference.run.frames] == [f.bytes_sent for f in default.run.frames]


class _CallServer(AnalyticsScheme):
    """Minimal scheme driving one server call."""

    name = "probe"

    def run(self, clip, trace, server):
        server.process(None, None, arrival_time=0.0)
        return SchemeRun(scheme=self.name, clip_name=clip.name)


class _FailingServer:
    inference_latency = 0.0
    downlink_latency = 0.0

    def process(self, *args, **kwargs):
        raise ValueError("detector exploded")


def test_inference_errors_propagate_to_agent():
    clip = nuscenes_like(0, n_frames=2, resolution=(192, 96))
    with pytest.raises(ValueError, match="detector exploded"):
        StreamRunner(_CallServer()).run(clip, constant_trace(RATE), _FailingServer())


class _RaisingScheme(AnalyticsScheme):
    name = "boom"

    def run(self, clip, trace, server):
        clip.frame(0)
        raise RuntimeError("scheme exploded")


def test_streaming_starts_no_thread(monkeypatch):
    """The runtime is a call chain on the calling thread: a stream run
    (finishing or raising) and an ``agent_workers=1`` fleet start no
    thread and leave none behind."""

    def refuse(self):
        raise AssertionError(f"thread {self.name!r} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    before = threading.active_count()
    clip = nuscenes_like(0, n_frames=3, resolution=(192, 96))
    trace = constant_trace(scaled_bandwidth(2.0, clip))

    result = StreamRunner(DiVEScheme(), StreamConfig(queue_capacity=2)).run(
        clip, trace, EdgeServer(QualityAwareDetector(seed=7)))
    assert [f.index for f in result.run.frames] == [0, 1, 2]
    assert set(result.stats.marks) == {"capture", "uplink", "edge"}
    with pytest.raises(RuntimeError, match="scheme exploded"):
        StreamRunner(_RaisingScheme()).run(clip, trace, EdgeServer(QualityAwareDetector(seed=7)))
    fleet = FleetRunner(FleetConfig(
        n_agents=2, n_frames=3, schemes=("dive", "o3"), resolution=(192, 96), agent_workers=1)).run()
    assert fleet.stats.frames == 6
    assert threading.active_count() == before


def _fail_frame_one(monkeypatch, site: str, error: Exception) -> None:
    """From here on, frame 1 of any clip / edge server / DiVE run raises ``error``."""
    owner, name, index_of = {
        "clip": (Clip, "frame", lambda args: args[0]),
        "server": (EdgeServer, "process", lambda args: args[1].index),
        "scheme": (DiVEScheme, "_run_frame", lambda args: args[3]),
    }[site]
    original = getattr(owner, name)

    def faulty(self, *args, **kwargs):
        if index_of(args) >= 1:
            raise error
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, faulty)


@pytest.mark.parametrize("make_error", [
    lambda: OSError("disk on fire"),
    lambda: ValueError("frame holds a NaN or infinite pixel"),
], ids=["oserror", "valueerror"])
@pytest.mark.parametrize("site", ["clip", "server", "scheme"])
@pytest.mark.parametrize("driver", ["stream", "fleet", "fleet-pool"])
def test_faults_propagate_as_raised(monkeypatch, driver, site, make_error):
    """Whatever raises under a streaming or fleet run — the renderer, the
    edge server, the scheme — the caller gets that very exception (type
    and message with it), the codec's own argument checks included; a
    streamed scheme gets its uplink seam back.  ``fleet-pool`` sends the
    agents through the ``agent_workers`` thread pool, the runtime's one
    thread seam: the same object comes out (no hang, no wrapper), no
    worker thread outlives the fault, and the next clean run is the
    serial run."""
    error = make_error()
    _fail_frame_one(monkeypatch, site, error)
    scheme = DiVEScheme()
    threads_before = threading.active_count()
    if driver != "stream":
        fleet_config = FleetConfig(
            n_agents=2, n_frames=3, schemes=("dive",), resolution=(192, 96),
            agent_workers=2 if driver == "fleet-pool" else 1)
        run = FleetRunner(fleet_config).run
    else:
        clip = nuscenes_like(0, n_frames=3, resolution=(192, 96))
        run = functools.partial(
            StreamRunner(scheme).run,
            clip, constant_trace(scaled_bandwidth(2.0, clip)), EdgeServer(QualityAwareDetector(seed=7)))
    with pytest.raises(type(error)) as raised:
        run()
    assert raised.value is error
    if driver == "stream":
        assert scheme.uplink_factory is None
    if driver == "fleet-pool":
        assert threading.active_count() == threads_before
        monkeypatch.undo()
        serial = FleetRunner(replace(fleet_config, agent_workers=1)).run()
        assert run().digest() == serial.digest()
