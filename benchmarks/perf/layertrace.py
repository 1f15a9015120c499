"""Benchmark-owned spans around the program's layer boundaries.

The traced pass rebinds each boundary in :data:`BOUNDARIES` to a timing
wrapper — a function through every ``repro.*`` module attribute that *is*
the original object (``from x import f`` copies included), a method on
its class — and restores all of them afterwards.  Spans are kept in
memory (name, thread, start, end, parent = innermost open span on the
same thread, frame id from the :class:`~harness.FrameClock` for spans on
the scheme's thread) and reduced to the per-layer metrics of
``BENCHMARK.json`` when the pass ends.  A boundary that no longer
resolves is counted in ``trace.absent``; it never raises, and the
untraced run does not import this table's targets.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types
from dataclasses import dataclass

import numpy as np

__all__ = ["BOUNDARIES", "Boundary", "CodecOracle", "Recorder"]


@dataclass(frozen=True)
class Boundary:
    """One wrapped callable.

    ``driver`` marks glue that only sequences other layers (its self time
    is what ``trace.coverage`` counts as unattributed); ``thread_cpu``
    additionally records the calling thread's CPU time, which is how
    waiting on other threads is told from work.
    """

    span: str
    module: str
    qualname: str
    driver: bool = False
    thread_cpu: bool = False


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("world.frame", "repro.world.datasets", "Clip.frame"),
    Boundary("world.render_at", "repro.world.datasets", "Clip.render_at"),
    Boundary("world.render", "repro.world.renderer", "Renderer.render"),
    Boundary("codec.me", "repro.codec.motion", "estimate_motion"),
    Boundary("codec.mc", "repro.codec.motion", "motion_compensate"),
    Boundary("codec.encode", "repro.codec.encoder", "VideoEncoder.encode"),
    Boundary("codec.region_encode", "repro.codec.encoder", "encode_region_update"),
    Boundary("codec.dct", "repro.codec.transform", "dct_blocks"),
    Boundary("codec.idct", "repro.codec.transform", "idct_blocks"),
    Boundary("codec.quantize", "repro.codec.transform", "quantize"),
    Boundary("codec.dequantize", "repro.codec.transform", "dequantize"),
    Boundary("codec.cost_bits", "repro.codec.transform", "transform_cost_bits"),
    Boundary("codec.rc_init", "repro.codec.transform", "QuantBitCounter.__init__"),
    Boundary("codec.rc_probe", "repro.codec.transform", "QuantBitCounter.bits_at"),
    Boundary("codec.intra_encode", "repro.codec.intra", "intra_encode"),
    Boundary("codec.intra_decode", "repro.codec.intra", "intra_decode"),
    Boundary("codec.decode", "repro.codec.decoder", "VideoDecoder.decode"),
    Boundary("core.estimate_rotation", "repro.core.rotation", "estimate_rotation"),
    Boundary("core.remove_rotation", "repro.core.rotation", "remove_rotation"),
    Boundary("core.foreground", "repro.core.foreground", "ForegroundExtractor.extract"),
    Boundary("core.qp_map", "repro.core.qp", "QPAllocator.offsets"),
    Boundary("core.egomotion", "repro.core.egomotion", "EgoMotionJudge.update"),
    Boundary("core.foe", "repro.core.calibration", "FOECalibrator.update"),
    Boundary("core.track", "repro.core.tracking", "MotionVectorTracker.track"),
    Boundary("network.transmit", "repro.network.link", "UplinkSimulator.transmit"),
    Boundary("network.queue_wait", "repro.network.link", "UplinkSimulator.queue_wait"),
    Boundary("network.estimate", "repro.network.estimator", "BandwidthEstimator.estimate"),
    Boundary("network.record_ack", "repro.network.estimator", "BandwidthEstimator.record_ack"),
    Boundary("network.record_outage", "repro.network.estimator", "BandwidthEstimator.record_outage"),
    Boundary("edge.process", "repro.edge.server", "EdgeServer.process"),
    Boundary("edge.process_image", "repro.edge.server", "EdgeServer.process_image"),
    Boundary("edge.detect", "repro.edge.detector", "QualityAwareDetector.detect"),
    Boundary("edge.ground_truth", "repro.edge.detector", "QualityAwareDetector.ground_truth"),
    Boundary("edge.evaluate", "repro.edge.evaluation", "evaluate_detections"),
    Boundary("scheme.dive", "repro.core.agent", "DiVEScheme.run", driver=True),
    Boundary("scheme.dds", "repro.baselines.dds", "DDSScheme.run", driver=True),
    Boundary("scheme.eaar", "repro.baselines.eaar", "EAARScheme.run", driver=True),
    Boundary("scheme.o3", "repro.baselines.o3", "O3Scheme.run", driver=True),
    Boundary("stream.run", "repro.stream.runner", "StreamRunner.run", driver=True, thread_cpu=True),
    Boundary("stream.submit", "repro.stream.queues", "BackpressureQueue.submit"),
    Boundary("fleet.run_agents", "repro.fleet.runner", "FleetRunner.run_agents", driver=True),
    Boundary("fleet.settle", "repro.fleet.runner", "FleetRunner.settle", driver=True),
    Boundary("fleet.allocate", "repro.fleet.cell", "SharedCell.allocate"),
    Boundary("fleet.serve", "repro.fleet.batch", "BatchingEdgeServer.serve"),
    Boundary("experiments.run_scheme", "repro.experiments.runner", "run_scheme", driver=True),
    Boundary("experiments.evaluate_run", "repro.experiments.runner", "evaluate_run"),
)


def _resolve(module: str, qualname: str):
    """``(owner, attr, original)`` of a boundary, or ``None`` if it no
    longer resolves to a plain function."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if not isinstance(original, types.FunctionType):
        return None
    return owner, attr, original


class _Patches:
    """Rebind callables and put every one of them back: a context manager
    around ``install()`` (the subclass's list of rebinds)."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        #: The pass's FrameClock (set by the harness before ``install``).
        self.clock = None

    def rebind(self, module: str, qualname: str, wrap) -> None:
        """Replace ``module:qualname`` by ``wrap(original)``."""
        resolved = _resolve(module, qualname)
        if resolved is None:
            self.absent.append(f"{module}:{qualname}")
            return
        owner, attr, original = resolved
        wrapper = functools.wraps(original)(wrap(original))
        if isinstance(owner, types.ModuleType):
            # Every repro module that imported the function by name holds
            # its own reference; rebind each one that is the original.
            for mod in [m for name, m in sys.modules.items()
                        if m is not None and (name == "repro" or name.startswith("repro."))]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper, original)
        else:
            self._set(owner, attr, wrapper, original)

    def _set(self, owner, attr: str, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "_Patches":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


class CodecOracle(_Patches):
    """Independent decoder check at the edge boundary.

    While installed, every ``EncodedFrame`` an ``EdgeServer`` processes is
    also decoded by a decoder of the oracle's own (one per server, reset
    whenever the server is), and the result must equal the encoder's
    ``reconstruction`` bitwise.  Nothing is retained per frame.
    """

    def __init__(self) -> None:
        super().__init__()
        self.checked = 0
        self.mismatched = 0
        self._decoders: dict[int, object] = {}
        self._lock = threading.Lock()

    def install(self) -> None:
        from repro.codec.decoder import VideoDecoder

        def decoder_for(server):
            with self._lock:
                return self._decoders.setdefault(id(server), VideoDecoder())

        def wrap_process(original):
            def process(server, encoded, *args, **kwargs):
                try:
                    same = np.array_equal(decoder_for(server).decode(encoded),
                                          encoded.reconstruction)
                except ValueError:
                    same = False
                with self._lock:
                    self.checked += 1
                    self.mismatched += not same
                return original(server, encoded, *args, **kwargs)
            return process

        def wrap_reset(original):
            def reset(server):
                decoder_for(server).reset()
                return original(server)
            return reset

        self.rebind("repro.edge.server", "EdgeServer.process", wrap_process)
        self.rebind("repro.edge.server", "EdgeServer.reset", wrap_reset)

    def problems(self) -> list[str]:
        found = [f"codec oracle: boundary {name} absent" for name in self.absent]
        if self.mismatched:
            found.append(f"codec oracle: {self.mismatched} of {self.checked} frames at the edge "
                         "did not decode to the encoder's reconstruction")
        elif not self.checked and not self.absent:
            found.append("codec oracle: no encoded frame reached the edge")
        return found


class Recorder(_Patches):
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._seq = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------ recording

    def _wrap(self, boundary: Boundary, probe):
        spans = self.spans
        local = self._local
        seq = self._seq
        name = boundary.span
        thread_cpu = boundary.thread_cpu

        def wrap(original):
            def traced(*args, **kwargs):
                try:
                    stack = local.stack
                except AttributeError:
                    stack = local.stack = []
                clock = self.clock
                # [seq, time spent in child spans]
                mine = [next(seq), 0.0]
                parent = stack[-1] if stack else None
                stack.append(mine)
                cpu0 = time.thread_time() if thread_cpu else 0.0
                t0 = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    if parent is not None:
                        parent[1] += t1 - t0
                    thread = threading.get_ident()
                    spans.append((
                        name, thread, t0, t1, mine[0],
                        None if parent is None else parent[0],
                        clock.current if clock is not None and clock.thread == thread else None,
                        t1 - t0 - mine[1],
                        time.thread_time() - cpu0 if thread_cpu else None,
                    ))
                if probe is not None:
                    with self._lock:
                        probe(self.counts, args, result)
                return result
            return traced
        return wrap

    def install(self) -> None:
        for boundary in BOUNDARIES:
            self.rebind(boundary.module, boundary.qualname,
                        self._wrap(boundary, _PROBES.get(boundary.span)))

    def write_jsonl(self, path: str) -> None:
        keys = ("name", "thread", "start", "end", "id", "parent", "frame", "self", "thread_cpu")
        with open(path, "w") as out:
            out.write(json.dumps({"meta": {"absent": self.absent, "counts": self.counts}}) + "\n")
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")

    # ------------------------------------------------------------- reduction

    def metrics(self, *, frames: int, pass_wall: float, overhead_share: float) -> dict[str, dict]:
        """The per-layer metrics of ``BENCHMARK.json`` for this pass, in
        its order.  Times are inclusive of wrapped callees unless ``of``
        says otherwise, as a mean per frame; ``overhead_share`` is the
        harness's comparison of this pass with the untraced ones."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        cpu: dict[str, float] = {}
        for name, _, t0, t1, _, _, _, own, thread_cpu in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (t1 - t0)
            self_time[name] = self_time.get(name, 0.0) + own
            if thread_cpu is not None:
                cpu[name] = cpu.get(name, 0.0) + thread_cpu
        counts = self.counts

        def ms(*names: str, of: dict[str, float] = total, per: float = frames) -> dict:
            value = 1e3 * sum(of.get(n, 0.0) for n in names) / per if per else 0.0
            return {"value": value, "unit": "ms"}

        def count(*names: str) -> dict:
            return {"value": sum(calls.get(name, 0) for name in names), "unit": "count"}

        def probed(name: str, unit: str = "count") -> dict:
            return {"value": counts.get(name, 0), "unit": unit}

        def ratio(value: float) -> dict:
            return {"value": value, "unit": "ratio"}

        drivers = {b.span for b in BOUNDARIES if b.driver}
        attributed = sum(v for name, v in self_time.items() if name not in drivers)
        stream_wall = total.get("stream.run", 0.0)
        encodes = calls.get("codec.encode", 0)
        return {
            # world: a cache hit costs world.frame only, a miss adds a render.
            "world.render_ms": ms("world.frame", "world.render_at", "world.render", of=self_time),
            "world.renders": count("world.render"),
            "codec.me_ms": ms("codec.me"),
            "codec.me_calls": count("codec.me"),
            "codec.mc_ms": ms("codec.mc"),
            "codec.encode_ms": ms("codec.encode"),
            "codec.encode_self_ms": ms("codec.encode", of=self_time),
            "codec.region_encode_ms": ms("codec.region_encode"),
            "codec.intra_frames": probed("intra_frames"),
            "codec.kbit_per_frame": {
                "value": counts.get("coded_kbit", 0.0) / encodes if encodes else 0.0,
                "unit": "kbit"},
            "codec.dct_ms": ms("codec.dct", "codec.idct"),
            "codec.quant_ms": ms("codec.quantize", "codec.dequantize", "codec.cost_bits"),
            "codec.rate_control_ms": ms("codec.rc_init", "codec.rc_probe"),
            "codec.rate_probes": count("codec.rc_probe"),
            "codec.intra_ms": ms("codec.intra_encode", "codec.intra_decode"),
            "codec.decode_ms": ms("codec.decode"),
            "codec.decodes": count("codec.decode"),
            "core.rotation_ms": ms("core.estimate_rotation", "core.remove_rotation"),
            "core.foreground_ms": ms("core.foreground"),
            "core.qp_map_ms": ms("core.qp_map"),
            "core.egomotion_ms": ms("core.egomotion", "core.foe"),
            "core.track_ms": ms("core.track"),
            "core.track_calls": count("core.track"),
            "network.uplink_ms": ms("network.transmit", "network.queue_wait"),
            "network.estimator_ms": ms("network.estimate", "network.record_ack",
                                       "network.record_outage"),
            "network.transmits": count("network.transmit"),
            "network.drops": probed("uplink_drops"),
            "network.kbytes_sent": probed("uplink_kbytes", "kB"),
            "edge.process_ms": ms("edge.process", "edge.process_image"),
            "edge.detect_ms": ms("edge.detect"),
            "edge.evaluate_ms": ms("edge.evaluate", "edge.ground_truth"),
            "edge.requests": count("edge.process", "edge.process_image"),
            **{f"scheme.{scheme}_ms": ms(f"scheme.{scheme}", per=counts.get(f"{scheme}_frames", 0))
               for scheme in ("dive", "dds", "eaar", "o3")},
            "stream.run_self_ms": ms("stream.run", of=self_time),
            "stream.queue_ms": ms("stream.submit"),
            "stream.submits": count("stream.submit"),
            "stream.shed_frames": probed("stream_shed"),
            "stream.wait_share": ratio(1.0 - cpu.get("stream.run", 0.0) / stream_wall
                                       if stream_wall else 0.0),
            "fleet.agents_ms": ms("fleet.run_agents"),
            "fleet.settle_ms": ms("fleet.settle"),
            "fleet.cell_ms": ms("fleet.allocate"),
            "fleet.batch_ms": ms("fleet.serve"),
            "fleet.requests": probed("fleet_requests"),
            "fleet.rejects": probed("fleet_rejects"),
            "fleet.batches": probed("fleet_batches"),
            "experiments.driver_self_ms": ms("experiments.run_scheme", of=self_time),
            "experiments.evaluate_ms": ms("experiments.evaluate_run"),
            "trace.coverage": ratio(attributed / pass_wall),
            "trace.overhead_share": ratio(overhead_share),
            "trace.absent": {"value": len(self.absent), "unit": "count"},
        }


# ------------------------------------------------------------------ probes
# Counts read off a boundary's arguments and result: probe(counts, args, result).

def _add(counts: dict, name: str, value: float = 1) -> None:
    counts[name] = counts.get(name, 0) + value


def _probe_encode(counts, args, encoded) -> None:
    _add(counts, "intra_frames", encoded.frame_type == "I")
    _add(counts, "coded_kbit", encoded.bits / 1e3)


def _probe_transmit(counts, args, tx) -> None:
    if tx.dropped:
        _add(counts, "uplink_drops")
    else:
        _add(counts, "uplink_kbytes", tx.bytes / 1e3)


def _probe_scheme(key: str):
    def probe(counts, args, run) -> None:
        _add(counts, key, len(run.frames))
    return probe


def _probe_stream(counts, args, result) -> None:
    _add(counts, "stream_shed", sum(r.status == "dropped" for r in result.stats.records))


def _probe_serve(counts, args, outcomes) -> None:
    _add(counts, "fleet_requests", len(outcomes))
    _add(counts, "fleet_rejects", sum(o.status == "rejected" for o in outcomes))
    _add(counts, "fleet_batches", len(args[0].batches))


_PROBES = {
    "codec.encode": _probe_encode,
    "network.transmit": _probe_transmit,
    "scheme.dive": _probe_scheme("dive_frames"),
    "scheme.dds": _probe_scheme("dds_frames"),
    "scheme.eaar": _probe_scheme("eaar_frames"),
    "scheme.o3": _probe_scheme("o3_frames"),
    "stream.run": _probe_stream,
    "fleet.serve": _probe_serve,
}
