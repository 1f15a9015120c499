"""The built-in benchmark set.

Micro benchmarks isolate the hot paths every DiVE latency claim rests on
(the paper's Fig 9 is literally "ME milliseconds per frame at a given
mAP"):

- ``me/<method>`` — block-matching motion estimation per search method
  (:func:`repro.codec.motion.estimate_motion`) on two rendered frames of a
  seeded clip.  ESA/TESA use :attr:`BenchScale.exhaustive_search_range`
  so the exhaustive searches stay in budget.
- ``me/motion_compensate`` — batched motion-compensated prediction from a
  hex-estimated (sub-pixel) MV field.
- ``codec/dct_quant_roundtrip`` — 8x8 DCT → quantise → bit accounting →
  dequantise → inverse DCT on a real inter-frame residual.
- ``codec/rate_control`` — the CBR binary search (bit-curve counter
  construction plus QP probes) on the DCT of a real residual with a
  two-level DiVE-style QP offset map.
- ``codec/intra_encode`` / ``codec/intra_decode`` — the I-frame wavefront
  (DC/H/V mode decision, transform, quantise, bit cost, reconstruct) on one
  640x192 ``kitti_like`` frame, the ruler's ``drive_outage`` geometry.
- ``world/render`` — one frame of the synthetic world through the
  painter's-algorithm renderer (value-noise textures included): the
  capture cost of every un-preloaded run, and most of a fleet frame.
- ``core/foreground_cluster`` — region growing, cluster merging and convex
  rasterisation on a synthetic translational field with planted objects.
- ``core/ransac_rotation`` — R-sampling + RANSAC rotation fit on a
  synthetic rotational+translational field.
- ``obs/metrics_overhead`` — recording cost of the virtual-time metrics
  registry (counter + gauge + histogram per sample, one digest).
- ``stream/flight_recorder`` — flight-recorder ring throughput with
  periodic trigger dumps.

Macro benchmarks run a whole per-frame pipeline (DiVE and each baseline)
on a small seeded ``repro.world`` scene with a live tracer attached, so
each result embeds the per-stage span breakdown the ``repro report``
command renders.  ``pipeline/stream_metrics`` repeats the streaming
macro with full telemetry live, so the stream/stream_metrics pair is the
measured observability overhead.

Every input is derived from :class:`BenchScale.seed` — the *work* two runs
perform at the same scale is bit-identical; only wall-clock differs.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.bench.registry import BenchCase, benchmark
from repro.codec.motion import ME_METHODS, estimate_motion
from repro.codec.transform import dct_blocks, dequantize, idct_blocks, quantize, transform_cost_bits
from repro.core.clustering import clusters_to_mask, merge_clusters, region_grow
from repro.core.grid import block_centers
from repro.core.rotation import estimate_rotation
from repro.experiments.config import BenchScale, ExperimentConfig, scaled_bandwidth
from repro.geometry.camera import CameraIntrinsics
from repro.geometry.flow import rotational_flow
from repro.obs.tracer import Tracer

_BLOCK = 16


def _micro_frames(scale: BenchScale) -> tuple[np.ndarray, np.ndarray]:
    """Two consecutive rendered frames at the micro-benchmark resolution."""
    from repro.world import nuscenes_like

    clip = nuscenes_like(scale.seed, n_frames=2, resolution=(scale.frame_width, scale.frame_height))
    return clip.frame(1).image, clip.frame(0).image


# -- motion estimation ------------------------------------------------------


def _build_me(method: str, scale: BenchScale) -> BenchCase:
    current, reference = _micro_frames(scale)
    search_range = scale.exhaustive_search_range if method in ("esa", "tesa") else 16
    blocks = (current.shape[0] // _BLOCK) * (current.shape[1] // _BLOCK)

    def fn() -> object:
        return estimate_motion(current, reference, method=method, search_range=search_range)

    return BenchCase(fn=fn, work={"frames": 1.0, "macroblocks": float(blocks)})


for _method in ME_METHODS:
    benchmark(f"me/{_method}", suite="micro", group="me")(partial(_build_me, _method))


@benchmark("me/motion_compensate", suite="micro", group="me")
def _build_motion_compensate(scale: BenchScale) -> BenchCase:
    from repro.codec.motion import motion_compensate

    current, reference = _micro_frames(scale)
    # A real sub-pixel field: fractional MVs exercise the 4-tap bilinear
    # path, static blocks the single-tap integer path.
    mv = estimate_motion(current, reference, method="hex", search_range=16).mv
    blocks = (current.shape[0] // _BLOCK) * (current.shape[1] // _BLOCK)

    def fn() -> np.ndarray:
        return motion_compensate(reference, mv, block=_BLOCK)

    return BenchCase(fn=fn, work={"frames": 1.0, "macroblocks": float(blocks)})


# -- transform coding -------------------------------------------------------


@benchmark("codec/dct_quant_roundtrip", suite="micro", group="codec")
def _build_dct_quant(scale: BenchScale) -> BenchCase:
    current, reference = _micro_frames(scale)
    residual = current.astype(np.float64) - reference.astype(np.float64)
    rows, cols = residual.shape[0] // _BLOCK, residual.shape[1] // _BLOCK
    r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    qp_map = (28.0 + 8.0 * ((r + c) % 3)).astype(np.float64)

    def fn() -> float:
        coeffs = dct_blocks(residual)
        levels = quantize(coeffs, qp_map, mb_size=_BLOCK)
        bits = float(transform_cost_bits(levels, mb_size=_BLOCK).sum())
        idct_blocks(dequantize(levels, qp_map, mb_size=_BLOCK))
        return bits

    return BenchCase(
        fn=fn,
        work={
            "frames": 1.0,
            "macroblocks": float(rows * cols),
            "encoded_kbit": fn() / 1e3,
        },
    )


@benchmark("codec/rate_control", suite="micro", group="codec")
def _build_rate_control(scale: BenchScale) -> BenchCase:
    from repro.codec.encoder import VideoEncoder
    from repro.codec.transform import QuantBitCounter

    current, reference = _micro_frames(scale)
    residual = current.astype(np.float64) - reference.astype(np.float64)
    coeffs = dct_blocks(residual)
    rows, cols = residual.shape[0] // _BLOCK, residual.shape[1] // _BLOCK
    r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    # Two-level offset map, the shape DiVE's foreground/background QP
    # differential produces.
    offsets = np.where((r + c) % 3 == 0, 0.0, 6.0)
    budget_bits = float(residual.size) * 0.4  # mid-curve: search spans several QPs

    def fn() -> float:
        counter = QuantBitCounter(coeffs, offsets, mb_size=_BLOCK)
        return VideoEncoder._rate_control(counter, budget_bits)

    return BenchCase(fn=fn, work={"frames": 1.0, "macroblocks": float(rows * cols)})


def _intra_inputs(scale: BenchScale) -> tuple[np.ndarray, np.ndarray]:
    """The ruler's I-frame — frame 0 of a turning ``kitti_like`` clip at
    640x192 (``drive_outage``'s geometry: 12 x 40 macroblocks, 51
    anti-diagonals) — and a three-level QP map."""
    from repro.world import kitti_like

    frame = kitti_like(scale.seed, n_frames=1, resolution=(640, 192), turning=True).frame(0).image
    r, c = np.meshgrid(np.arange(192 // _BLOCK), np.arange(640 // _BLOCK), indexing="ij")
    return frame, (26.0 + 6.0 * ((r + c) % 3)).astype(np.float64)


@benchmark("codec/intra_encode", suite="micro", group="codec")
def _build_intra_encode(scale: BenchScale) -> BenchCase:
    from repro.codec.intra import intra_encode

    frame, qp_map = _intra_inputs(scale)

    def fn() -> float:
        return float(intra_encode(frame, qp_map, block=_BLOCK)[3].sum())

    return BenchCase(fn=fn, work={"frames": 1.0, "macroblocks": float(qp_map.size), "encoded_kbit": fn() / 1e3})


@benchmark("codec/intra_decode", suite="micro", group="codec")
def _build_intra_decode(scale: BenchScale) -> BenchCase:
    from repro.codec.intra import intra_decode, intra_encode

    frame, qp_map = _intra_inputs(scale)
    levels, modes, _, _ = intra_encode(frame, qp_map, block=_BLOCK)

    def fn() -> np.ndarray:
        return intra_decode(levels, modes, qp_map, block=_BLOCK)

    return BenchCase(fn=fn, work={"frames": 1.0, "macroblocks": float(qp_map.size)})


# -- capture ----------------------------------------------------------------


@benchmark("world/render", suite="micro", group="world")
def _build_render(scale: BenchScale) -> BenchCase:
    from repro.world import nuscenes_like

    clip = nuscenes_like(scale.seed, n_frames=2, resolution=(scale.frame_width, scale.frame_height))

    def fn() -> object:
        return clip.render_at(1)  # never cached: every call renders

    return BenchCase(fn=fn, work={"frames": 1.0, "pixels": float(scale.frame_width * scale.frame_height)})


# -- foreground clustering --------------------------------------------------


def _cluster_inputs(scale: BenchScale) -> tuple[np.ndarray, np.ndarray]:
    """A translational field with planted coherent objects, plus seeds."""
    rows, cols = scale.cluster_grid
    intrinsics = CameraIntrinsics(focal=1.2 * cols * _BLOCK, width=cols * _BLOCK, height=rows * _BLOCK)
    x, y = block_centers((rows, cols), intrinsics, block=_BLOCK)
    rng = np.random.default_rng(scale.seed)
    mv = np.empty((rows, cols, 2), dtype=np.float64)
    # Radial background flow away from the FOE (forward ego translation).
    mv[..., 0] = 0.004 * x
    mv[..., 1] = 0.004 * y
    mv += rng.normal(scale=0.05, size=mv.shape)
    seed_mask = np.zeros((rows, cols), dtype=bool)
    # Planted objects: coherent patches whose MVs break the radial pattern.
    objects = (
        ((rows // 3, rows // 3 + max(rows // 6, 2)), (cols // 5, cols // 5 + max(cols // 8, 2)), (2.5, 0.6)),
        ((rows // 2, rows // 2 + max(rows // 5, 2)), (cols // 2, cols // 2 + max(cols // 6, 2)), (-1.8, 0.9)),
        ((2 * rows // 3, 2 * rows // 3 + max(rows // 7, 2)), ((3 * cols) // 4, (3 * cols) // 4 + max(cols // 10, 2)), (1.2, -1.4)),
    )
    for (r0, r1), (c0, c1), (dx, dy) in objects:
        mv[r0:r1, c0:c1, 0] = dx + rng.normal(scale=0.1, size=(r1 - r0, c1 - c0))
        mv[r0:r1, c0:c1, 1] = dy + rng.normal(scale=0.1, size=(r1 - r0, c1 - c0))
        seed_mask[r0:r1, c0:c1] = True
    return mv, seed_mask


@benchmark("core/foreground_cluster", suite="micro", group="core")
def _build_cluster(scale: BenchScale) -> BenchCase:
    mv, seed_mask = _cluster_inputs(scale)
    rows, cols = mv.shape[:2]

    def fn() -> np.ndarray:
        clusters = region_grow(mv, seed_mask, min_cluster_size=2)
        merged = merge_clusters(clusters)
        return clusters_to_mask(merged, (rows, cols))

    return BenchCase(
        fn=fn,
        work={
            "frames": 1.0,
            "macroblocks": float(rows * cols),
            "seed_blocks": float(int(seed_mask.sum())),
        },
    )


# -- rotation fit -----------------------------------------------------------


@benchmark("core/ransac_rotation", suite="micro", group="core")
def _build_rotation(scale: BenchScale) -> BenchCase:
    intrinsics = CameraIntrinsics(focal=500.0, width=640, height=384)
    rows, cols = intrinsics.height // _BLOCK, intrinsics.width // _BLOCK
    x, y = block_centers((rows, cols), intrinsics, block=_BLOCK)
    rng = np.random.default_rng(scale.seed)
    rvx, rvy = rotational_flow(x, y, (0.002, -0.003, 0.0), intrinsics.focal)
    mv = np.empty((rows, cols, 2), dtype=np.float64)
    mv[..., 0] = rvx + 0.006 * x + rng.normal(scale=0.15, size=(rows, cols))
    mv[..., 1] = rvy + 0.006 * y + rng.normal(scale=0.15, size=(rows, cols))
    k = 70

    def fn() -> object:
        return estimate_rotation(mv, intrinsics, k=k, rng=np.random.default_rng(scale.seed))

    return BenchCase(fn=fn, work={"frames": 1.0, "macroblocks": float(rows * cols), "samples": float(k)})


# -- per-frame pipelines (macro) --------------------------------------------


def _build_pipeline(scheme_key: str, scale: BenchScale) -> BenchCase:
    from repro.baselines import DDSScheme, EAARScheme, O3Scheme
    from repro.core import DiVEScheme
    from repro.experiments.runner import ground_truth_for, run_scheme
    from repro.network import constant_trace
    from repro.world import nuscenes_like

    schemes = {"dive": DiVEScheme, "dds": DDSScheme, "eaar": EAARScheme, "o3": O3Scheme}
    scheme_cls = schemes[scheme_key]
    config = ExperimentConfig(n_clips=1, n_frames=scale.macro_frames)
    # Pre-render the clip at build time: the macro benchmarks measure the
    # per-frame pipeline (ME, encode, transmit, server), not the synthetic
    # world's renderer, and the small default frame cache would otherwise
    # re-render every frame on every repeat.
    clip = nuscenes_like(scale.seed, n_frames=config.n_frames).preload()
    trace = constant_trace(scaled_bandwidth(scale.macro_bandwidth_mbps, clip))
    ground_truth = ground_truth_for(clip, detector_seed=config.detector_seed)
    blocks = (clip.intrinsics.height // _BLOCK) * (clip.intrinsics.width // _BLOCK)
    case = BenchCase(
        fn=lambda: None,
        work={"frames": float(scale.macro_frames), "macroblocks": float(blocks * scale.macro_frames)},
    )

    def fn() -> object:
        tracer = Tracer(meta={"scheme": scheme_key, "clip": clip.name})
        result = run_scheme(
            scheme_cls(),
            clip,
            trace,
            detector_seed=config.detector_seed,
            ground_truth=ground_truth,
            tracer=tracer,
        )
        case.tracers.append(tracer)
        return result

    case.fn = fn
    return case


for _scheme in ("dive", "dds", "eaar", "o3"):
    benchmark(f"pipeline/{_scheme}", suite="macro", group="pipeline")(partial(_build_pipeline, _scheme))


def _build_pipeline_backend(backend_name: str, scale: BenchScale) -> BenchCase:
    """The DiVE pipeline with a non-reference kernel backend active.

    Wraps the plain ``pipeline/dive`` case's ``fn`` in
    :func:`repro.kernels.use_backend`, so the measured work (and the
    regression-gated trace counters) are identical by the bit-exactness
    contract — only wall-clock may differ.  On hosts where the backend is
    unavailable (no fork, no C compiler) the case runs on the reference
    instead of failing the whole suite: the bit-exactness tests, not the
    bench harness, are the availability gate.
    """
    from repro import kernels

    case = _build_pipeline("dive", scale)
    plain_fn = case.fn

    def fn() -> object:
        if kernels.backend(backend_name).available():
            with kernels.use_backend(backend_name):
                return plain_fn()
        return plain_fn()

    case.fn = fn
    return case


for _backend in ("sharded", "cext"):
    benchmark(f"pipeline/dive_{_backend}", suite="macro", group="pipeline")(
        partial(_build_pipeline_backend, _backend)
    )


def _build_stream(scale: BenchScale, *, telemetry: bool = False) -> BenchCase:
    """DiVE through the pipelined streaming runtime under backpressure.

    Unlike the batch pipeline benchmarks the clip is *not* preloaded:
    capture-stage render overlap is part of what streaming buys, so the
    render cost belongs in the measurement.  A bounded drop-oldest queue
    and a per-frame deadline exercise the backpressure path; the sealed
    outcome counts are deterministic (virtual-time decisions), so they are
    regression-gated as throughput work alongside frames/macroblocks.

    With ``telemetry`` (the ``pipeline/stream_metrics`` variant) the same
    run carries a live :class:`~repro.metrics.MetricsRegistry` and
    :class:`~repro.metrics.FlightRecorder`, so the pair of benchmarks is
    the measured cost of full streaming telemetry; the flight-recorder
    dump count is pinned into the gated work dict.
    """
    from repro.core import DiVEScheme
    from repro.edge.detector import QualityAwareDetector
    from repro.edge.server import EdgeServer
    from repro.experiments.config import ExperimentConfig as _EC
    from repro.metrics import NULL_FLIGHT_RECORDER, NULL_REGISTRY, FlightRecorder, MetricsRegistry
    from repro.network import constant_trace, with_outages
    from repro.stream import StreamConfig, StreamRunner
    from repro.world import nuscenes_like

    config = _EC(n_clips=1, n_frames=scale.macro_frames)
    clip = nuscenes_like(scale.seed, n_frames=config.n_frames)
    # Periodic outages (Fig 13 style) make the queue actually shed work —
    # DiVE's rate control adapts to any steady rate, so a constant trace
    # would never exercise the backpressure path.
    trace = with_outages(
        constant_trace(scaled_bandwidth(scale.macro_bandwidth_mbps, clip)),
        outage_duration=0.2, interval=0.4, first_outage=0.2,
    )
    stream_config = StreamConfig(
        workers=4, queue_capacity=2, policy="drop-oldest", deadline=0.25, watchdog=60.0,
    )
    blocks = (clip.intrinsics.height // _BLOCK) * (clip.intrinsics.width // _BLOCK)
    case = BenchCase(
        fn=lambda: None,
        work={
            "frames": float(scale.macro_frames),
            "macroblocks": float(blocks * scale.macro_frames),
        },
    )

    def fn() -> object:
        tracer = Tracer(meta={"scheme": "dive", "clip": clip.name, "mode": "stream"})
        registry = MetricsRegistry() if telemetry else NULL_REGISTRY
        recorder = FlightRecorder() if telemetry else NULL_FLIGHT_RECORDER
        scheme = DiVEScheme().use_tracer(tracer)
        server = EdgeServer(
            QualityAwareDetector(seed=config.detector_seed), tracer=tracer, metrics=registry,
        )
        result = StreamRunner(
            scheme, stream_config, metrics=registry, flight_recorder=recorder,
        ).run(clip, trace, server)
        tracer.meta["stream"] = result.stats.summary()
        case.tracers.append(tracer)
        return result

    # One reference run pins the deterministic outcome counts into the
    # gated work dict (virtual-time decisions, identical on every repeat).
    case.fn = fn
    reference = fn()
    case.tracers.clear()
    case.work["delivered"] = float(reference.stats.delivered)
    case.work["shed"] = float(reference.stats.dropped + reference.stats.degraded + reference.stats.late)
    if telemetry:
        case.work["dumps"] = float(len(reference.flight.dumps))
    return case


benchmark("pipeline/stream", suite="macro", group="pipeline")(_build_stream)
benchmark("pipeline/stream_metrics", suite="macro", group="pipeline")(
    partial(_build_stream, telemetry=True)
)


def _build_fleet(scale: BenchScale) -> BenchCase:
    """Multi-tenant fleet: 8 mixed-scheme agents, one cell, one edge.

    The whole PR 1–9 stack in one number: eight streaming agents (all
    four schemes, staggered starts) contend for a bursty-outage shared
    cell and a one-worker batching edge with a bounded admission queue.
    All outcome counts are virtual-time decisions — identical on every
    repeat — so delivered frames, admission rejects and the fleet p99
    response are pinned into the gated work dict; ``delivered_per_s`` is
    the headline throughput.
    """
    from repro.fleet import FleetConfig, FleetRunner

    fleet_config = FleetConfig(
        n_agents=8,
        n_frames=scale.macro_frames,
        schemes=("dive", "dds", "eaar", "o3"),
        datasets=("nuscenes",),
        seed=scale.seed,
        stagger=0.03,
        resolution=(scale.frame_width, scale.frame_height),
        demand_mbps=scale.macro_bandwidth_mbps,
        uplink="constant",
        cell_mbps=8.0,          # ~1 Mbps per agent when everyone uploads
        cell_outages=True,
        workers=1,
        max_batch=2,
        max_wait=0.005,
        queue_capacity=2,
        admission="reject",
        deadline=0.25,
    )
    case = BenchCase(
        fn=lambda: None,
        work={"frames": float(fleet_config.n_agents * scale.macro_frames)},
    )

    def fn() -> object:
        result = FleetRunner(fleet_config).run()
        # The fleet's two phases as the bench's stages, so a regression
        # names which one moved.
        tracer = Tracer(meta={"scheme": "fleet"})
        tracer.frame_record(0).spans.update(
            agents=result.agents_wall_time, settle=result.settle_wall_time)
        case.tracers.append(tracer)
        return result

    case.fn = fn
    # One reference run pins the deterministic fleet outcome into the
    # gated work dict (same story as pipeline/stream above).
    reference = fn()
    case.tracers.clear()
    delivered = sum(
        1 for run in reference.runs for f in run.frames
        if np.isfinite(f.response_time)
    )
    case.work["delivered"] = float(delivered)
    case.work["rejects"] = float(reference.stats.rejected)
    case.work["p99_response_ms"] = float(reference.stats.p99_response * 1000.0)
    return case


benchmark("pipeline/fleet", suite="macro", group="pipeline")(_build_fleet)


# -- telemetry --------------------------------------------------------------


@benchmark("obs/metrics_overhead", suite="micro", group="obs")
def _build_metrics_overhead(scale: BenchScale) -> BenchCase:
    """Raw recording cost of the virtual-time metrics registry.

    One labelled counter increment, one gauge set and one histogram
    observation per sample — the per-frame instrument mix the streaming
    runtime records — over a deterministic seeded sample stream, closed
    out by one snapshot digest (the export cost a run pays once).
    """
    from repro.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

    n = 2000
    rng = np.random.default_rng(scale.seed)
    values = rng.uniform(1e-3, 1.0, size=n).tolist()
    times = np.cumsum(rng.uniform(0.0, 0.02, size=n)).tolist()

    def fn() -> object:
        registry = MetricsRegistry()
        counter = registry.counter("bench_frames").labels(status="ok")
        gauge = registry.gauge("bench_depth")
        hist = registry.histogram("bench_latency", buckets=DEFAULT_LATENCY_BUCKETS)
        for t, v in zip(times, values):
            counter.inc(1.0, at=t)
            gauge.set(v, at=t)
            hist.observe(v, at=t)
        return registry.digest()

    return BenchCase(fn=fn, work={"samples": float(3 * n)})


@benchmark("stream/flight_recorder", suite="micro", group="stream")
def _build_flight_recorder(scale: BenchScale) -> BenchCase:
    """Flight-recorder ring throughput plus periodic trigger dumps."""
    from repro.metrics import FlightRecorder

    n = 5000
    def fn() -> object:
        recorder = FlightRecorder(capacity=512)
        for i in range(n):
            recorder.record("submit", i * 0.01, seq=i, frame=i % 64, bytes=1200)
            if i % 1000 == 999:
                recorder.trigger("bench-mark", i * 0.01, mark=i)
        return recorder.digest()

    return BenchCase(fn=fn, work={"events": float(n)})


# -- static analysis --------------------------------------------------------


@benchmark("check/analyze_tree", suite="micro", group="check")
def _build_analyze_tree(scale: BenchScale) -> BenchCase:
    """Full semantic lint of the shipped ``repro`` package.

    Sources are read once at build time so the timed iteration is pure
    analysis: parse, project symbol table, call graph, dataflow and the
    complete S001-S014 rule set over every module.  Guards the semantic
    layer against superlinear regressions as the tree grows.
    """
    from pathlib import Path

    from repro.check import check_source
    from repro.check.symbols import ProjectModel

    src_root = Path(__file__).resolve().parents[2]
    paths = sorted((src_root / "repro").rglob("*.py"))
    sources = {
        str(p.relative_to(src_root.parent)): p.read_text(encoding="utf-8") for p in paths
    }
    lines = sum(source.count("\n") for source in sources.values())

    def fn() -> int:
        project = ProjectModel.from_sources(sources)
        total = 0
        for path, source in sources.items():
            total += len(check_source(source, path=path, project=project))
        return total

    return BenchCase(fn=fn, work={"files": float(len(sources)), "kloc": lines / 1000.0})
