"""The built-in benchmark set.

Each benchmark isolates one hot path a DiVE latency claim rests on (the
paper's Fig 9 is literally "ME milliseconds per frame at a given mAP"):

- ``me/<method>`` — block-matching motion estimation per search method
  (:func:`repro.codec.motion.estimate_motion`) on two rendered frames of a
  seeded clip.  ESA/TESA use :attr:`BenchScale.exhaustive_search_range`
  so the exhaustive searches stay in budget.
- ``me/motion_compensate`` — batched motion-compensated prediction from a
  hex-estimated (sub-pixel) MV field.
- ``codec/dct_quant_roundtrip`` — a P-frame's transform chain as the
  encoder runs it: 8x8 DCT → ``quantize_cost`` (quantise + bit accounting)
  → ``reconstruct`` (dequantise, inverse DCT, clip) on a real inter-frame
  residual.
- ``codec/rate_control`` — the CBR search as it runs on a P-frame
  (``QuantBitCounter`` construction plus the QP probes, started one QP off
  the answer as if from the previous frame's) on the DCT of a real residual
  with a two-level DiVE-style QP offset map.
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

Whole-pipeline speed (batch, stream and fleet drivers end to end) is
measured by the repo's benchmark, ``benchmarks/perf/run.py``, not here.

Every input is derived from :class:`BenchScale.seed` — the *work* two runs
perform at the same scale is bit-identical; only wall-clock differs.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.bench.registry import BenchCase, benchmark
from repro.codec.motion import ME_METHODS, estimate_motion
from repro.codec.transform import dct_blocks, quantize_cost, reconstruct
from repro.core.clustering import clusters_to_mask, merge_clusters, region_grow
from repro.core.grid import block_centers
from repro.core.rotation import estimate_rotation
from repro.experiments.config import BenchScale
from repro.geometry.camera import CameraIntrinsics
from repro.geometry.flow import rotational_flow

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
    benchmark(f"me/{_method}", group="me")(partial(_build_me, _method))


@benchmark("me/motion_compensate", group="me")
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


@benchmark("codec/dct_quant_roundtrip", group="codec")
def _build_dct_quant(scale: BenchScale) -> BenchCase:
    current, reference = _micro_frames(scale)
    residual = current - reference  # float32, as the encoder's
    rows, cols = residual.shape[0] // _BLOCK, residual.shape[1] // _BLOCK
    r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    qp_map = (28.0 + 8.0 * ((r + c) % 3)).astype(np.float64)

    def fn() -> float:
        coeffs = dct_blocks(residual)
        levels, bits_per_mb = quantize_cost(coeffs, qp_map, mb_size=_BLOCK)
        reconstruct(reference, levels, qp_map, mb_size=_BLOCK)
        return float(bits_per_mb.sum())

    return BenchCase(
        fn=fn,
        work={
            "frames": 1.0,
            "macroblocks": float(rows * cols),
            "encoded_kbit": fn() / 1e3,
        },
    )


@benchmark("codec/rate_control", group="codec")
def _build_rate_control(scale: BenchScale) -> BenchCase:
    from repro.codec.encoder import VideoEncoder
    from repro.codec.transform import QuantBitCounter

    current, reference = _micro_frames(scale)
    residual = current - reference  # float32, as the encoder's
    coeffs = dct_blocks(residual)
    rows, cols = residual.shape[0] // _BLOCK, residual.shape[1] // _BLOCK
    r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    # Two-level offset map, the shape DiVE's foreground/background QP
    # differential produces.
    offsets = np.where((r + c) % 3 == 0, 0.0, 6.0)
    budget_bits = float(residual.size) * 0.4  # mid-curve
    # The previous frame's answer is rarely further off than this.
    hint = int(VideoEncoder._rate_control(QuantBitCounter(coeffs, offsets, mb_size=_BLOCK), budget_bits)) + 1

    def fn() -> float:
        counter = QuantBitCounter(coeffs, offsets, mb_size=_BLOCK)
        return VideoEncoder._rate_control(counter, budget_bits, hint)

    return BenchCase(fn=fn, work={"frames": 1.0, "macroblocks": float(rows * cols)})


def _intra_inputs(scale: BenchScale) -> tuple[np.ndarray, np.ndarray]:
    """The ruler's I-frame — frame 0 of a turning ``kitti_like`` clip at
    640x192 (``drive_outage``'s geometry: 12 x 40 macroblocks, 51
    anti-diagonals) — and a three-level QP map."""
    from repro.world import kitti_like

    frame = kitti_like(scale.seed, n_frames=1, resolution=(640, 192), turning=True).frame(0).image
    r, c = np.meshgrid(np.arange(192 // _BLOCK), np.arange(640 // _BLOCK), indexing="ij")
    return frame, (26.0 + 6.0 * ((r + c) % 3)).astype(np.float64)


@benchmark("codec/intra_encode", group="codec")
def _build_intra_encode(scale: BenchScale) -> BenchCase:
    from repro.codec.intra import intra_encode

    frame, qp_map = _intra_inputs(scale)

    def fn() -> float:
        return float(intra_encode(frame, qp_map, block=_BLOCK)[3].sum())

    return BenchCase(fn=fn, work={"frames": 1.0, "macroblocks": float(qp_map.size), "encoded_kbit": fn() / 1e3})


@benchmark("codec/intra_decode", group="codec")
def _build_intra_decode(scale: BenchScale) -> BenchCase:
    from repro.codec.intra import intra_decode, intra_encode

    frame, qp_map = _intra_inputs(scale)
    levels, modes, _, _ = intra_encode(frame, qp_map, block=_BLOCK)

    def fn() -> np.ndarray:
        return intra_decode(levels, modes, qp_map, block=_BLOCK)

    return BenchCase(fn=fn, work={"frames": 1.0, "macroblocks": float(qp_map.size)})


# -- capture ----------------------------------------------------------------


@benchmark("world/render", group="world")
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


@benchmark("core/foreground_cluster", group="core")
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


@benchmark("core/ransac_rotation", group="core")
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


# -- telemetry --------------------------------------------------------------


@benchmark("obs/metrics_overhead", group="obs")
def _build_metrics_overhead(scale: BenchScale) -> BenchCase:
    """Raw recording cost of the virtual-time metrics registry.

    One labelled counter increment, one gauge set and one histogram
    observation per sample — the per-frame instrument mix the streaming
    runtime records — over a deterministic seeded sample stream, closed
    out by one snapshot digest (the export cost a run pays once).
    """
    from repro.metrics import MetricsRegistry

    n = 2000
    rng = np.random.default_rng(scale.seed)
    values = rng.uniform(1e-3, 1.0, size=n).tolist()
    times = np.cumsum(rng.uniform(0.0, 0.02, size=n)).tolist()

    def fn() -> object:
        registry = MetricsRegistry()
        counter = registry.counter("bench_frames").labels(status="ok")
        gauge = registry.gauge("bench_depth")
        hist = registry.histogram("bench_latency")
        for t, v in zip(times, values):
            counter.inc(1.0, at=t)
            gauge.set(v, at=t)
            hist.observe(v, at=t)
        return registry.digest()

    return BenchCase(fn=fn, work={"samples": float(3 * n)})


@benchmark("stream/flight_recorder", group="stream")
def _build_flight_recorder(scale: BenchScale) -> BenchCase:
    """Flight-recorder ring throughput plus periodic trigger dumps."""
    from repro.metrics import FlightRecorder

    n = 5000
    def fn() -> object:
        recorder = FlightRecorder()
        for i in range(n):
            recorder.record("submit", i * 0.01, seq=i, frame=i % 64, bytes=1200)
            if i % 1000 == 999:
                recorder.trigger("bench-mark", i * 0.01, mark=i)
        return recorder.digest()

    return BenchCase(fn=fn, work={"events": float(n)})
