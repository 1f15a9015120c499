"""Command-line interface.

Run ``python -m repro --help``.  Subcommands map one-to-one onto the
experiment entry points (``table1``, ``fig06`` ... ``fig17``, ``ablation``,
``scalability``) plus a ``demo`` that runs one clip through DiVE.
Every experiment accepts ``--clips`` / ``--frames`` to trade fidelity for
time; results print as the same text tables the benchmark suite emits.
``lint`` runs the project-specific static analyser,
``report`` joins a trace JSONL and a metrics JSONL into one run
report, ``fleet`` runs a multi-tenant fleet against one
shared cell and batching edge, and ``top`` is the live telemetry dashboard over a
streaming run (``--once`` for a CI snapshot) — the one command that drives
the streaming runtime (:mod:`repro.stream`).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable

import numpy as np

from repro.experiments import (
    ExperimentConfig,
    format_table,
    ground_truth_for,
    run_ablation,
    run_fig06,
    run_fig07,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig16_17,
    run_scalability,
    run_scheme,
    run_table1,
    scaled_bandwidth,
)
from repro.experiments.fig06 import MIN_FRAMES as FIG06_MIN_FRAMES
from repro.experiments.fig07 import collect_fields

__all__ = ["build_parser", "main"]


def _config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(n_clips=args.clips, n_frames=args.frames, detector_seed=args.detector_seed)


def _positive_int(text: str) -> int:
    """argparse ``type=`` for a clip or frame count: an integer ≥ 1."""
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _bandwidth(text: str) -> float:
    """argparse ``type=`` for a paper-scale Mbps label: finite and ≥ 0."""
    try:
        if 0.0 <= (value := float(text)) < math.inf:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative number of Mbps, got {text!r}")


def _add_backend_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend", default="auto", metavar="NAME",
        help="kernel backend for the codec hot loops (repro.kernels): "
             "auto (cext when it compiles and proves itself here, else numpy), "
             "numpy (reference) or cext — bit-identical",
    )


def _cmd_demo(args: argparse.Namespace) -> str:
    from repro.core import DiVEScheme
    from repro.network import constant_trace
    from repro.world import nuscenes_like, robotcar_like

    maker = {"nuscenes": nuscenes_like, "robotcar": robotcar_like}[args.dataset]
    clip = maker(args.seed, n_frames=args.frames)
    trace = constant_trace(scaled_bandwidth(args.bandwidth, clip))
    result = run_scheme(DiVEScheme(), clip, trace, detector_seed=args.detector_seed)
    rows = [
        ["mAP", result.map],
        ["AP car", result.ap["car"]],
        ["AP pedestrian", result.ap["pedestrian"]],
        ["response time (ms)", result.mean_response_time * 1000],
        ["uplink kB", result.total_bytes / 1000],
        ["drop rate", result.drop_rate],
    ]
    return format_table(["metric", "value"], rows, title=f"DiVE on {clip.name} @ {args.bandwidth:g} Mbps")


def _cmd_table1(args: argparse.Namespace) -> str:
    rows = run_table1(_config(args))
    return format_table(
        ["dataset", "fps", "videos", "frames", "cars", "peds"],
        [[r.dataset, r.fps, r.videos, r.frames, r.cars, r.pedestrians] for r in rows],
        title="Table I — dataset summary",
    )


def _cmd_fig06(args: argparse.Namespace) -> str:
    study = run_fig06(_config(args))
    rows = [
        ["median eta (moving)", float(np.median(study.eta_moving))],
        ["median eta (stopped)", float(np.median(study.eta_stopped))],
        ["threshold", study.threshold],
        ["judgement accuracy", study.accuracy],
    ]
    return format_table(["quantity", "value"], rows, title="Fig 6 — ego-motion detection")


def _cmd_fig07(args: argparse.Namespace) -> str:
    study = run_fig07(_config(args))
    return format_table(
        ["strategy", "med |err w_x|", "med |err w_y|"],
        study.summary(),
        title="Fig 7 — R-sampling rotation estimation (rad/s)",
    )


def _cmd_fig09(args: argparse.Namespace) -> str:
    rows = run_fig09(_config(args))
    return format_table(
        ["dataset", "method", "mAP", "ME ms/frame"],
        [[r.dataset, r.method, r.map, r.me_time_per_frame * 1000] for r in rows],
        title="Fig 9 — motion-estimation methods",
    )


def _cmd_fig10(args: argparse.Namespace) -> str:
    sweep = run_fig10(_config(args), data=collect_fields(_config(args)))
    return format_table(
        ["k", "median |err w|", "time (ms)"],
        [[k, e, t * 1000] for k, e, t in zip(sweep.ks, sweep.errors, sweep.times)],
        title="Fig 10 — R-sampling k sweep",
    )


def _cmd_fig11(args: argparse.Namespace) -> str:
    rows = run_fig11(_config(args))
    return format_table(
        ["dataset", "delta", "Mbps", "mAP"],
        [[r.dataset, r.delta, r.bandwidth_mbps, r.map] for r in rows],
        title="Fig 11 — QP assignment",
    )


def _cmd_fig12(args: argparse.Namespace) -> str:
    rows = run_fig12(_config(args))
    return format_table(
        ["dataset", "bg QP", "AP car", "AP ped"],
        [[r.dataset, r.background_qp, r.ap_car, r.ap_pedestrian] for r in rows],
        title="Fig 12 — foreground extraction",
    )


def _cmd_fig13(args: argparse.Namespace) -> str:
    rows = run_fig13(_config(args))
    return format_table(
        ["dataset", "interval", "MOT", "mAP"],
        [[r.dataset, r.interval, r.mot_enabled, r.map] for r in rows],
        title="Fig 13 — offline tracking",
    )


def _cmd_fig14(args: argparse.Namespace) -> str:
    rows = run_fig14(_config(args))
    return format_table(
        ["dataset", "state", "AP car", "AP ped"],
        [[r.dataset, r.state, r.ap_car, r.ap_pedestrian] for r in rows],
        title="Fig 14 — motion states",
    )


def _cmd_fig16(args: argparse.Namespace) -> str:
    datasets = ("robotcar",) if args.figure == 16 else ("nuscenes",)
    rows = run_fig16_17(_config(args), datasets=datasets)
    return format_table(
        ["scheme", "Mbps", "mAP", "RT (ms)"],
        [[r.scheme, r.bandwidth_mbps, r.map, r.response_time * 1000] for r in rows],
        title=f"Fig {args.figure} — end-to-end comparison ({datasets[0]})",
    )


def _cmd_ablation(args: argparse.Namespace) -> str:
    rows = run_ablation(_config(args))
    return format_table(
        ["variant", "mAP", "RT (ms)"],
        [[r.variant, r.map, r.response_time * 1000] for r in rows],
        title="Ablation — DiVE design choices",
    )


def _cmd_analyze(args: argparse.Namespace) -> str:
    """Foreground-extraction quality report plus quick-look sparklines."""
    from repro.analysis import foreground_quality, render_series, response_time_series
    from repro.core import DiVEScheme
    from repro.network import constant_trace
    from repro.world import nuscenes_like, robotcar_like

    maker = {"nuscenes": nuscenes_like, "robotcar": robotcar_like}[args.dataset]
    clip = maker(args.seed, n_frames=args.frames)
    report = foreground_quality(clip)
    trace = constant_trace(scaled_bandwidth(args.bandwidth, clip))
    result = run_scheme(DiVEScheme(), clip, trace, detector_seed=args.detector_seed)
    times, responses, _ = response_time_series(result.run)

    lines = [
        f"clip {clip.name}: {clip.n_frames} frames @ {clip.fps:g} FPS, "
        f"{args.bandwidth:g} Mbps uplink",
        "",
        format_table(
            ["foreground-extraction metric", "value"],
            [
                ["mean object coverage", report.mean_object_coverage],
                ["objects covered >= 70%", report.full_coverage_rate],
                ["mean foreground fraction", report.mean_foreground_fraction],
                ["mask precision (on objects)", report.mask_precision],
            ],
        ),
        "",
        render_series("object coverage", report.per_frame_coverage),
        render_series("response (ms)", responses * 1000, fmt="{:.0f}"),
        "",
        f"end-to-end: mAP={result.map:.3f}  car={result.ap['car']:.3f}  "
        f"ped={result.ap['pedestrian']:.3f}  RT={result.mean_response_time * 1000:.0f} ms",
    ]
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> str:
    """Traced scheme run: JSONL export + per-stage latency/bits summary."""
    from repro.baselines import DDSScheme, EAARScheme, O3Scheme
    from repro.core import DiVEScheme
    from repro.network import constant_trace
    from repro.obs import Tracer, counter_rows, span_rows, summarize, write_jsonl
    from repro.world import nuscenes_like, robotcar_like

    schemes = {"dive": DiVEScheme, "dds": DDSScheme, "eaar": EAARScheme, "o3": O3Scheme}
    maker = {"nuscenes": nuscenes_like, "robotcar": robotcar_like}[args.dataset]
    config = _config(args)
    tracer = Tracer()
    tracer.meta.update(
        {
            "scheme": args.scheme,
            "dataset": args.dataset,
            "bandwidth_mbps": args.bandwidth,
            "n_clips": config.n_clips,
            "n_frames": config.n_frames,
            "seed": args.seed,
        }
    )
    for clip_seed in range(args.seed, args.seed + config.n_clips):
        clip = maker(clip_seed, n_frames=config.n_frames)
        trace = constant_trace(scaled_bandwidth(args.bandwidth, clip))
        run_scheme(
            schemes[args.scheme](),
            clip,
            trace,
            detector_seed=config.detector_seed,
            ground_truth=ground_truth_for(clip, detector_seed=config.detector_seed),
            tracer=tracer,
        )
    path = write_jsonl(args.output, tracer)
    summary = summarize(tracer.frames)
    lines = [
        f"wrote {len(tracer.frames)} frame records to {path}",
        "",
        format_table(
            ["stage", "frames", "mean ms", "p50 ms", "p95 ms", "total ms"],
            span_rows(summary),
            title=f"per-stage wall-clock latency — {args.scheme} on {args.dataset}"
            f" @ {args.bandwidth:g} Mbps",
        ),
        "",
        format_table(
            ["counter", "frames", "mean", "p50", "p95", "total"],
            counter_rows(summary),
            title="per-frame counters (bits, QP, bandwidth, outages)",
        ),
    ]
    return "\n".join(lines)


def _cmd_report(args: argparse.Namespace) -> int:
    """Join a frame trace and a metrics JSONL into one run report."""
    from pathlib import Path

    from repro.metrics import read_metrics_jsonl
    from repro.obs import read_jsonl, run_report

    try:
        meta, frames = read_jsonl(args.trace) if args.trace else (None, None)
        metrics = read_metrics_jsonl(args.metrics) if args.metrics else None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = run_report(meta, frames, metrics=metrics, fmt=args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the project-specific static analyser (see :mod:`repro.check`)."""
    from repro.check import check_paths, render_json, render_text, rule_table

    if args.list_rules:
        print(rule_table())
        return 0
    try:
        result = check_paths(args.paths)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_json(result) if args.format == "json" else render_text(result))
    return 0 if result.ok else 1


def _cmd_top(args: argparse.Namespace) -> int:
    """Live windowed-telemetry dashboard over one streaming DiVE run.

    Builds the bursty-outage scenario (constant uplink with periodic
    outages, bounded queue, per-frame deadline) with a live metrics
    registry and flight recorder, then either re-renders the dashboard at
    ``--refresh`` intervals while the run progresses on a worker thread,
    or (``--once``) runs to completion and prints a single frame — the CI
    smoke mode.  ``--metrics-out`` / ``--flight-out`` write the JSONL
    exports afterwards.
    """
    import threading

    from repro.core import DiVEScheme
    from repro.edge import EdgeServer, QualityAwareDetector
    from repro.metrics import (
        FlightRecorder,
        MetricsRegistry,
        registry_digest,
        render_top,
        write_flight_jsonl,
        write_metrics_jsonl,
    )
    from repro.network import constant_trace, with_outages
    from repro.stream import StreamConfig, StreamRunner
    from repro.world import nuscenes_like, robotcar_like

    maker = {"nuscenes": nuscenes_like, "robotcar": robotcar_like}[args.dataset]
    clip = maker(args.seed, n_frames=args.frames)
    trace = constant_trace(scaled_bandwidth(args.bandwidth, clip))
    if not args.no_outages:
        trace = with_outages(trace, outage_duration=0.2, interval=0.4, first_outage=0.2)
    registry = MetricsRegistry(
        meta={
            "dataset": args.dataset, "seed": args.seed, "frames": args.frames,
            "bandwidth_mbps": args.bandwidth, "policy": args.policy,
        }
    )
    recorder = FlightRecorder()
    config = StreamConfig(
        queue_capacity=args.queue_capacity,
        policy=args.policy,
        deadline=args.deadline,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = EdgeServer(QualityAwareDetector(seed=args.detector_seed), metrics=registry)
    runner = StreamRunner(DiVEScheme(), config, metrics=registry, flight_recorder=recorder)
    title = (
        f"repro top — DiVE on {clip.name} @ {args.bandwidth:g} Mbps [{args.policy}]"
    )

    outcome: dict[str, object] = {}

    def _run() -> None:
        try:
            outcome["result"] = runner.run(clip, trace, server)
        except BaseException as exc:  # re-raised on the main thread below
            outcome["error"] = exc

    if args.once:
        _run()
    else:
        worker = threading.Thread(target=_run, name="repro-top-run", daemon=True)
        worker.start()
        try:
            while worker.is_alive():
                frame = render_top(
                    registry.snapshot(), flight=recorder.snapshot(),
                    width=args.width, title=title,
                )
                sys.stdout.write("\x1b[H\x1b[2J" + frame + "\n")
                sys.stdout.flush()
                worker.join(timeout=args.refresh)
        except KeyboardInterrupt:
            print("\ninterrupted; waiting for the run to finish...", file=sys.stderr)
        worker.join()
    if "error" in outcome:
        raise outcome["error"]  # type: ignore[misc]
    result = outcome.get("result")
    stats = result.stats if result is not None else None
    print(render_top(
        registry.snapshot(), stats=stats, flight=recorder.snapshot(),
        width=args.width, title=title,
    ))
    print(f"\nmetrics digest {registry_digest(registry)[:16]}", end="")
    if recorder.dumps:
        print(f"  flight digest {recorder.digest()[:16]}", end="")
    print()
    if args.metrics_out:
        print(f"wrote {write_metrics_jsonl(args.metrics_out, registry)}")
    if args.flight_out:
        print(f"wrote {write_flight_jsonl(args.flight_out, recorder)}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Multi-tenant fleet run: N agents, one cell, one edge.

    Builds a frozen :class:`~repro.fleet.FleetConfig` from the flags
    (a config ``validate`` refuses is one ``error:`` line and exit 2),
    runs the fleet with a live metrics registry (``agent=…`` labels), and
    prints the per-agent table plus the aggregate accounting — or, with
    ``--format json``, the machine-readable document.  ``--metrics-out``
    writes the windowed metrics JSONL afterwards (the CI smoke artefact).
    """
    import json
    from dataclasses import asdict

    from repro.fleet import FleetConfig, FleetRunner
    from repro.metrics import MetricsRegistry, registry_digest, write_metrics_jsonl

    config = FleetConfig(
        n_agents=args.agents,
        n_frames=args.frames,
        schemes=tuple(s for s in args.schemes.split(",") if s),
        datasets=tuple(d for d in args.datasets.split(",") if d),
        seed=args.seed,
        stagger=args.stagger,
        demand_mbps=args.bandwidth,
        uplink=args.uplink,
        cell_mbps=args.cell,
        cell_outages=args.outages,
        workers=args.workers,
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        queue_capacity=args.queue_capacity,
        admission=args.admission,
        deadline=args.deadline,
        detector_seed=args.detector_seed,
        agent_workers=args.agent_workers,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    registry = MetricsRegistry(meta={
        "agents": args.agents, "frames": args.frames, "schemes": args.schemes,
        "datasets": args.datasets, "cell_mbps": args.cell, "workers": args.workers,
        "max_batch": args.max_batch, "admission": args.admission, "seed": args.seed,
    })
    result = FleetRunner(config, metrics=registry).run()
    digest = result.digest()
    if args.format == "json":
        print(json.dumps({
            "summary": result.stats.summary(),
            "agents": [asdict(r) for r in result.reports],
            "digest": digest,
            "metrics_digest": registry_digest(registry),
        }, indent=2, sort_keys=True))
    else:
        print(format_table(
            ["agent", "scheme", "frames", "mAP", "mean RT (ms)", "p99 RT (ms)",
             "goodput B", "req", "rej", "stale"],
            [r.row() for r in result.reports],
            title=f"repro fleet — {args.agents} agents, {args.workers} workers, "
                  f"max_batch {args.max_batch}",
        ))
        summary = result.stats.summary()
        print(format_table(
            ["metric", "value"], sorted(summary.items()),
            title="fleet aggregate",
        ))
        print(f"fleet digest {digest[:16]}  metrics digest {registry_digest(registry)[:16]}  "
              f"wall: agents {result.agents_wall_time:.2f} s, settle {result.settle_wall_time:.2f} s")
    if args.metrics_out:
        # Keep --format json machine-readable: the artefact notice goes
        # to stderr there, stdout stays one JSON document.
        out = sys.stderr if args.format == "json" else sys.stdout
        print(f"wrote {write_metrics_jsonl(args.metrics_out, registry)}", file=out)
    return 0


def _cmd_scalability(args: argparse.Namespace) -> str:
    rows = run_scalability(_config(args))
    return format_table(
        ["scheme", "agents", "RT (ms)", "req/s"],
        [[r.scheme, r.n_agents, r.response_time * 1000, r.inference_load] for r in rows],
        title="Scalability — shared edge server",
    )


_COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], str], str]] = {
    "demo": (_cmd_demo, "Run one synthetic clip through DiVE and print its metrics"),
    "analyze": (_cmd_analyze, "Foreground-extraction quality report + quick-look sparklines"),
    "trace": (_cmd_trace, "Traced run: write a JSONL frame trace + per-stage latency/bits summary"),
    "table1": (_cmd_table1, "Table I — dataset summary"),
    "fig06": (_cmd_fig06, "Fig 6 — ego-motion detection from eta"),
    "fig07": (_cmd_fig07, "Fig 7 — R-sampling rotation estimation"),
    "fig09": (_cmd_fig09, "Fig 9 — motion-estimation methods"),
    "fig10": (_cmd_fig10, "Fig 10 — R-sampling k sweep"),
    "fig11": (_cmd_fig11, "Fig 11 — QP assignment"),
    "fig12": (_cmd_fig12, "Fig 12 — foreground extraction quality"),
    "fig13": (_cmd_fig13, "Fig 13 — offline tracking under outages"),
    "fig14": (_cmd_fig14, "Fig 14 — ego motion states"),
    "fig16": (_cmd_fig16, "Fig 16 — end-to-end comparison (RobotCar)"),
    "fig17": (_cmd_fig16, "Fig 17 — end-to-end comparison (nuScenes)"),
    "ablation": (_cmd_ablation, "Extra — DiVE design-choice ablations"),
    "scalability": (_cmd_scalability, "Extra — multi-agent edge scalability"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DiVE reproduction — regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--clips", type=_positive_int, default=2, help="clips per dataset")
        p.add_argument("--frames", type=_positive_int, default=24, help="frames per clip")
        p.add_argument("--detector-seed", type=int, default=7)
        if name in ("demo", "analyze", "trace"):
            p.add_argument("--dataset", choices=("nuscenes", "robotcar"), default="nuscenes")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--bandwidth", type=_bandwidth, default=2.0, help="paper-scale Mbps")
        if name == "demo":
            _add_backend_args(p)
        if name == "trace":
            p.add_argument("--scheme", choices=("dive", "dds", "eaar", "o3"), default="dive")
            p.add_argument("--output", default="trace.jsonl", help="JSONL trace output path")
        if name == "fig06":
            p.set_defaults(frames=60)  # the figure suite's; a stop needs at least FIG06_MIN_FRAMES
        if name in ("fig16", "fig17"):
            p.set_defaults(figure=16 if name == "fig16" else 17)
    lint = sub.add_parser(
        "lint",
        help="Project-specific static analysis (seeded RNG, QP bounds, bits/bytes, ...)",
    )
    lint.add_argument("paths", nargs="*", default=["src"], help="files/directories to lint")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--list-rules", action="store_true", help="print the rule table and exit")
    report = sub.add_parser(
        "report",
        help="Run report joining a repro-trace JSONL and a metrics JSONL",
    )
    report.add_argument("--trace", default=None, metavar="TRACE_JSONL", help="frame trace from `repro trace`")
    report.add_argument(
        "--metrics", default=None, metavar="METRICS_JSONL",
        help="windowed metrics from `repro top --metrics-out` (or write_metrics_jsonl)",
    )
    report.add_argument("--format", choices=("markdown", "text"), default="markdown")
    report.add_argument("--out", default=None, help="write the report here instead of stdout")
    top = sub.add_parser(
        "top",
        help="Live windowed-telemetry dashboard over a streaming DiVE run (repro.metrics)",
    )
    top.add_argument("--dataset", choices=("nuscenes", "robotcar"), default="nuscenes")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--frames", type=_positive_int, default=24, help="frames in the streamed clip")
    top.add_argument("--detector-seed", type=int, default=7)
    top.add_argument("--bandwidth", type=_bandwidth, default=2.0, help="paper-scale Mbps")
    top.add_argument("--queue-capacity", type=int, default=2, help="uplink queue bound")
    top.add_argument(
        "--policy", choices=("block", "degrade-qp", "drop-oldest"), default="drop-oldest",
        help="backpressure policy at a full uplink queue",
    )
    top.add_argument(
        "--deadline", type=float, default=0.25,
        help="per-frame deadline in seconds (capture -> result) for late accounting",
    )
    top.add_argument(
        "--no-outages", action="store_true",
        help="constant uplink instead of the bursty-outage scenario",
    )
    top.add_argument("--refresh", type=float, default=0.5, help="live redraw interval (wall seconds)")
    top.add_argument("--width", type=int, default=32, help="sparkline width in windows")
    top.add_argument(
        "--once", action="store_true",
        help="run to completion, print one dashboard frame and exit (CI smoke mode)",
    )
    top.add_argument("--metrics-out", default=None, metavar="FILE", help="write the metrics JSONL here")
    top.add_argument("--flight-out", default=None, metavar="FILE", help="write flight-recorder dumps (JSONL) here")
    fleet = sub.add_parser(
        "fleet",
        help="Multi-tenant fleet: N agents share one cell and one batching edge",
    )
    fleet.add_argument("--agents", type=int, default=4, help="fleet size N")
    fleet.add_argument("--frames", type=int, default=12, help="frames per agent clip")
    fleet.add_argument(
        "--schemes", default="dive,eaar,o3",
        help="comma list cycled over agents (dive, dds, eaar, o3)",
    )
    fleet.add_argument(
        "--datasets", default="nuscenes",
        help="comma list cycled over agents (nuscenes, robotcar, kitti)",
    )
    fleet.add_argument("--seed", type=int, default=0, help="base clip seed (agent i uses seed+i)")
    fleet.add_argument("--stagger", type=float, default=0.05, help="agent start spacing (sim seconds)")
    fleet.add_argument("--bandwidth", type=float, default=2.0, help="per-agent uplink demand, paper-scale Mbps")
    fleet.add_argument("--uplink", choices=("constant", "walk", "markov"), default="constant")
    fleet.add_argument(
        "--cell", type=float, default=None, metavar="MBPS",
        help="shared cell capacity (paper-scale Mbps); omit for independent uplinks",
    )
    fleet.add_argument("--outages", action="store_true", help="bursty outages on the cell capacity trace")
    fleet.add_argument("--workers", type=int, default=2, help="detector workers at the shared edge")
    fleet.add_argument("--max-batch", type=int, default=4, help="largest inference batch")
    fleet.add_argument("--max-wait", type=float, default=0.005, help="batch linger (sim seconds)")
    fleet.add_argument(
        "--queue-capacity", type=int, default=None,
        help="edge admission queue bound; omit for unbounded (no admission control)",
    )
    fleet.add_argument("--admission", choices=("reject", "degrade"), default="reject")
    fleet.add_argument("--deadline", type=float, default=None, help="per-frame deadline (seconds) for late accounting")
    fleet.add_argument("--detector-seed", type=int, default=7)
    fleet.add_argument("--agent-workers", type=int, default=1, help="phase-1 thread pool width (wall-clock only)")
    fleet.add_argument("--format", choices=("text", "json"), default="text")
    fleet.add_argument("--metrics-out", default=None, metavar="FILE", help="write the metrics JSONL here")
    _add_backend_args(fleet)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "backend"):
        from repro import kernels

        try:
            inst = kernels.activate(args.backend)
        except (ValueError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        header = f"kernel backend: {inst.name}"
        if args.backend == kernels.AUTO and inst.name != "cext":
            header += f" (cext unavailable: {kernels.backend('cext').why_unavailable()})"
        # JSON output stays one document on stdout.
        as_json = getattr(args, "format", "text") == "json"
        print(header, file=sys.stderr if as_json else sys.stdout)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "fig06" and args.frames < FIG06_MIN_FRAMES:
        print(f"error: Fig 6 needs --frames {FIG06_MIN_FRAMES} or more for its clips to fit a stop, "
              f"got {args.frames}", file=sys.stderr)
        return 2
    func, _ = _COMMANDS[args.command]
    print(func(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
