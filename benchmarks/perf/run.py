"""Perf benchmark entry point (the ``command`` of BENCHMARK.json).

    python3 benchmarks/perf/run.py --workload drive_steady --seed 1 --seconds 22 --trace 0
    python3 benchmarks/perf/run.py --workload all --out runs_a.jsonl
    python3 benchmarks/perf/run.py --compare runs_a.jsonl runs_b.jsonl

Prints every metric by name with its unit, then — as the last line of
standard output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Exits 1 when a correctness check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAMES = ("drive_steady", "drive_outage", "fleet_mixed")

#: Native thread pools are pinned to one thread before numpy loads: the
#: host has two cores and a BLAS pool that grabs both makes every timing
#: depend on what the other thread is doing.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def host_fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run, as a number of passes of the workload's "
                             "nominal length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced pass and report the per-layer metrics")
    parser.add_argument("--out", help="append the full result as one JSON line to this file")
    parser.add_argument("--trace-out", help="with --trace 1, write the spans as JSONL here")
    parser.add_argument("--compare", nargs=2, metavar=("A.jsonl", "B.jsonl"),
                        help="compare two sets of --out results against the bounds")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        import compare
        return compare.main(*args.compare, spec)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.workload == "all":
        # One fresh interpreter per workload: peak RSS, allocator state and
        # warm caches of one must not leak into the next.  The appended
        # --workload overrides the "all" earlier on the command line.
        return max(subprocess.run([sys.executable, __file__, *argv, "--workload", name]).returncode
                   for name in NAMES)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf benchmark: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for name in THREAD_ENV:
        os.environ[name] = "1"
    started = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness
    from workloads import WORKLOADS
    import_s = time.perf_counter() - started

    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    result = harness.run_workload(
        WORKLOADS[args.workload], seed=args.seed, seconds=seconds, trace=bool(args.trace),
        import_s=import_s, trace_out=args.trace_out,
    )

    detail = result.detail
    print(f"# {result.workload} seed={args.seed} trace={args.trace}: {detail['passes']} passes x "
          f"{detail['frames_per_pass']} frames, pass wall "
          f"{min(detail['pass_wall_s'], default=0):.3f}-{max(detail['pass_wall_s'], default=0):.3f} s")
    metrics = result.per_layer if args.trace else result.end_to_end
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:14.6g} {metric['unit']}")
    for problem in result.problems:
        print(f"FAILED CHECK {problem}")
    line = {"correct": result.correct, "attempted": result.attempted, "failed": result.failed,
            "metrics": metrics}
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps({"workload": result.workload, "trace": args.trace, **line,
                                  "problems": result.problems, **detail,
                                  "host": host_fingerprint()}) + "\n")
    print(json.dumps(line))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
