"""Measurement protocol of the perf benchmark (see README.md).

One workload per interpreter: set-up is repeated and timed (``setup_s``),
one untimed *reference pass* runs the job with the codec oracle installed
and fixes the outcome digest, then a fixed number of identical measured
passes run.  Every pass does bit-identical work, so frame *k* of every
pass is the same frame and differences between passes are measurement
noise.  On a shared host that noise only ever adds time, in bursts that
outlast a pass, so every chunk of a pass (a frame, or the out-of-frame
remainder) is reduced to its *minimum* across the passes — the time it
took when nothing interfered — before frames are summed or the median
over indices is taken.  The number of passes depends on ``--seconds``
and the workload only, never on how fast the code under test is, so
parent and change are reduced from the same number of samples.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import AnalyticsScheme

import layertrace

__all__ = ["FrameClock", "Outcome", "RunResult", "default_tracer", "run_workload"]

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Fewest measured passes, however short the time budget.
MIN_PASSES = 3


_NULL_CONTEXT = contextlib.nullcontext()


class FrameClock:
    """Per-frame wall clock with the ``NullTracer`` protocol.

    ``enabled`` is false and every recording method is a no-op, so the
    program takes its untraced path; only ``frame(i)`` — which all four
    schemes wrap their per-frame body in — does anything: it stamps
    ``perf_counter`` and ``process_time`` (all threads) on enter and
    exit.  Frames never overlap in the benchmark's workloads (one scheme
    thread, ``agent_workers=1``), so the clock is its own context manager
    and ``current`` names the frame being processed and ``thread`` the
    thread processing it (the traced pass tags that thread's spans).
    """

    enabled = False

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.current: int | None = None
        self.thread: int | None = None
        self._pending = 0
        self._start = (0.0, 0.0)

    def frame(self, index: int) -> "FrameClock":
        self._pending = index
        return self

    def __enter__(self) -> None:
        self.current = self._pending
        self.thread = threading.get_ident()
        self._start = (time.perf_counter(), time.process_time())

    def __exit__(self, *exc: object) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.wall.append(wall - self._start[0])
        self.cpu.append(cpu - self._start[1])
        self.current = None

    def span(self, name: str) -> contextlib.nullcontext:
        return _NULL_CONTEXT

    def count(self, name: str, value: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def frame_record(self, index: int) -> None:
        return None


@contextlib.contextmanager
def default_tracer(tracer):
    """Install ``tracer`` as the documented ``AnalyticsScheme.tracer``
    class default for the duration of a block (the fleet builds its
    schemes itself, so ``use_tracer`` cannot reach them)."""
    previous = AnalyticsScheme.tracer
    AnalyticsScheme.tracer = tracer
    try:
        yield
    finally:
        AnalyticsScheme.tracer = previous


@dataclass
class Outcome:
    """What one pass produced, reduced outside the timed region.

    ``unserved`` counts frames for which the agent never held fresh
    detections in time (non-finite response, source ``none``/``stale``,
    or late against the workload's deadline) — expected behaviour of the
    outage and overload workloads, reported as ``served_share``.
    ``problems`` lists failed correctness checks; any entry fails every
    frame of the pass and keeps its timings out of the metrics.
    """

    frames: int
    digest: str = ""
    map: float = 0.0
    responses_ms: list[float] = field(default_factory=list)
    edge_frames: int = 0
    unserved: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class RunResult:
    """Everything one benchmark run measured.

    ``end_to_end`` is empty when the reference pass raised or no measured
    pass passed its checks; ``per_layer`` is empty when the traced pass
    raised and ``None`` when none was asked for.
    """

    workload: str
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict[str, dict]
    per_layer: dict[str, dict] | None
    problems: list[str]
    detail: dict


def _timed(func):
    """``(result, wall_s, cpu_s)`` of one call; CPU covers all threads."""
    gc.collect()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    result = func()
    wall = time.perf_counter() - t0
    return result, wall, time.process_time() - cpu0


def _run_pass(job, patches=None):
    """One pass of ``job``: the timed run (with ``patches`` installed, if
    any), then the untimed outcome reduction and checks.

    Returns the outcome and the pass's *chunks*: per-frame wall and CPU
    times plus, last, the remainder of the pass spent outside any frame.
    A pass that raises is an outcome with that problem and no chunks.
    """
    clock = FrameClock()
    if patches is not None:
        patches.clock = clock
    try:
        with patches if patches is not None else _NULL_CONTEXT:
            raw, wall, cpu = _timed(lambda: job.run(clock))
    except Exception:
        # The run must still report its counts and exit 1, not die here.
        traceback.print_exc()
        last = traceback.format_exc().strip().splitlines()[-1]
        return Outcome(frames=job.captured, problems=[f"the pass raised {last}"]), None
    outcome = job.outcome(raw)
    if len(clock.wall) != outcome.frames:
        outcome.problems.append(
            f"frame clock saw {len(clock.wall)} frames, job captured {outcome.frames}")
    chunks = {"wall": [*clock.wall, wall - sum(clock.wall)],
              "cpu": [*clock.cpu, cpu - sum(clock.cpu)]}
    return outcome, chunks


def run_workload(workload, *, seed: int, seconds: float, trace: bool,
                 frames: int | None = None, passes: int | None = None,
                 setup_reps: int = SETUP_REPS, import_s: float = 0.0,
                 trace_out: str | None = None) -> RunResult:
    """Run one workload by the protocol above and reduce its metrics.

    ``frames``/``passes`` override the workload's size and the number of
    measured passes that ``seconds`` stands for (tests use 6 frames x 1
    pass); ``import_s`` is the time the caller spent importing the
    program, which counts as set-up.
    """
    frames = workload.frames if frames is None else frames
    if passes is None:
        passes = max(MIN_PASSES, round(seconds / workload.pass_s))
    params = workload.params(np.random.default_rng([workload.index, seed]))

    # ---- set-up, repeated: inputs, ground truth, short warm-up pass.
    setup_times = []
    job = None
    for _ in range(setup_reps):
        job = None  # drop the previous inputs before building the next
        job, wall, _ = _timed(lambda: workload.prepare(params, frames))
        setup_times.append(wall)
    setup_s = import_s + statistics.median(setup_times)

    problems: list[str] = []
    attempted = failed = 0

    def account(label: str, outcome: Outcome, reference: Outcome | None) -> bool:
        """Count the pass's frames; true when it passed every check."""
        nonlocal attempted, failed
        if reference is not None and not outcome.problems and outcome.digest != reference.digest:
            outcome.problems.append("outcome digest differs from the reference pass")
        attempted += outcome.frames
        if outcome.problems:
            failed += outcome.frames
            problems.extend(f"{label}: {p}" for p in outcome.problems)
        return not outcome.problems

    # ---- reference pass: untimed, codec oracle on, fixes the digest.
    oracle = layertrace.CodecOracle()
    reference, reference_chunks = _run_pass(job, oracle)
    if reference_chunks is not None:
        reference.problems.extend(oracle.problems())
    account("reference pass", reference, None)
    n = reference.frames

    # ---- measured passes: a fixed number, every one accounted for.
    measured = []
    for k in range(passes):
        outcome, chunks = _run_pass(job)
        if account(f"pass {k + 1}", outcome, reference):
            measured.append(chunks)

    detail = {
        "seed": seed, "params": params, "frames_per_pass": n, "passes": len(measured),
        "pass_wall_s": [sum(m["wall"]) for m in measured],
        "chunks": measured, "setup_times_s": setup_times, "import_s": import_s,
        "digest": reference.digest,
    }
    end_to_end = {}
    if reference_chunks is not None and measured:
        wall = _least([m["wall"] for m in measured])
        cpu = _least([m["cpu"] for m in measured])
        responses = reference.responses_ms
        end_to_end = {
            "setup_s": _metric(setup_s, "s"),
            "frames_per_s": _metric(n / sum(wall), "1/s"),
            "frame_ms_p50": _metric(1e3 * float(np.percentile(wall[:n], 50)), "ms"),
            "cpu_ms_per_frame": _metric(1e3 * sum(cpu) / n, "ms"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
            "map": _metric(reference.map, "ratio"),
            "response_ms_p50": _metric(float(np.percentile(responses, 50)), "ms"),
            "response_ms_p90": _metric(float(np.percentile(responses, 90)), "ms"),
            "edge_share": _metric(reference.edge_frames / n, "ratio"),
            "served_share": _metric(1.0 - reference.unserved / n, "ratio"),
        }

    per_layer = None
    if trace:
        recorder = layertrace.Recorder()
        outcome, chunks = _run_pass(job, recorder)
        per_layer = {}
        if account("traced pass", outcome, reference) and measured:
            # The typical frame's slow-down: the one traced sample of each
            # frame against that frame's typical (median) untraced time.
            typical = [statistics.median(samples)
                       for samples in zip(*(m["wall"][:n] for m in measured))]
            overhead = statistics.median(
                traced / plain for traced, plain in zip(chunks["wall"], typical)) - 1.0
            per_layer = recorder.metrics(frames=n, pass_wall=sum(chunks["wall"]),
                                         overhead_share=overhead)
        detail["spans"] = len(recorder.spans)
        if trace_out:
            recorder.write_jsonl(trace_out)
    return RunResult(
        workload=workload.name, correct=not problems, attempted=attempted, failed=failed,
        end_to_end=end_to_end, per_layer=per_layer, problems=problems, detail=detail,
    )


def _least(passes: list[list[float]]) -> list[float]:
    """Per chunk index the least time across passes."""
    return [min(samples) for samples in zip(*passes)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / 1024.0 if sys.platform != "darwin" else peak / (1024.0 * 1024.0)
