"""The three workloads: what each runs, on which inputs, and how its
outcome is checked (sizes and reasons are repeated in BENCHMARK.json).

The scenes are fixed per workload; ``--seed`` perturbs the uplink (rate
label, outage phase, cell capacity) by a few percent.  Scene identity
moves mAP by 10-25 % and the response tail by more, which no bound of the
contract could absorb, whereas a link perturbation changes every coded
size and simulated time without moving the workload off its operating
point.  The program only ever receives the generated clips, traces and
configs — never the seed.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

import repro.experiments as experiments
from repro.core import DiVEScheme
from repro.experiments import ground_truth_for, scaled_bandwidth
from repro.fleet import FleetConfig, FleetRunner
from repro.network.trace import constant_trace, with_outages
from repro.world.datasets import kitti_like, nuscenes_like

from harness import FrameClock, Outcome, default_tracer

__all__ = ["WORKLOADS", "Workload"]

#: Relative half-width of the seed's perturbation of rate labels.
RATE_JITTER = 0.002


@dataclass(frozen=True)
class Workload:
    """A named job factory.

    ``params(rng)`` draws the seed-dependent inputs as plain floats;
    ``build(params, frames)`` returns a job with ``run(clock)`` (the timed
    part), ``outcome(raw)`` (the untimed reduction and checks) and
    ``captured`` (frames per pass).  ``pass_s`` is how much of ``--seconds``
    one measured pass is charged — about what a pass took on the 2-vCPU
    host at the commit that defined the benchmark, a little less for the
    fleet so that the threaded workload still gets 7 passes — so the
    number of passes does not depend on the speed of the code under test.
    """

    index: int
    name: str
    frames: int
    warm_frames: int
    pass_s: float
    why: str
    params: Callable
    build: Callable

    def prepare(self, params: dict, frames: int):
        """One set-up repetition: a warm-up pass on a short job of the
        same preset (lazy initialisation, memo tables), then the job."""
        self.build(params, min(frames, self.warm_frames)).run(FrameClock())
        return self.build(params, frames)


def _jitter(rng: np.random.Generator, centre: float, rel: float = RATE_JITTER) -> float:
    return float(centre * (1.0 + rng.uniform(-rel, rel)))


# ----------------------------------------------------------- outcome helpers

def _frame_lines(frames) -> list[str]:
    """Digest material: everything the agent ends up holding per frame."""
    lines = []
    for f in sorted(frames, key=lambda fr: fr.index):
        dets = ",".join(
            f"{d.kind}/{d.object_id}/{d.confidence!r}/" + "/".join(repr(v) for v in d.bbox)
            for d in f.detections
        )
        lines.append(f"f{f.index}:{f.source}:{f.bytes_sent}:{f.response_time!r}"
                     f":{int(f.dropped)}:[{dets}]")
    return lines


def _reduce(runs, *, expect: int, late: int, map_value: float, digest_parts: list[str],
            problems: list[str]) -> Outcome:
    """Shared reduction over ``runs`` (one ``SchemeRun`` per clip/agent)."""
    frames = [f for run in runs for f in run.frames]
    for run in runs:
        if sorted(f.index for f in run.frames) != list(range(expect)):
            problems.append(f"{run.clip_name}: expected one result for each of "
                            f"{expect} frames, got {len(run.frames)}")
    no_result = sum(not math.isfinite(f.response_time) or f.source in ("none", "stale")
                    for f in frames)
    return Outcome(
        frames=expect * len(runs),
        digest=hashlib.sha256(";".join(digest_parts).encode()).hexdigest(),
        map=map_value,
        responses_ms=[1e3 * f.response_time for f in frames if math.isfinite(f.response_time)],
        edge_frames=sum(f.source == "edge" for f in frames),
        unserved=no_result + late,
        problems=problems,
    )


# -------------------------------------------------------------- batch driver

class _DriveJob:
    """``run_scheme(DiVEScheme())`` over preloaded clips, batch driver.

    ``run_scheme`` is looked up on its package at call time so that the
    traced pass, which rebinds ``repro.*`` module attributes, sees it.
    """

    def __init__(self, clips, traces):
        self.clips = [clip.preload() for clip in clips]
        self.captured = sum(clip.n_frames for clip in self.clips)
        self.traces = traces
        self.truth = [ground_truth_for(clip) for clip in self.clips]

    def run(self, clock):
        return [experiments.run_scheme(DiVEScheme(), clip, trace, ground_truth=truth, tracer=clock)
                for clip, trace, truth in zip(self.clips, self.traces, self.truth)]

    def outcome(self, results) -> Outcome:
        parts = [line for r in results for line in [r.clip_name, *_frame_lines(r.run.frames)]]
        return _reduce(
            [r.run for r in results], expect=self.clips[0].n_frames, late=0,
            map_value=float(np.mean([r.map for r in results])),
            digest_parts=parts, problems=[],
        )


def _steady_params(rng) -> dict:
    return {"mbps": _jitter(rng, 2.0)}


def _steady_job(params: dict, frames: int) -> _DriveJob:
    clip = nuscenes_like(11, n_frames=frames, resolution=(480, 288))
    return _DriveJob([clip], [constant_trace(scaled_bandwidth(params["mbps"], clip))])


def _outage_params(rng) -> dict:
    return {"mbps": _jitter(rng, 2.0), "first_outage": float(rng.uniform(0.349, 0.351))}


def _outage_job(params: dict, frames: int) -> _DriveJob:
    clip = kitti_like(5, n_frames=frames, turning=True)
    trace = with_outages(
        constant_trace(scaled_bandwidth(params["mbps"], clip)),
        outage_duration=0.5, interval=1.0, first_outage=params["first_outage"],
    )
    return _DriveJob([clip], [trace])


# -------------------------------------------------------------- fleet driver

FLEET = FleetConfig(
    n_agents=6, schemes=("dive", "dds", "eaar", "o3"), datasets=("nuscenes", "robotcar"),
    seed=40, resolution=(320, 192), uplink="markov", cell_outages=True,
    workers=1, max_batch=2, max_wait=0.005, queue_capacity=2, admission="reject",
    deadline=0.25, agent_workers=1,
)


class _FleetJob:
    """A mixed fleet through ``FleetRunner`` (clips, uplinks and ground
    truth are all built inside the run)."""

    def __init__(self, params: dict, frames: int):
        self.config = replace(FLEET, n_frames=frames, demand_mbps=params["demand_mbps"],
                              cell_mbps=params["cell_mbps"])
        self.captured = FLEET.n_agents * frames

    def run(self, clock):
        with default_tracer(clock):
            return FleetRunner(self.config).run()

    def outcome(self, result) -> Outcome:
        cfg, stats = self.config, result.stats
        problems = []
        if stats.frames != cfg.n_agents * cfg.n_frames:
            problems.append(f"fleet accounting: {stats.frames} frames settled, "
                            f"{cfg.n_agents * cfg.n_frames} captured")
        if stats.requests != stats.served + stats.degraded + stats.rejected:
            problems.append(f"fleet accounting: {stats.requests} requests != served "
                            f"{stats.served} + degraded {stats.degraded} + rejected {stats.rejected}")
        return _reduce(
            result.runs, expect=cfg.n_frames, late=stats.late_frames,
            map_value=stats.mean_map, digest_parts=[result.digest()], problems=problems,
        )


def _fleet_params(rng) -> dict:
    return {"demand_mbps": _jitter(rng, 2.0), "cell_mbps": _jitter(rng, 6.0)}


WORKLOADS = {w.name: w for w in (
    Workload(0, "drive_steady", 24, 4, 1.7,
             "Batch driver, DiVE on 1 preloaded nuscenes_like clip x 24 frames at 480x288, steady "
             "2 Mbps-label uplink: P-frames only after frame 0, so ME/MC/DCT/rate control dominate.",
             _steady_params, _steady_job),
    Workload(1, "drive_outage", 30, 4, 2.1,
             "Batch driver, DiVE on 1 preloaded turning kitti_like clip x 30 frames at 640x192, "
             "0.5 s outage every 1.0 s: forced I-frames, MOT tracking, HoL drops, server resets.",
             _outage_params, _outage_job),
    Workload(2, "fleet_mixed", 5, 2, 3.3,
             "FleetRunner, 6 StreamRunner agents x 5 frames at 320x192 rendered in the loop (dive/dds/eaar/o3), "
             "markov uplinks on a shared 6 Mbps cell with outages, batching edge, reject admission.",
             _fleet_params, _FleetJob),
)}
