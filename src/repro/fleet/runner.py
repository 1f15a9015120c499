"""Fleet composition: N agents, one cell, one edge server.

A :class:`FleetRunner` runs a fleet in three deterministic phases:

1. **Agents (belief, parallelisable).**  Each agent runs its unmodified
   scheme through the scheme's own batch loop,
   ``scheme.run(truth_clip(clip), trace, RecordingEdgeServer(server))``,
   against a *private* edge server — the optimistic solo-run timeline,
   in which every request reaches the edge at the arrival the agent's
   uplink computed.  The only cross-agent coupling is the
   :class:`~repro.fleet.cell.SharedCell`, which pre-computes each
   agent's allocated uplink trace from the whole fleet's demands; after
   that, agents are fully independent, so phase 1 can run under an
   ``agent_workers``-wide thread pool with bit-identical results for
   any pool width — the runtime's one thread seam: each agent's run is
   a plain call chain on whichever thread picked it up.
2. **Batch replay (truth, single-threaded).**  Every request an agent
   made is pooled onto the global timeline (arrival = agent start +
   local arrival) and replayed through the
   :class:`~repro.fleet.batch.BatchingEdgeServer` — W workers, FIFO
   batching, admission control.
3. **Settle (single-threaded, agent order).**  Each agent's belief
   results are corrected from the truth outcomes: served requests shift
   a frame's response by exactly the queueing/batching delay (a delta of
   ``0.0`` when the fleet is unloaded, so a single-agent fleet stays
   bit-identical to a plain batch run); frames whose every request
   was rejected go *stale* (detections = last good edge result, response
   never arrives).  Accuracy is then scored on the settled detections
   — against ground truth that phase 1 scored on the frames it captured,
   so no clip is rendered twice — and all fleet metrics are recorded
   with ``agent=…`` labels.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from repro.baselines import DDSScheme, EAARScheme, O3Scheme
from repro.baselines.base import SchemeRun
from repro.core.agent import DiVEScheme
from repro.edge.detector import Detection, QualityAwareDetector
from repro.edge.evaluation import evaluate_detections
from repro.edge.server import EdgeServer
from repro.experiments.config import scaled_bandwidth
from repro.experiments.runner import truth_clip
from repro.fleet.batch import (
    BatchingEdgeServer,
    FleetRequest,
    RecordedCall,
    RecordingEdgeServer,
    RequestOutcome,
)
from repro.fleet.cell import CellSlice, SharedCell
from repro.fleet.stats import AgentReport, FleetStats, quantile
from repro.metrics.registry import NULL_REGISTRY
from repro.network.trace import (
    BandwidthTrace,
    constant_trace,
    markov_trace,
    random_walk_trace,
    with_outages,
)
from repro.world.datasets import Clip, kitti_like, nuscenes_like, robotcar_like

__all__ = ["AgentSpec", "FleetConfig", "FleetResult", "FleetRunner", "SCHEMES"]

_INF = float("inf")

#: Scheme registry for fleet specs.
SCHEMES = {"dive": DiVEScheme, "dds": DDSScheme, "eaar": EAARScheme, "o3": O3Scheme}

_MAKERS = {"nuscenes": nuscenes_like, "robotcar": robotcar_like, "kitti": kitti_like}

#: Per-agent uplink demand shapes.
UPLINKS = ("constant", "walk", "markov")

#: The bursty-outage overlay ``cell_outages`` puts on the cell's capacity
#: trace, in seconds: each outage's length, their period, the first's start.
_CELL_OUTAGE_DURATION = 0.25
_CELL_OUTAGE_INTERVAL = 0.75
_CELL_OUTAGE_FIRST = 0.25

#: Extra seconds after each agent's clip during which it still contends
#: for cell capacity (queued uploads draining).
_DRAIN_MARGIN = 5.0


@dataclass(frozen=True)
class AgentSpec:
    """One agent of the fleet.

    ``start`` is the global simulated time the agent's clip begins
    (staggered fleets don't all slam the cell at t=0); its uplink demand
    is the fleet-wide one, seeded by ``clip_seed``.
    """

    agent: str
    scheme: str = "dive"
    dataset: str = "nuscenes"
    clip_seed: int = 0
    start: float = 0.0

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {sorted(SCHEMES)}")
        if self.dataset not in _MAKERS:
            raise ValueError(f"unknown dataset {self.dataset!r}; expected one of {sorted(_MAKERS)}")
        if self.start < 0.0:
            raise ValueError(f"start must be >= 0, got {self.start}")


@dataclass(frozen=True)
class FleetConfig:
    """Frozen knobs of a fleet run.

    Attributes
    ----------
    n_agents, n_frames, schemes, datasets, seed, stagger:
        Fleet mix: :meth:`specs` round-robins schemes and datasets over
        ``n_agents`` agents with clip seeds ``seed + i`` and start times
        ``i * stagger``.
    resolution:
        Per-clip resolution override (multiples of 16); ``None`` keeps
        each dataset preset's default.
    demand_mbps, uplink:
        Per-agent uplink demand: a paper-scale bandwidth label (>= 0)
        shaped as ``constant`` | ``walk`` | ``markov`` (seeded by the
        agent's clip seed — heterogeneous by construction).
    cell_mbps:
        Total cell uplink capacity (paper-scale label >= 0, scaled
        against the fleet's mean clip pixel count), shared equally among
        active agents; ``None`` disables the shared cell entirely — each
        agent keeps its full demand trace (bit-identical to running
        without a cell).
    cell_outages:
        The bursty-outage overlay on the capacity trace.
    workers, max_batch, max_wait, batch_overhead:
        The shared edge's detector workers and batching knobs (see
        :class:`~repro.fleet.batch.BatchingEdgeServer`, whose
        constructor checks them and the admission knobs).
    queue_capacity, admission, degrade_factor:
        Admission control at the edge front-end: bounded waiting queue
        with ``reject`` or ``degrade`` for over-capacity newcomers.
    inference_latency, downlink_latency:
        The edge timing model (shared by belief and truth sides).
    deadline:
        Positive per-frame budget in local seconds for late accounting;
        ``None`` disables.
    detector_seed:
        Shared detector seed (every agent's private belief server and
        its ground truth use it).
    agent_workers:
        Phase-1 thread-pool width — wall-clock only, never results.
    """

    n_agents: int = 4
    n_frames: int = 16
    schemes: tuple[str, ...] = ("dive", "eaar", "o3")
    datasets: tuple[str, ...] = ("nuscenes",)
    seed: int = 0
    stagger: float = 0.05
    resolution: tuple[int, int] | None = None
    demand_mbps: float = 2.0
    uplink: str = "constant"
    cell_mbps: float | None = None
    cell_outages: bool = False
    workers: int = 2
    max_batch: int = 4
    max_wait: float = 0.0
    batch_overhead: float = 0.25
    queue_capacity: int | None = None
    admission: str = "reject"
    degrade_factor: float = 0.5
    inference_latency: float = 0.020
    downlink_latency: float = 0.010
    deadline: float | None = None
    detector_seed: int = 7
    agent_workers: int = 1

    def validate(self) -> None:
        if self.n_agents < 1:
            raise ValueError(f"n_agents must be >= 1, got {self.n_agents}")
        if self.n_frames < 2:
            raise ValueError(f"n_frames must be >= 2, got {self.n_frames}")
        if not self.schemes:
            raise ValueError("schemes must be non-empty")
        if not self.datasets:
            raise ValueError("datasets must be non-empty")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}; expected one of {sorted(SCHEMES)}")
        for d in self.datasets:
            if d not in _MAKERS:
                raise ValueError(f"unknown dataset {d!r}; expected one of {sorted(_MAKERS)}")
        if not self.stagger >= 0.0:
            raise ValueError(f"stagger must be >= 0, got {self.stagger}")
        if self.uplink not in UPLINKS:
            raise ValueError(f"unknown uplink {self.uplink!r}; expected one of {UPLINKS}")
        if not self.demand_mbps >= 0.0:
            raise ValueError(f"demand_mbps must be >= 0, got {self.demand_mbps}")
        if self.cell_mbps is not None and not self.cell_mbps >= 0.0:
            raise ValueError(f"cell_mbps must be >= 0 or None, got {self.cell_mbps}")
        if self.deadline is not None and not self.deadline > 0.0:
            raise ValueError(f"deadline must be positive or None, got {self.deadline}")
        if self.agent_workers < 1:
            raise ValueError(f"agent_workers must be >= 1, got {self.agent_workers}")
        self._batcher()  # the edge knobs, checked by the one constructor that takes them

    def _batcher(self, metrics=NULL_REGISTRY) -> BatchingEdgeServer:
        """The shared edge front-end these knobs describe."""
        return BatchingEdgeServer(
            workers=self.workers, max_batch=self.max_batch, max_wait=self.max_wait,
            queue_capacity=self.queue_capacity, admission=self.admission,
            inference_latency=self.inference_latency,
            downlink_latency=self.downlink_latency,
            batch_overhead=self.batch_overhead, degrade_factor=self.degrade_factor,
            metrics=metrics,
        )

    def specs(self) -> tuple[AgentSpec, ...]:
        """The deterministic agent mix these knobs describe."""
        self.validate()
        return tuple(
            AgentSpec(
                agent=f"a{i:03d}",
                scheme=self.schemes[i % len(self.schemes)],
                dataset=self.datasets[i % len(self.datasets)],
                clip_seed=self.seed + i,
                start=i * self.stagger,
            )
            for i in range(self.n_agents)
        )


@dataclass
class _AgentRun:
    """Phase-1 output for one agent (belief timeline + request log).

    ``truth`` is the clip's per-frame ground truth, scored on the frames
    the agent's run fetched (see :func:`~repro.experiments.truth_clip`)
    — ``settle`` never touches the clip.
    """

    spec: AgentSpec
    run: SchemeRun
    calls: list[RecordedCall]
    truth: list[list[Detection]]

    def fork(self) -> "_AgentRun":
        """A copy whose frames can be settled without mutating this run.

        ``settle`` corrects frames in place; callers that settle the same
        phase-1 output several times (the scalability study settles every
        prefix of one agent pool) fork first so deltas never accumulate.
        """
        frames = [replace(f, detections=list(f.detections)) for f in self.run.frames]
        return replace(self, run=replace(self.run, frames=frames))


@dataclass
class FleetResult:
    """Settled outcome of one fleet run.

    ``agents_wall_time`` / ``settle_wall_time`` are the wall-clock
    seconds :meth:`FleetRunner.run` spent in phase 1 and in phases 2+3
    (``0.0`` for a result built by calling ``settle`` directly); they
    are not part of :meth:`digest`.
    """

    config: FleetConfig
    specs: tuple[AgentSpec, ...]
    runs: list[SchemeRun] = field(repr=False, default_factory=list)
    reports: list[AgentReport] = field(default_factory=list)
    outcomes: list[RequestOutcome] = field(repr=False, default_factory=list)
    stats: FleetStats = field(default_factory=FleetStats)
    agents_wall_time: float = 0.0
    settle_wall_time: float = 0.0

    def digest(self) -> str:
        """SHA-256 over every settled per-frame result, request outcome
        and the aggregate stats — bit-identical across reruns and any
        ``agent_workers`` width."""
        import hashlib

        parts = [self.stats.digest()]
        parts.extend(o.key() for o in self.outcomes)
        for spec, run in zip(self.specs, self.runs):
            for f in sorted(run.frames, key=lambda fr: fr.index):
                parts.append(
                    f"{spec.agent}/f{f.index}:src={f.source}"
                    f":rt={f.response_time:.9f}:b={f.bytes_sent}:d={int(f.dropped)}"
                )
        return hashlib.sha256(";".join(parts).encode()).hexdigest()


class FleetRunner:
    """Runs a fleet per :class:`FleetConfig` (see module docstring).

    ``run()`` is ``settle(specs, run_agents(specs))``; the two halves
    are public so callers (the scalability study, tests) can run agents
    once and settle several sub-fleets against different edge knobs.
    """

    def __init__(self, config: FleetConfig | None = None, *, metrics=NULL_REGISTRY):
        self.config = config or FleetConfig()
        self.metrics = metrics

    # ------------------------------------------------------------ phase 1

    def _clip_for(self, spec: AgentSpec) -> Clip:
        kwargs = {}
        if self.config.resolution is not None:
            kwargs["resolution"] = tuple(self.config.resolution)
        return _MAKERS[spec.dataset](spec.clip_seed, n_frames=self.config.n_frames, **kwargs)

    def _demand_for(self, spec: AgentSpec, clip: Clip) -> BandwidthTrace:
        cfg = self.config
        bps = scaled_bandwidth(cfg.demand_mbps, clip)
        duration = clip.duration + _DRAIN_MARGIN
        if cfg.uplink == "walk":
            return random_walk_trace(bps, duration=duration, seed=spec.clip_seed)
        if cfg.uplink == "markov":
            factor = bps / 3e6
            return markov_trace(
                duration=duration, seed=spec.clip_seed,
                state_rates=(1e6 * factor, 3e6 * factor, 6e6 * factor),
            )
        return constant_trace(bps)

    def _allocate_uplinks(self, specs, clips, demands) -> list[BandwidthTrace]:
        """Per-agent cell shares; the demand traces verbatim when no
        cell capacity is configured (bit-identical to no cell at all)."""
        cfg = self.config
        if cfg.cell_mbps is None:
            return list(demands)
        per_label = [scaled_bandwidth(1.0, clip) for clip in clips]
        capacity_bps = cfg.cell_mbps * float(np.mean(per_label))
        capacity = constant_trace(capacity_bps)
        horizon = max(
            spec.start + clip.duration + _DRAIN_MARGIN
            for spec, clip in zip(specs, clips)
        )
        if cfg.cell_outages:
            capacity = with_outages(
                capacity,
                outage_duration=_CELL_OUTAGE_DURATION,
                interval=_CELL_OUTAGE_INTERVAL,
                first_outage=_CELL_OUTAGE_FIRST,
                horizon=horizon,
            )
        slices = [
            CellSlice(
                agent=spec.agent, demand=demand, start=spec.start,
                duration=clip.duration + _DRAIN_MARGIN,
            )
            for spec, clip, demand in zip(specs, clips, demands)
        ]
        return SharedCell(capacity).allocate(slices)

    def run_agents(self, specs: tuple[AgentSpec, ...]) -> list[_AgentRun]:
        """Phase 1: every agent's belief run (parallel over agents).

        Every clip is built up front (the shared cell needs each one's
        duration and pixel count), but none has rendered yet; each is
        released as soon as its agent's run, calls and truth are taken,
        so at most one rendered clip per pool thread is alive at a time
        and the returned runs hold none.
        """
        cfg = self.config
        for spec in specs:
            spec.validate()
        clips: list[Clip | None] = [self._clip_for(spec) for spec in specs]
        demands = [self._demand_for(spec, clip) for spec, clip in zip(specs, clips)]
        uplinks = self._allocate_uplinks(specs, clips, demands)

        def one(i: int) -> _AgentRun:
            spec = specs[i]
            recording = RecordingEdgeServer(EdgeServer(
                QualityAwareDetector(seed=cfg.detector_seed),
                inference_latency=cfg.inference_latency,
                downlink_latency=cfg.downlink_latency,
            ))
            scored = truth_clip(clips[i], detector_seed=cfg.detector_seed)
            clips[i] = None  # ``scored`` holds the clip until this agent returns
            run = SCHEMES[spec.scheme]().run(scored, uplinks[i], recording)
            return _AgentRun(spec=spec, run=run, calls=recording.calls, truth=scored.scores())

        if cfg.agent_workers == 1 or len(specs) == 1:
            return [one(i) for i in range(len(specs))]
        with ThreadPoolExecutor(max_workers=cfg.agent_workers) as pool:
            return list(pool.map(one, range(len(specs))))

    # ------------------------------------------------------- phases 2 + 3

    def settle(self, specs: tuple[AgentSpec, ...], agent_runs: list[_AgentRun]) -> FleetResult:
        """Phases 2+3: batch replay and belief correction (single-threaded)."""
        cfg = self.config
        metrics = self.metrics
        if metrics.enabled:
            metrics.meta.setdefault("fleet", []).append({
                "agents": len(specs), "workers": cfg.workers,
                "max_batch": cfg.max_batch, "admission": cfg.admission,
            })

        # ---- phase 2: pool every agent's requests, replay batches.
        batcher = cfg._batcher(metrics)
        outcomes = batcher.serve([
            FleetRequest(agent=spec.agent, seq=call.seq, frame_index=call.frame_index,
                         arrival=spec.start + call.arrival)
            for spec, ar in zip(specs, agent_runs) for call in ar.calls
        ])
        outcome_map = {(o.agent, o.seq): o for o in outcomes}

        # ---- phase 3: settle every agent's belief against the truth.
        m_resp = metrics.histogram(
            "fleet_response_seconds", unit="s",
            help="settled capture-to-result latency per agent")
        m_frames = metrics.counter(
            "fleet_frames", help="settled frame verdicts per agent")
        m_goodput = metrics.counter(
            "fleet_goodput_bytes", unit="bytes",
            help="uplink bytes of frames whose result arrived")
        reports: list[AgentReport] = []
        pooled_responses: list[float] = []
        makespan = 0.0
        for spec, ar in zip(specs, agent_runs):
            by_frame: dict[int, list[RecordedCall]] = {}
            for call in ar.calls:
                by_frame.setdefault(call.frame_index, []).append(call)
            run = ar.run
            last_good: list = []
            stale = late = served_req = degraded_req = rejected_req = 0
            flabel = metrics.enabled
            a_resp = m_resp.labels(agent=spec.agent) if flabel else m_resp
            a_good = m_goodput.labels(agent=spec.agent) if flabel else m_goodput
            for f in sorted(run.frames, key=lambda fr: fr.index):
                calls = by_frame.get(f.index, [])
                outs = [outcome_map[(spec.agent, c.seq)] for c in calls]
                served_req += sum(o.status == "served" for o in outs)
                degraded_req += sum(o.status == "degraded" for o in outs)
                rejected_req += sum(o.status == "rejected" for o in outs)
                okayed = [(c, o) for c, o in zip(calls, outs) if o.status != "rejected"]
                if not calls:
                    status = "local"
                elif not okayed:
                    # Every pass turned away at the edge: the frame goes
                    # stale — the agent keeps its last good detections.
                    f.detections = list(last_good)
                    f.source = "stale"
                    f.dropped = True
                    f.response_time = _INF
                    stale += 1
                    status = "stale"
                else:
                    if np.isfinite(f.response_time):
                        last_call, last_out = max(okayed, key=lambda p: p[0].result_time)
                        # Shift by the queueing/batching delay; exactly
                        # 0.0 on an unloaded fleet, so solo runs keep
                        # their belief bit-for-bit.
                        delta = (last_out.result_time - spec.start) - last_call.result_time
                        f.response_time += delta
                    status = ("degraded" if any(o.status == "degraded" for _, o in okayed)
                              else "served")
                    if f.source == "edge" and not f.dropped:
                        last_good = f.detections
                is_late = (cfg.deadline is not None
                           and np.isfinite(f.response_time)
                           and f.response_time > cfg.deadline)
                late += int(is_late)
                if np.isfinite(f.response_time):
                    result_at = spec.start + f.capture_time + f.response_time
                    makespan = max(makespan, result_at)
                    pooled_responses.append(f.response_time)
                    if metrics.enabled:
                        a_resp.observe(f.response_time, at=result_at)
                        a_good.inc(float(f.bytes_sent), at=result_at)
                if metrics.enabled:
                    m_frames.labels(agent=spec.agent, status=status).inc(
                        1.0, at=spec.start + f.capture_time)

            ap = evaluate_detections(run.detections_per_frame, ar.truth)
            finite = [f.response_time for f in run.frames if np.isfinite(f.response_time)]
            reports.append(AgentReport(
                agent=spec.agent, scheme=run.scheme, clip_name=run.clip_name,
                start=spec.start, frames=len(run.frames),
                map=ap["mAP"],
                mean_response=(sum(finite) / len(finite)) if finite else _INF,
                p50_response=quantile(finite, 0.50),
                p95_response=quantile(finite, 0.95),
                p99_response=quantile(finite, 0.99),
                goodput_bytes=int(sum(
                    f.bytes_sent for f in run.frames if np.isfinite(f.response_time))),
                requests=len(ar.calls),
                served=served_req, degraded=degraded_req, rejected=rejected_req,
                stale_frames=stale, late_frames=late,
            ))
        stats = FleetStats.build(
            reports, pooled_responses,
            [b.size for b in batcher.batches], makespan,
        )
        return FleetResult(
            config=cfg, specs=tuple(specs), runs=[ar.run for ar in agent_runs],
            reports=reports, outcomes=outcomes, stats=stats,
        )

    # ---------------------------------------------------------------- run

    def run(self, specs: tuple[AgentSpec, ...] | None = None) -> FleetResult:
        """Run the whole fleet: agents, batch replay, settlement."""
        if specs is None:
            specs = self.config.specs()
        else:
            self.config.validate()
        started = time.perf_counter()
        agent_runs = self.run_agents(specs)
        settling = time.perf_counter()
        result = self.settle(specs, agent_runs)
        result.agents_wall_time = settling - started
        result.settle_wall_time = time.perf_counter() - settling
        return result
