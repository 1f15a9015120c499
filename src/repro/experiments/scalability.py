"""Extension study — edge-server scalability.

The paper's system model demands the system stay "lightweight and
scalable given ... the potential huge number of agents" but never measures
multi-agent behaviour.  This study does: N agents share one serverless
edge fabric with a fixed number of inference workers, and the response
time per scheme is measured as N grows.

Since PR 9 the study runs on :class:`~repro.fleet.FleetRunner` — the
repo's one source of multi-agent truth.  Each scheme's agent pool runs
its belief phase **once** at the largest N (every agent a plain batch
run of its scheme against a private recording server, so each agent's
requests reach the fabric when its own uplink delivers them); every
requested fleet size is then settled as a prefix of that pool against a
``workers``-worker edge with ``max_batch=1`` / ``max_wait=0`` (pure FIFO
queueing, no batching — the shared-fabric contention the study
isolates).  Each agent's uplink is independent (``cell_mbps=None``:
cellular links are per-agent), so only the inference stage contends.
Schemes that upload (and infer) every frame — DiVE, DDS — load the
fabric N times harder than the key-frame schemes, which is exactly the
trade-off worth seeing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import EAARScheme, O3Scheme
from repro.core.agent import DiVEScheme
from repro.experiments.config import ExperimentConfig

__all__ = ["ScalabilityResult", "run_scalability"]


@dataclass
class ScalabilityResult:
    """One point: scheme x number of agents -> mean response time."""

    scheme: str
    n_agents: int
    response_time: float
    inference_load: float  # inference requests per second offered to the fabric


def run_scalability(
    config: ExperimentConfig | None = None,
    *,
    agent_counts: tuple[int, ...] = (1, 2, 4, 8),
    bandwidth_mbps: float = 3.0,
    workers: int = 1,
    dataset: str = "nuscenes",
    scheme_factories=(DiVEScheme, EAARScheme, O3Scheme),
) -> list[ScalabilityResult]:
    """Measure response time vs. concurrent agents per scheme.

    Built on :class:`~repro.fleet.FleetRunner`: the agent pool's belief
    phase runs once at ``max(agent_counts)``, then every fleet size is
    settled as a prefix of that pool (forked, so settles never interact).
    """
    # Imported here, not at module top: repro.fleet composes the
    # experiments config, so a top-level import would be circular.
    from repro.fleet import SCHEMES, FleetConfig, FleetRunner

    config = config or ExperimentConfig()
    max_agents = max(agent_counts)
    name_of = {cls: name for name, cls in SCHEMES.items()}
    results: list[ScalabilityResult] = []
    for factory in scheme_factories:
        if factory not in name_of:
            raise ValueError(
                f"{factory!r} is not a registered fleet scheme; "
                f"expected one of {sorted(SCHEMES)}")
        fleet_config = FleetConfig(
            n_agents=max_agents,
            n_frames=config.n_frames,
            schemes=(name_of[factory],),
            datasets=(dataset,),
            seed=0,
            stagger=0.0,
            demand_mbps=bandwidth_mbps,
            uplink="constant",
            cell_mbps=None,      # cellular links are per-agent
            workers=workers,
            max_batch=1,         # pure FIFO queueing: isolate contention
            max_wait=0.0,
            queue_capacity=None,
            detector_seed=config.detector_seed,
        )
        runner = FleetRunner(fleet_config)
        specs = fleet_config.specs()
        agent_runs = runner.run_agents(specs)
        for n in agent_counts:
            settled = runner.settle(
                specs[:n], [ar.fork() for ar in agent_runs[:n]])
            duration = max(r.frames[-1].capture_time for r in settled.runs) + 1e-9
            n_inferences = sum(
                1 for r in settled.runs for f in r.frames if f.source == "edge")
            results.append(
                ScalabilityResult(
                    scheme=settled.runs[0].scheme,
                    n_agents=n,
                    response_time=settled.stats.mean_response,
                    inference_load=n_inferences / duration,
                )
            )
    return results
