"""repro.fleet — multi-tenant edge serving: one server, a fleet of agents.

N heterogeneous agents (dataset preset, trajectory seed, scheme — per
agent; uplink shape seeded per agent) share one cell uplink and one
batch-serving edge.  The package composes the PR 1–8 substrate:

- :class:`SharedCell` partitions cell capacity across active agents in
  simulated time (equal-share water-filling) into one allocated trace
  per agent, handed straight to ``scheme.run``, so per-agent uplink
  arithmetic is exact;
- :class:`BatchingEdgeServer` queues inference requests fleet-wide,
  forms batches (max-batch / max-wait), applies admission control and
  dispatches to W detector workers — all virtual-time arithmetic;
- :class:`FleetRunner` + frozen :class:`FleetConfig` run each agent's
  scheme through its own batch loop against a private
  :class:`RecordingEdgeServer` and settle that belief against the
  shared-edge truth; results and :meth:`FleetResult.digest` are
  bit-identical for any ``agent_workers`` width (the one thread seam),
  and a single-agent fleet reproduces a plain batch run bit-for-bit;
- :class:`FleetStats` / :class:`AgentReport` carry per-agent and
  aggregate p50/p95/p99 response, Jain's fairness over accuracy and
  goodput, and admission counts — also exported through ``repro.metrics``
  instruments with ``agent=…`` labels and the ``repro fleet`` CLI.
"""

from repro.fleet.batch import (
    ADMISSIONS,
    BatchingEdgeServer,
    BatchRecord,
    FleetRequest,
    RecordedCall,
    RecordingEdgeServer,
    RequestOutcome,
)
from repro.fleet.cell import CellSlice, SharedCell, waterfill
from repro.fleet.runner import SCHEMES, AgentSpec, FleetConfig, FleetResult, FleetRunner
from repro.fleet.stats import AgentReport, FleetStats, jain_index, quantile

__all__ = [
    "ADMISSIONS",
    "AgentReport",
    "AgentSpec",
    "BatchRecord",
    "BatchingEdgeServer",
    "CellSlice",
    "FleetConfig",
    "FleetRequest",
    "FleetResult",
    "FleetRunner",
    "FleetStats",
    "RecordedCall",
    "RecordingEdgeServer",
    "RequestOutcome",
    "SCHEMES",
    "SharedCell",
    "jain_index",
    "quantile",
    "waterfill",
]
