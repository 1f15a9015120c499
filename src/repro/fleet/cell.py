"""Shared cell uplink capacity, partitioned across active agents.

A fleet of mobile agents shares one cell: when several agents upload at
once, each gets only a slice of the cell's uplink capacity.  The
:class:`SharedCell` turns one capacity :class:`~repro.network.trace.
BandwidthTrace` plus each agent's *demand* trace (the rate the agent
could use if it were alone, in the agent's own local time) into one
allocated per-agent trace, by running max-min fair (equal-share
water-filling) allocation on every segment of the merged piecewise-
constant timeline.

Because the output is an ordinary :class:`BandwidthTrace`, the per-agent
:class:`~repro.network.link.UplinkSimulator` arithmetic stays exact —
the fleet hands each allocated trace straight to ``scheme.run``, and the
cell never reaches inside the link simulator.  Two invariants the
property tests pin:

- **conservation** — at any instant the allocated rates sum to at most
  the cell capacity;
- **work conservation** — the allocated rates sum to exactly
  ``min(total demand, capacity)`` (up to float rounding in the
  contended branch).

An agent whose demand is satisfiable on every segment of its activity
window gets **its original demand trace object back** (the water-filler
grants unsatisfied-free demands verbatim, so the check is exact float
equality).  This identity fast path is what makes an uncontended
single-agent fleet bit-identical to a plain batch run: no extra
breakpoints, no re-derived rates, the very same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.trace import BandwidthTrace, constant_trace

__all__ = ["CellSlice", "SharedCell", "waterfill"]


@dataclass(frozen=True)
class CellSlice:
    """One agent's claim on the cell.

    Attributes
    ----------
    agent:
        Agent id (tie-break ordering inside the allocator is by the
        slice's position, not the name, so ids only label the output).
    demand:
        The uplink rate the agent could use alone, in the agent's *local*
        time (t=0 is the agent's first frame).
    start:
        Global simulated time the agent becomes active.
    duration:
        Length of the activity window in which this agent contends.
        After ``start + duration`` the agent's last in-window allocation
        extends to infinity (``BandwidthTrace`` semantics), so queued
        bytes keep draining at the final granted rate.
    """

    agent: str
    demand: BandwidthTrace
    start: float = 0.0
    duration: float = 60.0

    def validate(self) -> None:
        if self.start < 0.0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")


def waterfill(demands: list[float], capacity: float) -> list[float]:
    """Max-min fair allocation of ``capacity`` over ``demands``.

    Satisfiable demands (in increasing order) are granted **verbatim** —
    no arithmetic touches them, which the :class:`SharedCell` identity
    fast path relies on.  Once a demand no longer fits an equal share of
    what is left, every remaining agent gets that share.

    Returns allocations with ``alloc[i] <= demands[i]`` and
    ``sum(alloc) == min(sum(demands), capacity)`` (exact when
    uncontended, float-rounded in the contended tail).
    """
    n = len(demands)
    alloc = [0.0] * n
    remaining = float(capacity)
    if remaining <= 0.0:
        return alloc
    order = sorted(range(n), key=lambda i: (demands[i], i))
    for pos, i in enumerate(order):
        if demands[i] * (n - pos) <= remaining:
            alloc[i] = demands[i]
            remaining -= demands[i]
        else:
            share = remaining / (n - pos)
            for j in order[pos:]:
                alloc[j] = share
            break
    return alloc


class SharedCell:
    """Partitions one cell's uplink capacity across a fleet of agents.

    Parameters
    ----------
    capacity:
        The cell's total uplink capacity — a
        :class:`~repro.network.trace.BandwidthTrace` (global time) or a
        constant bits/s.  Active agents share it equally (max-min fair).
    """

    def __init__(self, capacity: BandwidthTrace | float):
        if not isinstance(capacity, BandwidthTrace):
            capacity = constant_trace(float(capacity))
        self.capacity = capacity

    # ------------------------------------------------------------ allocate

    def allocate(self, slices: list[CellSlice]) -> list[BandwidthTrace]:
        """Per-agent allocated traces (local time), same order as ``slices``."""
        if not slices:
            return []
        for sl in slices:
            sl.validate()
        events = self._events(slices)

        local_times: list[list[float]] = [[] for _ in slices]
        local_rates: list[list[float]] = [[] for _ in slices]
        contended = [False] * len(slices)
        for t, exact in events:
            active = [
                i for i, sl in enumerate(slices)
                if sl.start <= t < sl.start + sl.duration
            ]
            if not active:
                continue
            # An agent's *own* breakpoints are kept in exact local time:
            # round-tripping them through global time (start + tau - start)
            # can land one ULP early, sampling the pre-step demand and
            # silently dropping the step from the allocated trace.
            locals_ = [exact.get(i, t - slices[i].start) for i in active]
            demands = [slices[i].demand.rate_at(lt) for i, lt in zip(active, locals_)]
            granted = waterfill(demands, self.capacity.rate_at(t))
            for d, g, i, lt in zip(demands, granted, active, locals_):
                if g != d:
                    contended[i] = True
                if local_times[i] and lt <= local_times[i][-1]:
                    # Same instant up to rounding — the later global event
                    # wins; keeps each local timeline strictly increasing.
                    local_rates[i][-1] = g
                else:
                    local_times[i].append(lt)
                    local_rates[i].append(g)

        out: list[BandwidthTrace] = []
        for i, sl in enumerate(slices):
            if not contended[i]:
                # Identity fast path: every segment granted the demand
                # verbatim — hand back the *original* trace object so the
                # downstream uplink arithmetic is bit-identical to a run
                # without the cell.
                out.append(sl.demand)
                continue
            times, rates = _compact(local_times[i], local_rates[i])
            out.append(BandwidthTrace(np.array(times), np.array(rates)))
        return out

    def _events(self, slices: list[CellSlice]) -> list[tuple[float, dict[int, float]]]:
        """Merged global timeline: every instant any rate can change.

        Each event is ``(global_time, {slice_index: exact_local_time})``
        where the map records, for events born from an agent's own demand
        breakpoints, the breakpoint's exact local time (global-minus-start
        subtraction is only used for *other* agents' views of the event).
        """
        horizon = max(sl.start + sl.duration for sl in slices)
        exact: dict[float, dict[int, float]] = {0.0: {}}
        for t in self.capacity.times:
            if float(t) < horizon:
                exact.setdefault(float(t), {})
        for i, sl in enumerate(slices):
            end = sl.start + sl.duration
            exact.setdefault(sl.start, {})[i] = 0.0
            if end < horizon:
                exact.setdefault(end, {})
            for t in sl.demand.times:
                local = float(t)
                g = sl.start + local
                if g < end and g < horizon:
                    exact.setdefault(g, {})[i] = local
        return sorted(exact.items())


def _compact(times: list[float], rates: list[float]) -> tuple[list[float], list[float]]:
    """Drop breakpoints that don't change the rate (smaller trace, same
    function of time)."""
    out_t = [times[0]]
    out_r = [rates[0]]
    for t, r in zip(times[1:], rates[1:]):
        if r != out_r[-1]:
            out_t.append(t)
            out_r.append(r)
    return out_t, out_r
