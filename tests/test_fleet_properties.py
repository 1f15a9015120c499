"""Property tests for the fleet's cell allocator and batching front-end.

The two invariants the subsystem's correctness rests on:

- **cell conservation** — at any instant the allocated rates sum to at
  most the cell capacity, each agent gets at most its demand, and the
  total equals ``min(total demand, capacity)``;
- **batcher discipline** — FIFO dispatch order, causal batch membership
  (nobody is served before arriving), the max-wait bound, and exhaustive
  accounting (served + degraded + rejected == offered).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    BatchingEdgeServer,
    CellSlice,
    FleetRequest,
    SharedCell,
    waterfill,
)
from repro.network import constant_trace, random_walk_trace

demands_st = st.lists(st.floats(0.0, 1e7), min_size=1, max_size=8)
capacity_st = st.floats(0.0, 2e7)


class TestWaterfillProperties:
    @settings(max_examples=100, deadline=None)
    @given(demands_st, capacity_st)
    def test_fair_share_conserves(self, demands, capacity):
        alloc = waterfill(demands, capacity)
        assert all(a <= d + 1e-6 for a, d in zip(alloc, demands))
        assert all(a >= 0.0 for a in alloc)
        want = min(sum(demands), capacity)
        assert sum(alloc) == pytest.approx(want, rel=1e-9, abs=1e-3)

    @settings(max_examples=100, deadline=None)
    @given(demands_st, capacity_st)
    def test_satisfiable_demands_granted_verbatim(self, demands, capacity):
        alloc = waterfill(demands, capacity)
        # Exact float equality for every fully-granted agent — the
        # SharedCell identity fast path depends on it.
        for a, d in zip(alloc, demands):
            assert a == d or a < d


class TestSharedCellProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 5),
        st.floats(1e5, 5e6),
        st.integers(0, 1000),
    )
    def test_allocation_never_exceeds_capacity(self, n_agents, capacity, seed):
        slices = [
            CellSlice(
                agent=f"a{i}",
                demand=random_walk_trace(1.5e6, duration=6.0, seed=seed + i),
                start=0.4 * i,
                duration=6.0,
            )
            for i in range(n_agents)
        ]
        out = SharedCell(capacity).allocate(slices)
        for k in range(80):
            t = 0.1 * k  # global instants across every activity window
            total = 0.0
            for sl, tr in zip(slices, out):
                if sl.start <= t < sl.start + sl.duration:
                    local = t - sl.start
                    rate = tr.rate_at(local)
                    assert rate <= sl.demand.rate_at(local) + 1e-6
                    total += rate
            assert total <= capacity + 1e-6

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.floats(5e6, 1e8))
    def test_ample_capacity_is_identity(self, n_agents, capacity):
        demands = [constant_trace(1e6) for _ in range(n_agents)]
        slices = [
            CellSlice(agent=f"a{i}", demand=d, duration=4.0)
            for i, d in enumerate(demands)
        ]
        out = SharedCell(capacity).allocate(slices)
        for d, o in zip(demands, out):
            assert o is d


requests_st = st.lists(
    st.floats(0.0, 5.0), min_size=1, max_size=40,
).map(lambda arrivals: [
    FleetRequest(agent=f"a{i % 3}", seq=i, frame_index=i, arrival=t)
    for i, t in enumerate(sorted(arrivals))
])
batcher_knobs_st = st.fixed_dictionaries({
    "workers": st.integers(1, 4),
    "max_batch": st.integers(1, 5),
    "max_wait": st.floats(0.0, 0.1),
    "queue_capacity": st.one_of(st.none(), st.integers(1, 4)),
    "admission": st.sampled_from(("reject", "degrade")),
})


class TestBatcherProperties:
    @settings(max_examples=100, deadline=None)
    @given(requests_st, batcher_knobs_st)
    def test_accounting_exhaustive(self, requests, knobs):
        b = BatchingEdgeServer(**knobs)
        outs = b.serve(requests)
        assert len(outs) == len(requests)
        statuses = [o.status for o in outs]
        assert set(statuses) <= {"served", "degraded", "rejected"}
        n_batched = sum(rec.size for rec in b.batches)
        assert n_batched == sum(s != "rejected" for s in statuses)

    @settings(max_examples=100, deadline=None)
    @given(requests_st, batcher_knobs_st)
    def test_fifo_and_causality(self, requests, knobs):
        b = BatchingEdgeServer(**knobs)
        outs = b.serve(requests)
        admitted = [o for o in outs if o.status != "rejected"]
        # Causality: nobody starts before arriving; finish after start.
        for o in admitted:
            assert o.start_time >= o.arrival - 1e-12
            assert o.finish_time > o.start_time
            assert o.queue_wait >= -1e-12
        # FIFO: outcomes are arrival-sorted, and dispatch order follows
        # arrival order — start times never go backwards.
        for prev, cur in zip(admitted, admitted[1:]):
            assert cur.start_time >= prev.start_time - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(requests_st, batcher_knobs_st)
    def test_batch_invariants(self, requests, knobs):
        b = BatchingEdgeServer(**knobs)
        b.serve(requests)
        for rec in b.batches:
            assert 1 <= rec.size <= knobs["max_batch"]
            # The max-wait bound: a batch never idles past worker
            # availability plus the oldest member's allowed wait.
            bound = max(rec.worker_free, rec.oldest_arrival + knobs["max_wait"])
            assert rec.start <= bound + 1e-12
            assert rec.finish > rec.start

    @settings(max_examples=60, deadline=None)
    @given(requests_st, batcher_knobs_st)
    def test_unbounded_queue_never_rejects(self, requests, knobs):
        knobs = dict(knobs, queue_capacity=None)
        outs = BatchingEdgeServer(**knobs).serve(requests)
        assert all(o.status == "served" for o in outs)
