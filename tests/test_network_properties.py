"""Property tests for trace generators and the uplink simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    UplinkSimulator,
    constant_trace,
    markov_trace,
    random_walk_trace,
    with_outages,
)


class TestTraceProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(2.0, 40.0))
    def test_markov_trace_valid(self, seed, duration):
        tr = markov_trace(duration=duration, seed=seed)
        assert tr.times[0] == 0.0
        assert (np.diff(tr.times) > 0).all()
        assert (tr.rates >= 0).all()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_outages_reduce_capacity(self, seed):
        base = random_walk_trace(2e6, duration=20.0, seed=seed)
        cut = with_outages(base, outage_duration=1.0, interval=4.0, horizon=20.0)
        assert cut.bits_between(0.0, 20.0) < base.bits_between(0.0, 20.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_bits_between_additive(self, seed, a, b):
        tr = random_walk_trace(1.5e6, duration=12.0, seed=seed)
        t0, t1 = sorted((a, b))
        mid = (t0 + t1) / 2
        total = tr.bits_between(t0, t1)
        split = tr.bits_between(t0, mid) + tr.bits_between(mid, t1)
        assert total == pytest.approx(split, rel=1e-9, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_rate_at_matches_segments(self, seed):
        tr = markov_trace(duration=10.0, seed=seed, state_rates=(1e6, 2e6, 3e6))
        for t, r in zip(tr.times, tr.rates):
            assert tr.rate_at(t + 1e-9) == r


class TestUplinkProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.lists(st.tuples(st.floats(0.0, 5.0), st.integers(100, 50_000)), min_size=1, max_size=10),
    )
    def test_fifo_ordering(self, seed, jobs):
        """Finish times are non-decreasing in submission order and every
        transfer starts no earlier than its enqueue time."""
        tr = random_walk_trace(1e6, duration=30.0, seed=seed)
        link = UplinkSimulator(tr)
        jobs = sorted(jobs)  # non-decreasing enqueue times
        last_finish = 0.0
        for i, (t, size) in enumerate(jobs):
            res = link.transmit(i, size, t)
            assert res.start_time >= t
            assert res.finish_time >= res.start_time
            assert res.finish_time >= last_finish
            last_finish = res.finish_time

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1_000, 200_000))
    def test_transfer_conserves_bits(self, seed, size):
        tr = random_walk_trace(2e6, duration=30.0, seed=seed)
        link = UplinkSimulator(tr)
        res = link.transmit(0, size, 0.5)
        assert tr.bits_between(res.start_time, res.finish_time) == pytest.approx(size * 8, rel=1e-6)

    def test_queue_wait_reflects_backlog(self):
        link = UplinkSimulator(constant_trace(1e6))
        assert link.queue_wait(0.0) == 0.0
        link.transmit(0, 125_000, 0.0)  # busy until t=1
        assert link.queue_wait(0.2) == pytest.approx(0.8)
        assert link.queue_wait(2.0) == 0.0

