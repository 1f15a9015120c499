"""Tests for bandwidth traces, the uplink simulator and the estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    BandwidthEstimator,
    BandwidthTrace,
    UplinkSimulator,
    constant_trace,
    markov_trace,
    random_walk_trace,
    with_outages,
)


class TestBandwidthTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthTrace(np.array([1.0]), np.array([1e6]))  # must start at 0
        with pytest.raises(ValueError):
            BandwidthTrace(np.array([0.0, 0.0]), np.array([1e6, 1e6]))
        with pytest.raises(ValueError):
            BandwidthTrace(np.array([0.0, 1.0]), np.array([1e6]))
        with pytest.raises(ValueError):
            BandwidthTrace(np.array([0.0]), np.array([-5.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("column", ["times", "rates"])
    def test_a_value_that_is_not_finite_names_its_column(self, column, value):
        arrays = {"times": np.array([0.0, 1.0, 2.0]), "rates": np.array([1e6, 2e6, 1e6])}
        arrays[column][2] = value
        with pytest.raises(ValueError, match=f"{column} must be finite"):
            BandwidthTrace(arrays["times"], arrays["rates"])

    def test_constant_rate(self):
        tr = constant_trace(2e6)
        assert tr.rate_at(0.0) == 2e6
        assert tr.rate_at(100.0) == 2e6
        assert tr.bits_between(1.0, 3.0) == pytest.approx(4e6)

    def test_piecewise_integration(self):
        tr = BandwidthTrace(np.array([0.0, 2.0, 4.0]), np.array([1e6, 0.0, 2e6]))
        assert tr.bits_between(0.0, 2.0) == pytest.approx(2e6)
        assert tr.bits_between(2.0, 4.0) == pytest.approx(0.0)
        assert tr.bits_between(0.0, 5.0) == pytest.approx(2e6 + 2e6)

    def test_finish_time_constant(self):
        tr = constant_trace(1e6)
        assert tr.finish_time(3.0, 5e5) == pytest.approx(3.5)

    def test_finish_time_zero_bits(self):
        assert constant_trace(1e6).finish_time(2.0, 0.0) == 2.0

    def test_finish_time_spans_outage(self):
        tr = BandwidthTrace(np.array([0.0, 1.0, 2.0]), np.array([1e6, 0.0, 1e6]))
        # 1 Mbit starting at 0.5: 0.5 Mbit by t=1, stall until 2, rest by 2.5.
        assert tr.finish_time(0.5, 1e6) == pytest.approx(2.5)

    def test_finish_time_permanent_outage(self):
        tr = BandwidthTrace(np.array([0.0, 1.0]), np.array([1e6, 0.0]))
        assert tr.finish_time(2.0, 100.0) == float("inf")

    def test_finish_inverse_of_bits(self):
        tr = random_walk_trace(2e6, duration=10.0, seed=0)
        t0, bits = 1.3, 3e6
        t1 = tr.finish_time(t0, bits)
        assert tr.bits_between(t0, t1) == pytest.approx(bits, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0, 5), st.floats(1, 1e7), st.integers(0, 100))
    def test_finish_time_property(self, t0, bits, seed):
        tr = random_walk_trace(1.5e6, duration=8.0, seed=seed)
        t1 = tr.finish_time(t0, bits)
        assert t1 >= t0
        assert tr.bits_between(t0, t1) == pytest.approx(bits, rel=1e-6)


class TestTraceGenerators:
    def test_random_walk_bounds(self):
        tr = random_walk_trace(2e6, duration=30.0, seed=3)
        assert tr.rates.min() >= 0.2 * 2e6 - 1e-9
        assert tr.rates.max() <= 2 * 2e6 + 1e-9

    def test_random_walk_deterministic(self):
        a = random_walk_trace(1e6, duration=5.0, seed=9)
        b = random_walk_trace(1e6, duration=5.0, seed=9)
        np.testing.assert_array_equal(a.rates, b.rates)

    def test_markov_rates_from_states(self):
        tr = markov_trace(duration=20.0, seed=1, state_rates=(1e6, 2e6))
        assert set(np.unique(tr.rates)) <= {1e6, 2e6}

    def test_outages_zero_rate(self):
        tr = with_outages(constant_trace(2e6), outage_duration=1.0, interval=5.0, horizon=20.0)
        assert tr.rate_at(5.5) == 0.0
        assert tr.rate_at(4.5) == 2e6
        assert tr.rate_at(6.5) == 2e6
        assert tr.rate_at(10.5) == 0.0

    def test_outages_validation(self):
        with pytest.raises(ValueError):
            with_outages(constant_trace(1e6), outage_duration=5.0, interval=5.0)

    def test_outage_preserves_base_rate_elsewhere(self):
        base = BandwidthTrace(np.array([0.0, 8.0]), np.array([1e6, 3e6]))
        tr = with_outages(base, outage_duration=1.0, interval=5.0, horizon=20.0)
        assert tr.rate_at(2.0) == 1e6
        assert tr.rate_at(9.0) == 3e6


class TestUplinkSimulator:
    def test_sequential_transmission(self):
        link = UplinkSimulator(constant_trace(1e6))  # 1 Mbit/s = 125 kB/s
        r1 = link.transmit(0, 12_500, 0.0)  # 0.1 s
        assert r1.finish_time == pytest.approx(0.1)
        r2 = link.transmit(1, 12_500, 0.05)  # queued behind frame 0
        assert r2.start_time == pytest.approx(0.1)
        assert r2.finish_time == pytest.approx(0.2)

    def test_idle_gap(self):
        link = UplinkSimulator(constant_trace(1e6))
        link.transmit(0, 12_500, 0.0)
        r = link.transmit(1, 12_500, 1.0)  # link idle since 0.1
        assert r.start_time == pytest.approx(1.0)

    def test_hol_timeout_drops(self):
        trace = BandwidthTrace(np.array([0.0, 0.5]), np.array([1e6, 0.0]))
        link = UplinkSimulator(trace, hol_timeout=0.4)
        r = link.transmit(0, 125_000, 0.3)  # 1 Mbit, mostly in the outage
        assert r.dropped
        assert r.finish_time == float("inf")
        # Channel released at drop time.
        assert link.busy_until == pytest.approx(0.7)

    def test_no_timeout_waits(self):
        trace = BandwidthTrace(np.array([0.0, 0.5, 1.5]), np.array([1e6, 0.0, 1e6]))
        link = UplinkSimulator(trace)
        r = link.transmit(0, 125_000, 0.0)  # 0.5 Mbit by 0.5, rest after 1.5
        assert not r.dropped
        assert r.finish_time == pytest.approx(2.0)

    def test_uplink_delay(self):
        link = UplinkSimulator(constant_trace(1e6))
        r = link.transmit(0, 12_500, 0.2)
        assert r.uplink_delay == pytest.approx(0.1)

    def test_reset(self):
        link = UplinkSimulator(constant_trace(1e6))
        link.transmit(0, 125_000, 0.0)
        link.reset()
        assert link.busy_until == 0.0


class TestBandwidthEstimator:
    def test_initial_estimate(self):
        est = BandwidthEstimator(window=1.0, initial_bps=5e5)
        assert est.estimate(0.0) == 5e5

    def test_estimates_goodput(self):
        est = BandwidthEstimator(window=1.0, initial_bps=1e5)
        # 25 kB in 0.1 s of link time -> 2 Mbps goodput, regardless of how
        # little of the window was spent transmitting.
        est.record_ack(0.4, 0.5, 25_000)
        assert est.estimate(1.0) == pytest.approx(2e6)

    def test_duration_weighted_mean(self):
        est = BandwidthEstimator(window=2.0, initial_bps=1e5)
        est.record_ack(0.0, 1.0, 125_000)  # 1 Mbps for 1 s
        est.record_ack(1.0, 2.0, 375_000)  # 3 Mbps for 1 s
        assert est.estimate(2.0) == pytest.approx(2e6)

    def test_window_expiry(self):
        est = BandwidthEstimator(window=1.0, initial_bps=1e5)
        est.record_ack(0.4, 0.5, 25_000)
        est.estimate(1.0)
        # After the sample leaves the window, the last estimate persists.
        assert est.estimate(3.0) == pytest.approx(2e6)

    def test_outage_floors_estimate(self):
        est = BandwidthEstimator(window=1.0, initial_bps=1e6)
        est.record_ack(0.4, 0.5, 25_000)  # 2 Mbps
        assert est.estimate(1.0) == pytest.approx(2e6)
        est.record_outage(1.5)
        assert est.estimate(1.6) <= 1e6 * 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthEstimator(window=0.0)

    def test_reset(self):
        est = BandwidthEstimator(window=1.0, initial_bps=7e5)
        est.record_ack(0.05, 0.1, 100_000)
        est.estimate(0.2)
        est.reset()
        assert est.estimate(10.0) == 7e5
