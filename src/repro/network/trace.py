"""Piecewise-constant bandwidth traces.

A trace maps time to instantaneous uplink rate (bits/second).  Traces
support exact integration ("how many bits fit between t0 and t1") and
inversion ("when does a transmission of n bits started at t0 finish"),
which is all the link simulator needs.

Generators model the paper's network scenarios: constant rate, a bounded
random walk (mobile fading), a two/three-state Markov chain (LTE-like rate
switching) and scripted periodic outages (Fig 13's 1-second interruptions
every 5-20 s).
"""

from __future__ import annotations

import numpy as np

from repro.utils.noise import value_noise_1d

__all__ = ["BandwidthTrace", "constant_trace", "markov_trace", "random_walk_trace", "with_outages"]


class BandwidthTrace:
    """A piecewise-constant rate function of time.

    Parameters
    ----------
    times:
        Breakpoints (seconds), finite, strictly increasing, starting at 0.
    rates:
        Rate (bits/s), finite and non-negative, on each interval
        ``[times[i], times[i+1])``; must have ``len(times)`` entries — the
        final rate extends to infinity.
    """

    def __init__(self, times: np.ndarray, rates: np.ndarray):
        times = np.asarray(times, dtype=float)
        rates = np.asarray(rates, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a non-empty 1-D array")
        if not np.isfinite(times).all():
            raise ValueError("times must be finite")
        if times[0] != 0.0:
            raise ValueError("trace must start at t=0")
        if (np.diff(times) <= 0).any():
            raise ValueError("times must be strictly increasing")
        if rates.shape != times.shape:
            raise ValueError("rates must have the same length as times")
        if not np.isfinite(rates).all():
            raise ValueError("rates must be finite")
        if (rates < 0).any():
            raise ValueError("rates must be non-negative")
        self.times = times
        self.rates = rates
        # Cumulative bits delivered by each breakpoint.
        seg_bits = rates[:-1] * np.diff(times)
        self._cum_bits = np.concatenate([[0.0], np.cumsum(seg_bits)])

    def rate_at(self, t: float) -> float:
        """Instantaneous rate (bits/s) at time ``t``."""
        idx = int(np.searchsorted(self.times, t, side="right") - 1)
        return float(self.rates[max(idx, 0)])

    def bits_between(self, t0: float, t1: float) -> float:
        """Exact number of bits deliverable in ``[t0, t1]``."""
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        return self._cum_bits_at(t1) - self._cum_bits_at(t0)

    def _cum_bits_at(self, t: float) -> float:
        if t <= 0:
            return 0.0
        idx = int(np.searchsorted(self.times, t, side="right") - 1)
        if idx >= len(self.times) - 1:
            base = self._cum_bits[-1]
            return base + (t - self.times[-1]) * self.rates[-1]
        return self._cum_bits[idx] + (t - self.times[idx]) * self.rates[idx]

    def finish_time(self, t0: float, bits: float) -> float:
        """Earliest time by which ``bits`` are delivered when transmission
        starts at ``t0``.  Returns ``inf`` if the trace ends in a permanent
        outage that can never deliver them.
        """
        if bits <= 0:
            return t0
        remaining = float(bits)
        t = max(t0, 0.0)
        idx = max(int(np.searchsorted(self.times, t, side="right") - 1), 0)
        n = len(self.times)
        while idx < n - 1:
            rate = self.rates[idx]
            seg_end = self.times[idx + 1]
            capacity = rate * (seg_end - t)
            if rate > 0 and capacity >= remaining:
                return float(t + remaining / rate)
            remaining -= capacity
            t = seg_end
            idx += 1
        rate = self.rates[-1]
        if rate <= 0:
            return float("inf")
        return float(t + remaining / rate)


def constant_trace(bps: float) -> BandwidthTrace:
    """A constant-rate trace."""
    return BandwidthTrace(np.array([0.0]), np.array([float(bps)]))


def random_walk_trace(
    mean_bps: float,
    *,
    duration: float,
    seed: int,
    relative_std: float = 0.25,
    step: float = 0.5,
    floor_fraction: float = 0.2,
) -> BandwidthTrace:
    """A smooth bounded random walk around ``mean_bps``.

    Built from world-anchored value noise so the same seed always produces
    the same trace.  Rates stay within
    ``[floor_fraction * mean, 2 * mean]``.
    """
    n = max(int(np.ceil(duration / step)) + 1, 2)
    times = np.arange(n) * step
    noise = value_noise_1d(times, seed=seed, scale=4.0 * step, octaves=2) - 0.5
    rates = mean_bps * (1.0 + 2.0 * relative_std * noise * 2.0)
    rates = np.clip(rates, floor_fraction * mean_bps, 2.0 * mean_bps)
    return BandwidthTrace(times, rates)


def markov_trace(
    *,
    duration: float,
    seed: int,
    state_rates: tuple[float, ...] = (1e6, 3e6, 6e6),
    dwell_mean: float = 2.0,
) -> BandwidthTrace:
    """A Markov rate-switching trace (LTE-like cell/MCS changes).

    The chain moves between adjacent rate states with exponential dwell
    times — bandwidth changes are abrupt, as they are across real handovers.
    """
    rng = np.random.default_rng(seed)
    times = [0.0]
    states = [int(rng.integers(len(state_rates)))]
    t = 0.0
    while t < duration:
        t += float(rng.exponential(dwell_mean))
        cur = states[-1]
        step_choices = [s for s in (cur - 1, cur + 1) if 0 <= s < len(state_rates)]
        states.append(int(rng.choice(step_choices)))
        times.append(t)
    rates = np.array([state_rates[s] for s in states], dtype=float)
    return BandwidthTrace(np.array(times), rates)


def with_outages(
    base: BandwidthTrace,
    *,
    outage_duration: float,
    interval: float,
    first_outage: float | None = None,
    horizon: float = 120.0,
) -> BandwidthTrace:
    """Overlay periodic link outages (rate 0) on a base trace.

    Mirrors the Fig 13 setup: ``outage_duration``-second interruptions
    whose *starts* are ``interval`` seconds apart.
    """
    if outage_duration <= 0 or interval <= outage_duration:
        raise ValueError("need 0 < outage_duration < interval")
    start = interval if first_outage is None else first_outage
    events = []
    t = start
    while t < horizon:
        events.append((t, t + outage_duration))
        t += interval
    # Merge base breakpoints with outage windows.
    cut_points = set(base.times.tolist()) | {0.0}
    for a, b in events:
        cut_points.update((a, b))
    times = np.array(sorted(p for p in cut_points if p <= horizon))
    rates = np.array([base.rate_at(t) for t in times])
    for a, b in events:
        mask = (times >= a - 1e-12) & (times < b - 1e-12)
        rates[mask] = 0.0
    return BandwidthTrace(times, rates)
