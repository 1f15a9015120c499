"""Uplink network simulation.

Models the 4G/5G uplink between the mobile agent and the edge server:
piecewise-constant bandwidth traces (with random-walk and Markov generators
and scripted outages), a FIFO transmit queue with the head-of-line timer
that triggers DiVE's offline tracking, and the sliding-window bandwidth
estimator of Section III-D1.
"""

from repro.network.estimator import BandwidthEstimator
from repro.network.link import TransmissionResult, UplinkSimulator
from repro.network.trace import BandwidthTrace, constant_trace, markov_trace, random_walk_trace, with_outages

__all__ = [
    "BandwidthEstimator",
    "BandwidthTrace",
    "TransmissionResult",
    "UplinkSimulator",
    "constant_trace",
    "markov_trace",
    "random_walk_trace",
    "with_outages",
]
