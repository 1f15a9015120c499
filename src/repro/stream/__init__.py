"""Streaming runtime: a scheme run inline against a bounded-uplink truth timeline.

See :mod:`repro.stream.runner` for the architecture and
:mod:`repro.stream.queues` for the backpressure policies and the
belief/truth timeline split that keeps relaxed streaming runs
bit-identical to the batch runner.
"""

from repro.stream.clock import VirtualClock
from repro.stream.messages import QueueOutcome, StreamFrameRecord, StreamStats
from repro.stream.queues import POLICIES, Admission, BackpressureQueue
from repro.stream.runner import (
    StreamConfig,
    StreamResult,
    StreamRunner,
    StreamingUplink,
)

__all__ = [
    "Admission",
    "BackpressureQueue",
    "POLICIES",
    "QueueOutcome",
    "StreamConfig",
    "StreamFrameRecord",
    "StreamResult",
    "StreamRunner",
    "StreamStats",
    "StreamingUplink",
    "VirtualClock",
]
