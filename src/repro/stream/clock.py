"""Virtual time for the streaming runtime.

*When* things happen in a streaming run is decided entirely by
simulated-time arithmetic: capture times come from the clip, transmission
times from the bandwidth trace, inference and downlink latencies from the
server model.  The :class:`VirtualClock` is the ledger of that simulated
time — the runner's capture, uplink and edge interposers publish how far
they have advanced, and the clock folds those reports into one monotonic
"now".

No decision ever reads the wall clock, so two runs with the same seed make
identical drop/degrade choices.
"""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """Monotonic simulated clock with per-stage high-water marks.

    ``advance(t)`` moves the clock forward to ``t`` (never backward: stages
    report completion times out of order, and the clock keeps the maximum).
    ``stamp(stage, t)`` additionally records the stage's own high-water
    mark, so a finished run can report how far capture, uplink and edge
    each progressed in simulated seconds.  One run owns one clock on one
    thread; it is not locked.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._marks: dict[str, float] = {}

    @property
    def now(self) -> float:
        """Current simulated time (the furthest any stage has reached)."""
        return self._now

    def advance(self, t: float) -> float:
        """Move simulated time forward to ``t`` if it is ahead; return now.

        Non-finite times (a dropped frame "finishes" at ``inf``) are
        ignored — they mark absence of an event, not a moment.
        """
        if t > self._now and t != float("inf"):
            self._now = t
        return self._now

    def stamp(self, stage: str, t: float) -> None:
        """Record ``stage`` having reached simulated time ``t`` and advance."""
        if t != float("inf"):
            if t > self._marks.get(stage, float("-inf")):
                self._marks[stage] = t
            if t > self._now:
                self._now = t

    @property
    def marks(self) -> dict[str, float]:
        """Per-stage high-water marks (a copy; safe to mutate)."""
        return dict(self._marks)
