"""Flight recorder: a ring of the last frame-lifecycle events + triggers.

A post-mortem needs the *events leading up to* an anomaly, not the whole
run.  The recorder keeps the last :data:`CAPACITY` lifecycle events (queue
submits / evictions / refusals / abandons / seals, reconciled frame
verdicts) in a ring buffer; when an anomaly trigger fires — a
deadline-miss burst or sustained queue saturation — the current ring is
snapshotted into a dump, which :func:`write_flight_jsonl` serialises as
deterministic JSONL.

Determinism: every event carries only virtual-time quantities and is
recorded by the streaming run itself, on its one thread (the queue as
the scheme submits; reconciliation post-run), so the ring's *content and
order* — and therefore :meth:`FlightRecorder.digest` — are bit-identical
across runs.  The recorder's lock exists for readers on another thread
(``repro top``'s live dashboard snapshots it mid-run).  The acceptance test
locks exactly that for the bursty-outage deadline-miss scenario.

:data:`NULL_FLIGHT_RECORDER` mirrors :data:`~repro.obs.tracer.
NULL_TRACER`: recording is a no-op and the triggers never fire, so the
default path pays one ``enabled`` check.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "BURST_WINDOW",
    "CAPACITY",
    "DEADLINE_BURST",
    "MAX_DUMPS",
    "NULL_FLIGHT_RECORDER",
    "SATURATION_BURST",
    "FlightEvent",
    "FlightRecorder",
    "NullFlightRecorder",
    "write_flight_jsonl",
]

#: Ring size — how many recent events a dump can look back over.
CAPACITY = 512
#: A trigger-worthy deadline burst: this many missed frames inside any
#: :data:`BURST_WINDOW` consecutive frames at reconciliation.
DEADLINE_BURST = 4
BURST_WINDOW = 8
#: Consecutive submissions finding the queue full that count as
#: sustained saturation.
SATURATION_BURST = 8
#: Dumps retained; past this many the oldest is evicted.
MAX_DUMPS = 8


@dataclass(frozen=True)
class FlightEvent:
    """One lifecycle event: ordinal (run-global), kind, virtual time, fields."""

    ordinal: int
    kind: str
    at: float
    fields: tuple[tuple[str, object], ...]

    def to_json(self) -> dict:
        obj: dict = {"i": self.ordinal, "kind": self.kind, "at": self.at}
        obj.update(self.fields)
        return obj


class FlightRecorder:
    """Ring of the last :data:`CAPACITY` :class:`FlightEvent` plus
    anomaly-triggered dumps (the last :data:`MAX_DUMPS` kept)."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._ring: deque[FlightEvent] = deque(maxlen=CAPACITY)
        self._recorded = 0
        self._dumps: list[dict] = []

    # ------------------------------------------------------------ recording

    def record(self, kind: str, at: float, **fields) -> None:
        """Append one lifecycle event (oldest falls off past capacity)."""
        with self._lock:
            event = FlightEvent(
                ordinal=self._recorded, kind=kind, at=float(at),
                fields=tuple(sorted(fields.items())),
            )
            self._recorded += 1
            self._ring.append(event)

    def trigger(self, reason: str, at: float, **detail) -> dict:
        """An anomaly fired: snapshot the ring into a post-mortem dump."""
        self.record("trigger", at, reason=reason, **detail)
        with self._lock:
            dump = {
                "reason": reason, "at": float(at),
                "detail": dict(sorted(detail.items())),
                "events": [e.to_json() for e in self._ring],
            }
            self._dumps.append(dump)
            if len(self._dumps) > MAX_DUMPS:
                self._dumps.pop(0)
            return dump

    # -------------------------------------------------------------- results

    @property
    def events(self) -> list[FlightEvent]:
        with self._lock:
            return list(self._ring)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (>= len(events) once the ring wraps)."""
        with self._lock:
            return self._recorded

    @property
    def dumps(self) -> list[dict]:
        with self._lock:
            return list(self._dumps)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "capacity": CAPACITY,
                "recorded": self._recorded,
                "dumps": [dict(d) for d in self._dumps],
            }

    def digest(self) -> str:
        """SHA-256 over the canonical dump lines (virtual-time only)."""
        body = "\n".join(_dump_lines(self.snapshot()))
        return hashlib.sha256(body.encode("utf-8")).hexdigest()


class NullFlightRecorder:
    """Shared no-op recorder — the default everywhere."""

    enabled = False
    __slots__ = ()

    def record(self, kind: str, at: float, **fields) -> None:
        pass

    def trigger(self, reason: str, at: float, **detail) -> dict:
        return {}

    @property
    def events(self) -> list:
        return []

    @property
    def recorded(self) -> int:
        return 0

    @property
    def dumps(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {"capacity": 0, "recorded": 0, "dumps": []}

    def digest(self) -> str:
        body = "\n".join(_dump_lines(self.snapshot()))
        return hashlib.sha256(body.encode("utf-8")).hexdigest()


NULL_FLIGHT_RECORDER = NullFlightRecorder()


def _dump_lines(snapshot: dict) -> list[str]:
    """Canonical body lines: one per dump header, one per dumped event."""
    lines: list[str] = []
    for k, dump in enumerate(snapshot["dumps"]):
        lines.append(json.dumps(
            {"dump": k, "reason": dump["reason"], "at": dump["at"],
             "detail": dump["detail"], "n_events": len(dump["events"])},
            sort_keys=True,
        ))
        for event in dump["events"]:
            lines.append(json.dumps({"dump": k, **event}, sort_keys=True))
    return lines


def write_flight_jsonl(path: str | Path, recorder_or_snapshot) -> Path:
    """Serialise the post-mortem dumps as deterministic JSONL.

    Line 1 is a meta header (capacity / totals); each following line is
    one dump header or one dumped event, in ring order — byte-identical
    for identical virtual-time timelines.
    """
    snap = (recorder_or_snapshot if isinstance(recorder_or_snapshot, dict)
            else recorder_or_snapshot.snapshot())
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(
            {"meta": {"capacity": snap["capacity"], "recorded": snap["recorded"],
                      "n_dumps": len(snap["dumps"])}},
            sort_keys=True,
        ) + "\n")
        for line in _dump_lines(snap):
            fh.write(line + "\n")
    return path
