"""Label-aware metrics registry with virtual-time windowed aggregation.

The streaming runtime already proves that every *decision* it makes is a
pure function of virtual time; this registry extends the same discipline
to *telemetry*.  Instruments record values at explicit simulated
timestamps (``at=``, typically from the :class:`~repro.stream.clock.
VirtualClock` arithmetic), never at wall-clock time — wall-clock
measurement stays with :class:`~repro.obs.tracer.Tracer`.  Each sample
lands in a fixed window of virtual time (``floor(at / WINDOW)``) and the
window keeps it; :meth:`MetricsRegistry.snapshot` derives every summary
from the kept samples:

- **Counter** — sample count and the ``math.fsum`` of the increments;
- **Gauge** — count / min / max / ``fsum``, with "last" defined as the
  value carried by the lexicographically greatest ``(at, value)`` pair
  (a deterministic tie-break when two writes share a timestamp);
- **Histogram** — the same moments plus the window's sorted ``values``,
  from which every reader computes percentiles with
  :meth:`~repro.obs.aggregate.StageStats.from_values`.

Memory grows with the run: one float per sample, two for a gauge (a
240-frame ``repro top`` run keeps 754 histogram samples).  The streaming
runtime records each sample exactly once at a virtual timestamp, so the
whole windowed timeline — and its :meth:`MetricsRegistry.digest` — is
bit-identical across reruns.  Mirroring :data:`~repro.obs.tracer.NULL_TRACER`, the default
:data:`NULL_REGISTRY` is a shared no-op: instruments come back as inert
singletons and the batch path pays one attribute lookup per guard.
Guard any computation of a recorded value with ``if metrics.enabled:``.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "NULL_REGISTRY",
    "WINDOW",
    "Counter",
    "CounterSeries",
    "Gauge",
    "GaugeSeries",
    "Histogram",
    "HistogramSeries",
    "MetricsRegistry",
    "NullInstrument",
    "NullRegistry",
]

#: Window width in simulated seconds.
WINDOW = 0.25


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _window_row(kind: str, samples: list) -> dict:
    """One window's summary, derived from the samples recorded into it."""
    values = [v for _, v in samples] if kind == "gauge" else samples
    row: dict = {"count": len(values), "sum": math.fsum(values)}
    if kind == "counter":
        return row
    row.update(min=min(values), max=max(values))
    if kind == "gauge":
        row["last"] = max(samples)[1]
    else:
        row["values"] = sorted(values)
    return row


# ------------------------------------------------------------------- series


class _Series:
    """One label set of one instrument: virtual window index -> samples.

    Counter and histogram windows hold the recorded values; gauge windows
    hold ``(at, value)`` pairs, which the "last" tie-break needs.
    """

    enabled = True

    def __init__(self, registry: "MetricsRegistry", labels: dict[str, str]):
        self._registry = registry
        self.labels = dict(labels)
        self.windows: dict[int, list] = {}

    def _record(self, value: float, at: float, sample) -> None:
        if math.isfinite(at) and math.isfinite(value):
            index = self._registry.window_index(at)
            with self._registry._lock:
                self.windows.setdefault(index, []).append(sample)


class CounterSeries(_Series):
    def inc(self, value: float = 1.0, *, at: float) -> None:
        value = float(value)
        self._record(value, at, value)


class GaugeSeries(_Series):
    def set(self, value: float, *, at: float) -> None:
        value = float(value)
        self._record(value, at, (float(at), value))


class HistogramSeries(_Series):
    def observe(self, value: float, *, at: float) -> None:
        value = float(value)
        self._record(value, at, value)


# -------------------------------------------------------------- instruments


class Instrument:
    """Base: a named metric owning one series per label set.

    The instrument itself doubles as its unlabeled series — ``inc`` /
    ``set`` / ``observe`` on the instrument hit the ``labels()``-less
    series, and :meth:`labels` returns (creating on first use) the child
    for a specific label set.  Create instruments once, outside per-frame
    loops, and keep the returned handles: a lookup by name takes the
    registry lock.
    """

    kind = ""
    _series_cls: type[_Series] = _Series
    enabled = True

    def __init__(self, registry: "MetricsRegistry", name: str, *, help: str = "", unit: str = ""):
        self._registry = registry
        self.name = name
        self.help = help
        self.unit = unit
        self._series: dict[tuple[tuple[str, str], ...], _Series] = {}
        self._default = self.labels()

    def labels(self, **labels: str) -> _Series:
        key = _label_key(labels)
        with self._registry._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = self._series_cls(self._registry, dict(key))
            return series

    def series(self) -> list[_Series]:
        """All label children, sorted by label key (deterministic)."""
        with self._registry._lock:
            return [self._series[k] for k in sorted(self._series)]


class Counter(Instrument):
    kind = "counter"
    _series_cls = CounterSeries

    def inc(self, value: float = 1.0, *, at: float) -> None:
        self._default.inc(value, at=at)


class Gauge(Instrument):
    kind = "gauge"
    _series_cls = GaugeSeries

    def set(self, value: float, *, at: float) -> None:
        self._default.set(value, at=at)


class Histogram(Instrument):
    kind = "histogram"
    _series_cls = HistogramSeries

    def observe(self, value: float, *, at: float) -> None:
        self._default.observe(value, at=at)


# ----------------------------------------------------------------- registry


class MetricsRegistry:
    """Holds every instrument of one run; aggregation windows are virtual.

    Samples land in window ``floor(at / WINDOW)``.  ``meta`` is
    free-form run metadata carried into exports (excluded from the digest
    so wall-clock annotations never break reproducibility).
    """

    enabled = True
    window = WINDOW

    def __init__(self, *, meta: dict | None = None):
        self.meta = dict(meta or {})
        self._lock = threading.RLock()
        self._instruments: dict[str, Instrument] = {}

    def window_index(self, at: float) -> int:
        return int(math.floor(at / self.window))

    def _get(self, name: str, cls: type[Instrument], **kwargs) -> Instrument:
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = cls(self, name, **kwargs)
                return inst
            if inst.kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {inst.kind}, requested {cls.kind}"
                )
            return inst

    def counter(self, name: str, *, help: str = "", unit: str = "") -> Counter:
        return self._get(name, Counter, help=help, unit=unit)

    def gauge(self, name: str, *, help: str = "", unit: str = "") -> Gauge:
        return self._get(name, Gauge, help=help, unit=unit)

    def histogram(self, name: str, *, help: str = "", unit: str = "") -> Histogram:
        return self._get(name, Histogram, help=help, unit=unit)

    def instruments(self) -> list[Instrument]:
        with self._lock:
            return [self._instruments[n] for n in sorted(self._instruments)]

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> dict:
        """Canonical, fully sorted view of every window of every series.

        This is the single serialisation point: the JSONL exporter, the
        digest and ``repro top`` all render from it, so
        "bit-identical timelines" is one comparison of one structure.
        """
        with self._lock:
            instruments = []
            for inst in self.instruments():
                series_out = []
                for series in inst.series():
                    windows = [
                        {"index": index, "t0": index * self.window,
                         **_window_row(inst.kind, series.windows[index])}
                        for index in sorted(series.windows)
                    ]
                    series_out.append({"labels": dict(series.labels), "windows": windows})
                instruments.append({
                    "name": inst.name, "kind": inst.kind,
                    "help": inst.help, "unit": inst.unit, "series": series_out,
                })
            return {"window": self.window, "meta": dict(self.meta), "instruments": instruments}

    def digest(self) -> str:
        """SHA-256 over the canonical snapshot body (meta excluded)."""
        from repro.metrics.export import registry_digest

        return registry_digest(self)


# --------------------------------------------------------------- null path


class _NullSeries:
    """Shared inert series: records nothing, chains to itself."""

    enabled = False
    __slots__ = ()

    def inc(self, value: float = 1.0, *, at: float = 0.0) -> None:
        pass

    def set(self, value: float, *, at: float = 0.0) -> None:
        pass

    def observe(self, value: float, *, at: float = 0.0) -> None:
        pass

    def labels(self, **labels: str) -> "_NullSeries":
        return self


class NullInstrument(_NullSeries):
    """What :data:`NULL_REGISTRY` hands out for any instrument request."""

    __slots__ = ()

    def series(self) -> list:
        return []


_NULL_INSTRUMENT = NullInstrument()


class NullRegistry:
    """No-op registry mirroring :class:`~repro.obs.tracer.NullTracer`.

    Every factory returns the shared :class:`NullInstrument`; recording
    through it is a no-op, so uninstrumented (batch) runs pay one
    attribute lookup per ``metrics.enabled`` guard and nothing else.
    """

    enabled = False
    window = 0.0
    __slots__ = ()

    def counter(self, name: str, *, help: str = "", unit: str = "") -> NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, *, help: str = "", unit: str = "") -> NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, *, help: str = "", unit: str = "") -> NullInstrument:
        return _NULL_INSTRUMENT

    def instruments(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {"window": 0.0, "meta": {}, "instruments": []}

    def digest(self) -> str:
        from repro.metrics.export import registry_digest

        return registry_digest(self)


NULL_REGISTRY = NullRegistry()
