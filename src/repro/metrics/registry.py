"""Label-aware metrics registry with virtual-time windowed aggregation.

The streaming runtime already proves that every *decision* it makes is a
pure function of virtual time; this registry extends the same discipline
to *telemetry*.  Instruments record values at explicit simulated
timestamps (``at=``, typically from the :class:`~repro.stream.clock.
VirtualClock` arithmetic), never at wall-clock time — wall-clock
measurement stays with :class:`~repro.obs.tracer.Tracer`.  Samples are
aggregated into fixed windows of virtual time (``floor(at / window)``),
and every per-window accumulator is order-independent:

- **Counter** — sample count plus an :class:`~repro.metrics.hist.
  ExactSum` of the increments (exact, so bit-identical in any order);
- **Gauge** — count / min / max / exact sum, with "last" defined as the
  value carried by the lexicographically greatest ``(at, value)`` pair
  (a deterministic tie-break when two writes share a timestamp);
- **Histogram** — integer counts over a :class:`~repro.metrics.hist.
  FixedBucketHistogram` grid (no reservoir sampling).

The streaming runtime records each sample exactly once at a virtual
timestamp, so the whole windowed timeline — and its
:meth:`MetricsRegistry.digest` — is bit-identical across reruns.  Mirroring :data:`~repro.obs.tracer.NULL_TRACER`, the default
:data:`NULL_REGISTRY` is a shared no-op: instruments come back as inert
singletons and the batch path pays one attribute lookup per guard.
Guard any computation of a recorded value with ``if metrics.enabled:``.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

from repro.metrics.hist import ExactSum, FixedBucketHistogram, log_buckets

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "NULL_REGISTRY",
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

#: Default histogram grid for simulated latencies: 100 us .. 100 s,
#: 4 buckets per decade — wide enough for queue waits under outages.
DEFAULT_LATENCY_BUCKETS = log_buckets(1e-4, 1e2, per_decade=4)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


# ------------------------------------------------------------- accumulators


class _CounterWindow:
    __slots__ = ("count", "sum")

    def __init__(self):
        self.count = 0
        self.sum = ExactSum()


class _GaugeWindow:
    __slots__ = ("count", "sum", "min", "max", "last")

    def __init__(self):
        self.count = 0
        self.sum = ExactSum()
        self.min = math.inf
        self.max = -math.inf
        self.last: tuple[float, float] | None = None


# ------------------------------------------------------------------- series


class _Series:
    """One label set of one instrument: virtual window index -> accumulator."""

    enabled = True

    def __init__(self, instrument: "Instrument", labels: dict[str, str]):
        self._instrument = instrument
        self._registry = instrument._registry
        self.labels = dict(labels)
        self.windows: dict[int, object] = {}

    def _window(self, at: float):
        index = self._registry.window_index(at)
        win = self.windows.get(index)
        if win is None:
            win = self.windows[index] = self._new_window()
        return win

    def _new_window(self):  # pragma: no cover - overridden
        raise NotImplementedError


class CounterSeries(_Series):
    def _new_window(self):
        return _CounterWindow()

    def inc(self, value: float = 1.0, *, at: float) -> None:
        value = float(value)
        if not (math.isfinite(at) and math.isfinite(value)):
            return
        with self._registry._lock:
            win = self._window(at)
            win.count += 1
            win.sum.add(value)


class GaugeSeries(_Series):
    def _new_window(self):
        return _GaugeWindow()

    def set(self, value: float, *, at: float) -> None:
        value = float(value)
        if not (math.isfinite(at) and math.isfinite(value)):
            return
        with self._registry._lock:
            win = self._window(at)
            win.count += 1
            win.sum.add(value)
            if value < win.min:
                win.min = value
            if value > win.max:
                win.max = value
            stamp = (float(at), value)
            if win.last is None or stamp > win.last:
                win.last = stamp


class HistogramSeries(_Series):
    def _new_window(self):
        return FixedBucketHistogram(self._instrument.edges)

    def observe(self, value: float, *, at: float) -> None:
        if not math.isfinite(at):
            return
        with self._registry._lock:
            self._window(at).observe(value)

    def pooled(self) -> FixedBucketHistogram:
        """All windows merged into one bounded-memory histogram."""
        with self._registry._lock:
            pooled = FixedBucketHistogram(self._instrument.edges)
            for win in self.windows.values():
                pooled.merge(win)
            return pooled


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
                series = self._series[key] = self._series_cls(self, dict(key))
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

    def __init__(self, registry: "MetricsRegistry", name: str, *,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 help: str = "", unit: str = ""):
        self.edges = tuple(float(e) for e in buckets)
        super().__init__(registry, name, help=help, unit=unit)

    def observe(self, value: float, *, at: float) -> None:
        self._default.observe(value, at=at)


# ----------------------------------------------------------------- registry


class MetricsRegistry:
    """Holds every instrument of one run; aggregation windows are virtual.

    Parameters
    ----------
    window:
        Window width in simulated seconds; samples land in window
        ``floor(at / window)``.
    meta:
        Free-form run metadata carried into exports (excluded from the
        digest so wall-clock annotations never break reproducibility).
    """

    enabled = True

    def __init__(self, *, window: float = 0.25, meta: dict | None = None):
        if not window > 0.0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
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
            buckets = kwargs.get("buckets")
            if buckets is not None and tuple(float(e) for e in buckets) != inst.edges:
                raise ValueError(f"histogram {name!r} already registered with different buckets")
            return inst

    def counter(self, name: str, *, help: str = "", unit: str = "") -> Counter:
        return self._get(name, Counter, help=help, unit=unit)

    def gauge(self, name: str, *, help: str = "", unit: str = "") -> Gauge:
        return self._get(name, Gauge, help=help, unit=unit)

    def histogram(self, name: str, *, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  help: str = "", unit: str = "") -> Histogram:
        return self._get(name, Histogram, buckets=buckets, help=help, unit=unit)

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
                entry: dict = {
                    "name": inst.name, "kind": inst.kind,
                    "help": inst.help, "unit": inst.unit,
                }
                if inst.kind == "histogram":
                    entry["edges"] = list(inst.edges)
                series_out = []
                for series in inst.series():
                    windows = []
                    for index in sorted(series.windows):
                        win = series.windows[index]
                        row: dict = {"index": index, "t0": index * self.window}
                        if inst.kind == "counter":
                            row.update(count=win.count, sum=win.sum.value)
                        elif inst.kind == "gauge":
                            row.update(
                                count=win.count, sum=win.sum.value,
                                min=win.min, max=win.max,
                                last=win.last[1] if win.last is not None else 0.0,
                            )
                        else:
                            row.update(
                                count=win.count, sum=win.sum,
                                min=win.min if win.count else 0.0,
                                max=win.max if win.count else 0.0,
                                buckets=list(win.counts),
                            )
                        windows.append(row)
                    series_out.append({"labels": dict(series.labels), "windows": windows})
                entry["series"] = series_out
                instruments.append(entry)
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

    def histogram(self, name: str, *, buckets: Sequence[float] = (),
                  help: str = "", unit: str = "") -> NullInstrument:
        return _NULL_INSTRUMENT

    def instruments(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {"window": 0.0, "meta": {}, "instruments": []}

    def digest(self) -> str:
        from repro.metrics.export import registry_digest

        return registry_digest(self)


NULL_REGISTRY = NullRegistry()
