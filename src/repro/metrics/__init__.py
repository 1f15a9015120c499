"""Live windowed telemetry for the streaming runtime.

Three pieces, all driven by *virtual* time so telemetry is as
reproducible as the run it observes:

- :class:`MetricsRegistry` — label-aware Counter / Gauge / Histogram
  instruments whose samples are kept per fixed window of simulated time
  (histogram percentiles are ``np.percentile`` over the kept samples, via
  :meth:`repro.obs.StageStats.from_values`), and a no-op
  :data:`NULL_REGISTRY` default mirroring ``NULL_TRACER``;
- :class:`FlightRecorder` — a ring of the last frame-lifecycle events
  dumping deterministic JSONL post-mortems when an anomaly trigger fires
  (deadline-miss burst, sustained queue saturation, sanitizer errors);
- exporters and consumers — metrics JSONL (:mod:`repro.metrics.export`),
  the ``repro top`` dashboard renderer (:mod:`repro.metrics.top`) and
  ``repro report --metrics`` tables.

See the "Observability" sections of README.md / API.md.
"""

from repro.metrics.export import (
    MetricsDoc,
    read_metrics_jsonl,
    registry_digest,
    snapshot_lines,
    write_metrics_jsonl,
)
from repro.metrics.flight import (
    NULL_FLIGHT_RECORDER,
    FlightEvent,
    FlightRecorder,
    NullFlightRecorder,
    write_flight_jsonl,
)
from repro.metrics.registry import (
    NULL_REGISTRY,
    WINDOW,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullInstrument,
    NullRegistry,
)
from repro.metrics.top import render_top, series_rows

__all__ = [
    "NULL_FLIGHT_RECORDER",
    "NULL_REGISTRY",
    "WINDOW",
    "Counter",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsDoc",
    "MetricsRegistry",
    "NullFlightRecorder",
    "NullInstrument",
    "NullRegistry",
    "read_metrics_jsonl",
    "registry_digest",
    "render_top",
    "series_rows",
    "snapshot_lines",
    "write_metrics_jsonl",
]
