"""Live windowed telemetry for the streaming runtime.

Three pieces, all driven by *virtual* time so telemetry is as
reproducible as the run it observes:

- :class:`MetricsRegistry` — label-aware Counter / Gauge / Histogram
  instruments aggregated into fixed windows of simulated time, with
  deterministic fixed-bucket quantiles (:mod:`repro.metrics.hist`) and a
  no-op :data:`NULL_REGISTRY` default mirroring ``NULL_TRACER``;
- :class:`FlightRecorder` — a bounded ring of frame-lifecycle events
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
from repro.metrics.hist import (
    ExactSum,
    FixedBucketHistogram,
    bucket_quantile,
    linear_buckets,
    log_buckets,
)
from repro.metrics.registry import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullInstrument,
    NullRegistry,
)
from repro.metrics.top import render_top, series_rows

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "NULL_FLIGHT_RECORDER",
    "NULL_REGISTRY",
    "Counter",
    "ExactSum",
    "FixedBucketHistogram",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsDoc",
    "MetricsRegistry",
    "NullFlightRecorder",
    "NullInstrument",
    "NullRegistry",
    "bucket_quantile",
    "linear_buckets",
    "log_buckets",
    "read_metrics_jsonl",
    "registry_digest",
    "render_top",
    "series_rows",
    "snapshot_lines",
    "write_metrics_jsonl",
]
