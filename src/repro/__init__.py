"""repro — a from-scratch reproduction of DiVE (ICDCS 2025).

DiVE: Differential Video Encoding for Online Edge-assisted Video Analytics
on Mobile Agents.

The package is organised as:

- :mod:`repro.geometry` — pinhole camera and analytic motion-vector fields.
- :mod:`repro.world` — synthetic 3-D driving world, renderer, dataset presets.
- :mod:`repro.codec` — macroblock video codec (motion search, DCT, rate control).
- :mod:`repro.network` — uplink bandwidth traces, transmit queue, estimator.
- :mod:`repro.edge` — edge server, quality-aware surrogate detector, AP metrics.
- :mod:`repro.core` — the DiVE agent itself (preprocessing, foreground
  extraction, adaptive encoding, offline tracking).
- :mod:`repro.baselines` — O3, EAAR and DDS comparison schemes.
- :mod:`repro.experiments` — one entry point per paper table/figure.
- :mod:`repro.obs` — frame-level tracing/metrics, JSONL export, aggregation.
- :mod:`repro.metrics` — live windowed telemetry keyed to simulated time,
  flight-recorder post-mortems, ``repro top`` dashboard.
- :mod:`repro.check` — project-specific static analysis (``repro lint``).
"""

__version__ = "1.0.0"
