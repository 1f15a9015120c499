"""Bandwidth-trace persistence.

Real evaluations replay recorded drive logs; this module reads and writes
traces as two-column CSV (``time_s,rate_bps``), so measured traces — or
the synthetic ones used here — can be stored, shared, and replayed
bit-identically.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.network.trace import BandwidthTrace

__all__ = ["load_trace_csv", "save_trace_csv"]


def save_trace_csv(trace: BandwidthTrace, path: str | Path) -> None:
    """Write a trace as ``time_s,rate_bps`` rows (with a header)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "rate_bps"])
        for t, r in zip(trace.times, trace.rates):
            writer.writerow([repr(float(t)), repr(float(r))])


def load_trace_csv(path: str | Path) -> BandwidthTrace:
    """Read a trace written by :func:`save_trace_csv` (or any CSV with
    ``time_s,rate_bps`` columns).

    Raises
    ------
    ValueError
        On a missing/incomplete header, non-numeric cells, or breakpoints
        that violate the trace invariants (finite, must start at 0,
        strictly increase, rates non-negative) — the :class:`BandwidthTrace`
        constructor enforces the latter.
    """
    path = Path(path)
    times: list[float] = []
    rates: list[float] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["time_s", "rate_bps"]:
            raise ValueError(f"{path}: expected header 'time_s,rate_bps', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {row!r}")
            try:
                times.append(float(row[0]))
                rates.append(float(row[1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric cell in {row!r}") from exc
    if not times:
        raise ValueError(f"{path}: no data rows")
    return BandwidthTrace(np.array(times), np.array(rates))
