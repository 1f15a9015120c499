"""Per-frame series of a run."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import SchemeRun

__all__ = ["response_time_series"]


def response_time_series(run: SchemeRun) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Per-frame ``(capture_times, response_times, sources)`` of a run.

    Dropped/never-answered frames carry ``inf`` response times; plot them
    as gaps.
    """
    times = np.array([f.capture_time for f in run.frames])
    responses = np.array([f.response_time for f in run.frames])
    sources = [f.source for f in run.frames]
    return times, responses, sources
