"""Post-run analysis and diagnostics.

Turns runs and clips into the quantities you would plot: per-frame
latency series, foreground-extraction quality reports, and
terminal-friendly sparklines for quick looks without a plotting stack.
"""

from repro.analysis.curves import response_time_series
from repro.analysis.foreground_quality import ForegroundQualityReport, foreground_quality
from repro.analysis.sparkline import render_series, sparkline

__all__ = [
    "ForegroundQualityReport",
    "foreground_quality",
    "render_series",
    "response_time_series",
    "sparkline",
]
