"""Experiment harness: one entry point per paper table/figure.

:mod:`repro.experiments.runner` couples clips, schemes, traces and the edge
server; the ``figXX`` modules reproduce each figure's sweep and return the
rows/series the paper plots.  The benchmark suite under ``benchmarks/``
calls these entry points and prints the tables.

| Entry point | Paper artefact |
|---|---|
| :func:`run_table1`   | Table I  — dataset summary |
| :func:`run_fig06`    | Fig 6    — ego-motion detection from eta |
| :func:`run_fig07`    | Fig 7    — R-sampling rotation estimation |
| :func:`run_fig09`    | Fig 9    — motion-estimation methods |
| :func:`run_fig10`    | Fig 10   — effect of k in R-sampling |
| :func:`run_fig11`    | Fig 11   — optimal QP assignment |
| :func:`run_fig12`    | Fig 12   — foreground extraction quality |
| :func:`run_fig13`    | Fig 13   — MV-based offline tracking |
| :func:`run_fig14`    | Fig 14   — ego motion states |
| :func:`run_fig16_17` | Fig 16/17 — end-to-end scheme comparison |
| :func:`run_ablation` | extra    — design-choice ablations |
| :func:`run_scalability` | extra — multi-agent edge-server scalability |
"""

from repro.experiments.ablation import AblationResult, run_ablation
from repro.experiments.config import (
    PAPER_REFERENCE_PIXELS,
    ExperimentConfig,
    dataset_clips,
    scaled_bandwidth,
)
from repro.experiments.fig06 import EgoMotionStudy, run_fig06
from repro.experiments.fig07 import KSweepResult, RotationStudy, collect_fields, run_fig07, run_fig10
from repro.experiments.fig09 import MEMethodResult, run_fig09
from repro.experiments.fig11 import QPSweepResult, run_fig11
from repro.experiments.fig12 import ForegroundQualityResult, run_fig12
from repro.experiments.fig13 import MOTResult, run_fig13
from repro.experiments.fig14 import MotionStateResult, run_fig14
from repro.experiments.fig16 import EndToEndResult, run_fig16_17
from repro.experiments.reporting import format_table, print_table
from repro.experiments.scalability import ScalabilityResult, run_scalability
from repro.experiments.runner import (
    EvaluationResult,
    evaluate_run,
    ground_truth_for,
    run_scheme,
    truth_clip,
)
from repro.experiments.table1 import DatasetSummary, run_table1

__all__ = [
    "AblationResult",
    "DatasetSummary",
    "EgoMotionStudy",
    "EndToEndResult",
    "EvaluationResult",
    "ExperimentConfig",
    "ForegroundQualityResult",
    "KSweepResult",
    "MEMethodResult",
    "MOTResult",
    "MotionStateResult",
    "PAPER_REFERENCE_PIXELS",
    "QPSweepResult",
    "RotationStudy",
    "collect_fields",
    "dataset_clips",
    "evaluate_run",
    "format_table",
    "ground_truth_for",
    "print_table",
    "run_ablation",
    "run_fig06",
    "run_fig07",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig16_17",
    "run_scalability",
    "ScalabilityResult",
    "run_scheme",
    "run_table1",
    "truth_clip",
    "scaled_bandwidth",
]
