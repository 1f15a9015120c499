"""Shared experiment configuration.

**Bandwidth scaling.**  The paper streams 1600x900 (nuScenes) video over
1-5 Mbps uplinks.  Our synthetic clips default to a much smaller resolution
so the whole evaluation runs on a laptop; to keep every experiment at the
paper's operating point, a "paper" bandwidth label is scaled by two
factors before it reaches the network simulator:

- the **pixel-count ratio** (equal bits per pixel per second), and
- a **codec-efficiency factor**: `repro.codec` is a teaching codec —
  DC/H/V intra prediction only, no CABAC, no deblocking and single-size
  partitions — so it needs roughly twice the bits of x264 for the same
  distortion.
  Without this factor a "1 Mbps" label would drive the quantiser into its
  46-51 cap — a regime the paper never operates in — and every QP-policy
  comparison (Fig 11) would be squashed against the ceiling.  With it,
  the labels map to the paper's operating range (roughly QP 42 at 1 Mbps
  down to QP 28 at 5 Mbps: visibly degraded at the low end, near
  detector-lossless at the high end).

All experiment tables report the paper's labels (1-5 Mbps).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.world.datasets import Clip, kitti_like, nuscenes_like, robotcar_like

__all__ = [
    "PAPER_REFERENCE_PIXELS",
    "ExperimentConfig",
    "dataset_clips",
    "scaled_bandwidth",
]

#: Pixel count of the paper's reference stream (nuScenes, 1600x900).
PAPER_REFERENCE_PIXELS = 1600 * 900

#: How many more bits `repro.codec` needs than x264 at equal distortion
#: (see the module docstring).
CODEC_EFFICIENCY_FACTOR = 2.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment entry point.

    Attributes
    ----------
    n_clips:
        Clips per dataset (the paper uses 50/8; defaults here are smaller
        so a full run finishes in minutes — pass larger values for a
        paper-scale run).
    n_frames:
        Frames per clip.
    detector_seed:
        Seed of the surrogate detector (shared across schemes so ground
        truth is identical for every comparison).
    """

    n_clips: int = 3
    n_frames: int = 48
    detector_seed: int = 7


def scaled_bandwidth(mbps_label: float, clip: Clip) -> float:
    """Convert a paper-scale bandwidth label (Mbps) to simulator bits/s.

    Scales by the clip's pixel count relative to the paper's 1600x900
    reference and by the codec-efficiency factor, so the quantiser
    operating point matches the paper's (see module docstring).
    """
    pixels = clip.intrinsics.width * clip.intrinsics.height
    return mbps_label * 1e6 * CODEC_EFFICIENCY_FACTOR * pixels / PAPER_REFERENCE_PIXELS


def dataset_clips(dataset: str, config: ExperimentConfig, **kwargs) -> list[Clip]:
    """The clip set for a dataset name (``nuscenes`` / ``robotcar`` /
    ``kitti``), seeded deterministically."""
    makers = {"nuscenes": nuscenes_like, "robotcar": robotcar_like, "kitti": kitti_like}
    if dataset not in makers:
        raise ValueError(f"unknown dataset {dataset!r}; choose from {sorted(makers)}")
    maker = makers[dataset]
    return [maker(seed, n_frames=config.n_frames, **kwargs) for seed in range(config.n_clips)]
