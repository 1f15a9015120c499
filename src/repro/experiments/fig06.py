"""Fig 6 — ego-motion detection from the non-zero MV ratio.

(a) CDFs of eta for frames where the ego agent is stopped vs. moving; the
paper's claim is that a fixed threshold (0.15) separates the two classes
with over 98 % probability.
(b) eta as a function of time across a stop-and-go clip, against the
ground-truth motion state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.motion import estimate_motion, nonzero_mv_ratio
from repro.experiments.config import ExperimentConfig
from repro.world.datasets import Clip, nuscenes_like

__all__ = ["MIN_FRAMES", "EgoMotionStudy", "run_fig06"]

#: The shortest clip that fits a stop: a nuScenes-like clip lasts
#: ``n_frames / 12 + 0.5`` s, and its urban trajectory stops only with more
#: than 2 s left after a first leg of at least 1 s, so below 31 frames no
#: clip has a stopped frame.
MIN_FRAMES = 31


@dataclass
class EgoMotionStudy:
    """Results of the Fig 6 study.

    Attributes
    ----------
    eta_moving, eta_stopped:
        Per-frame eta samples by ground-truth motion state.
    threshold:
        The classification threshold evaluated.
    accuracy:
        Fraction of frames whose thresholded judgement matches the ground
        truth (the paper reports > 98 %).
    series:
        ``(times, etas, moving_gt)`` for one stop-and-go clip (Fig 6b).
    """

    eta_moving: np.ndarray
    eta_stopped: np.ndarray
    threshold: float
    accuracy: float
    series: tuple[np.ndarray, np.ndarray, np.ndarray]

    def cdf(self, which: str, points: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Empirical CDF of one class (``moving`` / ``stopped``)."""
        data = self.eta_moving if which == "moving" else self.eta_stopped
        xs = np.sort(data) if points is None else np.sort(points)
        data = np.sort(data)
        ys = np.searchsorted(data, xs, side="right") / max(len(data), 1)
        return xs, ys


def _clip_etas(clip: Clip) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    etas, moving, times = [], [], []
    prev = None
    for i in range(clip.n_frames):
        record = clip.frame(i)
        if prev is not None:
            me = estimate_motion(record.image, prev, method="hex", search_range=max(16, clip.intrinsics.width // 20))
            etas.append(nonzero_mv_ratio(me.mv))
            moving.append(record.ego.moving)
            times.append(record.time)
        prev = record.image
    return np.array(times), np.array(etas), np.array(moving)


def run_fig06(config: ExperimentConfig | None = None, *, threshold: float = 0.15) -> EgoMotionStudy:
    """Reproduce Fig 6 on nuScenes-like clips with red-light stops."""
    config = config or ExperimentConfig()
    if config.n_frames < MIN_FRAMES:
        raise ValueError(f"Fig 6 needs clips of at least {MIN_FRAMES} frames to fit a stop, got {config.n_frames}")
    eta_moving: list[float] = []
    eta_stopped: list[float] = []
    series = None
    for seed in range(config.n_clips):
        clip = nuscenes_like(seed, n_frames=config.n_frames, with_stop=True)
        times, etas, moving = _clip_etas(clip)
        eta_moving.extend(etas[moving])
        eta_stopped.extend(etas[~moving])
        if series is None and moving.any() and (~moving).any():
            series = (times, etas, moving)
    if series is None:
        raise RuntimeError("no clip produced both moving and stopped frames")
    em = np.array(eta_moving)
    es = np.array(eta_stopped)
    correct = int((em > threshold).sum() + (es <= threshold).sum())
    total = len(em) + len(es)
    return EgoMotionStudy(
        eta_moving=em,
        eta_stopped=es,
        threshold=threshold,
        accuracy=correct / max(total, 1),
        series=series,
    )
