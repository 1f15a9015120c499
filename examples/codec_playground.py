#!/usr/bin/env python3
"""Explore the codec substrate: rate-distortion curves and motion search.

Sweeps QP over a rendered driving frame sequence and prints the
rate-distortion table (bits vs PSNR/SSIM), then compares the five
motion-search methods on one frame pair.

Run:  python examples/codec_playground.py
"""

import numpy as np

from repro.codec import (
    EncoderConfig,
    ME_METHODS,
    VideoEncoder,
    estimate_motion,
    psnr,
    ssim,
)
from repro.experiments import print_table
from repro.world import nuscenes_like


def main() -> None:
    clip = nuscenes_like(seed=4, n_frames=8, resolution=(320, 192))
    frames = [clip.frame(i).image for i in range(clip.n_frames)]

    # --- Rate-distortion sweep --------------------------------------
    rows = []
    for qp in (4, 12, 20, 28, 36, 44):
        enc = VideoEncoder(EncoderConfig(search_range=16))
        bits = 0.0
        quality = []
        struct = []
        for f in frames[:8]:
            ef = enc.encode(f, base_qp=float(qp))
            bits += ef.bits
            quality.append(psnr(f, ef.reconstruction))
            struct.append(ssim(f, ef.reconstruction))
        rows.append([qp, bits / 8 / 1000, float(np.mean(quality)), float(np.mean(struct))])
    print_table(
        ["QP", "total kB (8 frames)", "mean PSNR (dB)", "mean SSIM"],
        rows,
        title="Rate-distortion sweep on a driving clip",
    )

    # --- Motion-search method comparison -----------------------------
    rows = []
    for method in ME_METHODS:
        me = estimate_motion(frames[1], frames[0], method=method, search_range=16)
        nonzero = float(np.any(me.mv != 0, axis=-1).mean())
        rows.append([method, me.elapsed * 1000, nonzero, float(np.abs(me.mv).max())])
    print_table(
        ["method", "time (ms)", "eta (non-zero ratio)", "max |MV| (px)"],
        rows,
        title="Motion-search methods on one frame pair",
    )


if __name__ == "__main__":
    main()
