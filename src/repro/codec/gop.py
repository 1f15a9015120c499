"""B-frame GoP pipeline.

Section II-B describes GoPs of I-, P- and *B*-frames.  DiVE itself streams
with I/P only — a B-frame cannot be encoded until the *next* anchor has
been captured, which adds ``b_frames / fps`` of structural latency that a
real-time analytics uplink cannot afford.  This module implements the full
B-frame pipeline anyway, for two reasons: the codec substrate should match
what the paper describes, and the bits-vs-latency trade-off it exposes
(see ``tests/test_codec_gop.py``) is the quantitative argument for DiVE's
zero-B choice.

Encoding order vs display order: for ``b_frames = 2`` the display sequence
``I b b P b b P ...`` is encoded as ``I P b b P b b ...`` — each anchor
before the B-frames that reference it from both sides.  Every macroblock
of a B-frame picks the cheapest of forward, backward, or bi-directional
(averaged) prediction, exactly like a real encoder's mode decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.encoder import EncoderConfig, _FRAME_OVERHEAD_BITS, _INTRA_DC, _MAX_QP, _MV_BITS_PER_MB
from repro.codec.motion import estimate_motion, motion_compensate
from repro.codec.transform import dct_blocks, quantize_cost, reconstruct

__all__ = ["BFrameEncodedFrame", "GopStructure", "encode_gop_sequence"]


@dataclass(frozen=True)
class GopStructure:
    """Frame-type pattern of a GoP.

    Attributes
    ----------
    gop_length:
        Display distance between I-frames.
    b_frames:
        Consecutive B-frames between anchors (0 = the I/P-only structure
        DiVE streams with).
    """

    gop_length: int = 12
    b_frames: int = 0

    def __post_init__(self) -> None:
        if self.gop_length < 1:
            raise ValueError("gop_length must be >= 1")
        if self.b_frames < 0:
            raise ValueError("b_frames must be >= 0")
        if self.b_frames >= self.gop_length:
            raise ValueError("b_frames must be smaller than gop_length")

    def frame_type(self, display_index: int) -> str:
        """``I``/``P``/``B`` of a display-order index."""
        pos = display_index % self.gop_length
        if pos == 0:
            return "I"
        return "B" if pos % (self.b_frames + 1) != 0 else "P"

    def anchors(self, n_frames: int) -> list[int]:
        """Display indices of the I/P anchors among the first ``n_frames``.

        A trailing run of B-frames with no closing anchor is promoted: its
        last frame becomes a P anchor so every frame stays decodable.
        """
        idx = [i for i in range(n_frames) if self.frame_type(i) != "B"]
        if not idx or idx[-1] != n_frames - 1:
            idx.append(n_frames - 1)
        return idx

    def encode_order(self, n_frames: int) -> list[int]:
        """Display indices in the order they must be encoded."""
        anchors = self.anchors(n_frames)
        order: list[int] = []
        prev = None
        for anchor in anchors:
            order.append(anchor)
            if prev is not None:
                order.extend(range(prev + 1, anchor))
            prev = anchor
        return order

    def structural_delay(self, fps: float) -> float:
        """Capture-to-encodable latency added by the B-frame reordering."""
        return self.b_frames / fps


@dataclass
class BFrameEncodedFrame:
    """One frame of a B-GoP encode."""

    display_index: int
    encode_index: int
    frame_type: str
    bits: float
    size_bytes: int
    reconstruction: np.ndarray
    prediction_modes: np.ndarray | None = None  # per-MB 0=fwd, 1=bwd, 2=bi (B only)


def _code_frame(frame: np.ndarray, prediction: np.ndarray, qp: float, block: int) -> tuple[float, np.ndarray]:
    """Transform-code ``frame`` against ``prediction`` at one QP:
    ``(coefficient bits, reconstruction)``."""
    coeffs = dct_blocks(frame - prediction)
    mb_shape = (frame.shape[0] // block, frame.shape[1] // block)
    qp_map = np.full(mb_shape, float(np.clip(qp, 0, _MAX_QP)))
    levels, bits_per_mb = quantize_cost(coeffs, qp_map, mb_size=block)
    return float(bits_per_mb.sum()), reconstruct(prediction, levels, qp_map, mb_size=block)


def _best_b_prediction(
    frame: np.ndarray,
    fwd_ref: np.ndarray,
    bwd_ref: np.ndarray,
    cfg: EncoderConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-macroblock mode decision between fwd / bwd / bi prediction."""
    me_f = estimate_motion(frame, fwd_ref, method=cfg.me_method, search_range=cfg.search_range, block=cfg.block)
    me_b = estimate_motion(frame, bwd_ref, method=cfg.me_method, search_range=cfg.search_range, block=cfg.block)
    pred_f = motion_compensate(fwd_ref, me_f.mv, block=cfg.block)
    pred_b = motion_compensate(bwd_ref, me_b.mv, block=cfg.block)
    pred_bi = 0.5 * (pred_f + pred_b)
    b = cfg.block
    rows, cols = frame.shape[0] // b, frame.shape[1] // b

    def mb_sad(pred: np.ndarray) -> np.ndarray:
        d = np.abs(frame.astype(np.float64) - pred)
        return d.reshape(rows, b, cols, b).sum(axis=(1, 3))

    sads = np.stack([mb_sad(pred_f), mb_sad(pred_b), mb_sad(pred_bi)])
    modes = np.argmin(sads, axis=0)
    prediction = np.empty_like(frame, dtype=np.float64)
    preds = (pred_f, pred_b, pred_bi)
    for r in range(rows):
        for c in range(cols):
            prediction[r * b : (r + 1) * b, c * b : (c + 1) * b] = preds[int(modes[r, c])][
                r * b : (r + 1) * b, c * b : (c + 1) * b
            ]
    return prediction, modes


def encode_gop_sequence(
    frames: list[np.ndarray],
    *,
    structure: GopStructure,
    base_qp: float,
    b_qp_offset: float = 2.0,
    config: EncoderConfig | None = None,
) -> list[BFrameEncodedFrame]:
    """Encode a frame list with a B-frame GoP structure.

    Returns one :class:`BFrameEncodedFrame` per input frame, in display
    order (``encode_index`` records the true coding order).  B-frames are
    quantised ``b_qp_offset`` coarser than anchors, the standard practice
    (nothing references them, so their distortion does not propagate).
    """
    cfg = config or EncoderConfig()
    n = len(frames)
    if n == 0:
        return []
    arr = [np.asarray(f, dtype=np.float32) for f in frames]
    order = structure.encode_order(n)
    results: dict[int, BFrameEncodedFrame] = {}
    anchor_recon: dict[int, np.ndarray] = {}
    prev_anchor: int | None = None
    anchor_of_prev: dict[int, int] = {}

    for enc_idx, disp in enumerate(order):
        frame = arr[disp]
        ftype = structure.frame_type(disp)
        if disp == n - 1 and disp not in [i for i in range(n) if structure.frame_type(i) != "B"]:
            ftype = "P"  # promoted trailing anchor
        if ftype != "B":
            if ftype == "I" or prev_anchor is None:
                prediction = np.full_like(frame, _INTRA_DC)
                mv_bits = 0.0
                ftype = "I" if (structure.frame_type(disp) == "I" or prev_anchor is None) else "P"
            else:
                me = estimate_motion(
                    frame,
                    anchor_recon[prev_anchor],
                    method=cfg.me_method,
                    search_range=cfg.search_range,
                    block=cfg.block,
                )
                prediction = motion_compensate(anchor_recon[prev_anchor], me.mv, block=cfg.block)
                mv_bits = _MV_BITS_PER_MB * (frame.size / cfg.block**2)
            bits, recon = _code_frame(frame, prediction, base_qp, cfg.block)
            anchor_of_prev[disp] = prev_anchor if prev_anchor is not None else disp
            anchor_recon[disp] = recon
            prev_anchor = disp
            total = bits + mv_bits + _FRAME_OVERHEAD_BITS
            results[disp] = BFrameEncodedFrame(
                display_index=disp,
                encode_index=enc_idx,
                frame_type=ftype,
                bits=total,
                size_bytes=int(np.ceil(total / 8)),
                reconstruction=recon,
            )
        else:
            fwd = max(a for a in anchor_recon if a < disp)
            bwd = min(a for a in anchor_recon if a > disp)
            prediction, modes = _best_b_prediction(frame, anchor_recon[fwd], anchor_recon[bwd], cfg)
            bits, recon = _code_frame(frame, prediction, base_qp + b_qp_offset, cfg.block)
            # Two motion fields for a B-frame.
            total = bits + 2 * _MV_BITS_PER_MB * (frame.size / cfg.block**2) + _FRAME_OVERHEAD_BITS
            results[disp] = BFrameEncodedFrame(
                display_index=disp,
                encode_index=enc_idx,
                frame_type="B",
                bits=total,
                size_bytes=int(np.ceil(total / 8)),
                reconstruction=recon,
                prediction_modes=modes,
            )
    return [results[i] for i in range(n)]
