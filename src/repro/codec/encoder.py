"""Video encoder: GoP management, QP offset maps and rate control.

The encoder mirrors the pipeline of Section II-B: motion estimation, QP
decision per macroblock (base QP from rate control + the caller's QP offset
map, which is how DiVE expresses differential encoding), transform
quantisation and bit accounting.  Reconstruction uses the quantised data,
so encoder and decoder stay in lockstep and the decoded frames carry true
quantisation distortion.

Two rate modes:

- **CBR**: ``target_bits`` per frame; a search over the base QP finds the
  highest quality that fits the budget (the DCT is computed once and
  re-quantised per probe, and the search starts from the previous frame's
  answer, so it is cheap).
- **CRF**: fixed ``base_qp`` (used by the Fig 12 foreground-quality
  experiment, where the foreground QP is pinned to 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.intra import intra_encode
from repro.codec.motion import MotionEstimate, estimate_motion, motion_compensate
from repro.codec.transform import (
    QuantBitCounter,
    dct_blocks,
    dequantize,
    idct_blocks,
    quantize_cost,
    reconstruct,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = ["EncodedFrame", "EncoderConfig", "RegionUpdate", "VideoEncoder", "encode_region_update"]

#: Flat prediction level for intra frames (mid-gray).
_INTRA_DC = 128.0
_MAX_QP = 51
#: Per-frame header/syntax overhead in bits (frame header, MV field).
_FRAME_OVERHEAD_BITS = 256.0
#: Average MV syntax cost per macroblock; skip-mode MBs make the true
#: average low.
_MV_BITS_PER_MB = 2.0


@dataclass(frozen=True)
class EncoderConfig:
    """Encoder parameters.

    Attributes
    ----------
    me_method:
        Motion-estimation search: ``dia`` / ``hex`` / ``umh`` / ``esa`` /
        ``tesa`` (paper default after Fig 9: HEX).
    search_range:
        Motion search window, pixels.
    gop:
        Group-of-pictures length; every ``gop``-th frame is an I-frame.
    block:
        Macroblock size.
    lambda_mv:
        Rate weight of MV coding in the motion search.
    intra_prediction:
        Predict I-frame blocks from reconstructed neighbours (DC /
        horizontal / vertical modes) instead of flat mid-gray; saves a
        large share of I-frame bits, exactly as in H.264.
    """

    me_method: str = "hex"
    search_range: int = 16
    gop: int = 48
    block: int = 16
    lambda_mv: float = 4.0
    intra_prediction: bool = True


@dataclass
class EncodedFrame:
    """One encoded frame — everything the decoder and DiVE need.

    Attributes
    ----------
    index:
        Encode-order index.
    frame_type:
        ``"I"`` or ``"P"``.
    bits:
        Total coded size in bits (including per-frame overhead).
    size_bytes:
        ``ceil(bits / 8)``.
    base_qp:
        Rate-control QP before offsets.
    qp_map:
        ``(mb_rows, mb_cols)`` effective QP per macroblock.
    levels:
        Quantised DCT levels (block-major), the "bitstream payload".
    motion:
        Motion estimate (``None`` for I-frames).
    reconstruction:
        Decoder-identical reconstruction of this frame.
    bits_per_mb:
        ``(mb_rows, mb_cols)`` coefficient bits per macroblock.
    """

    index: int
    frame_type: str
    bits: float
    size_bytes: int
    base_qp: float
    qp_map: np.ndarray
    levels: np.ndarray
    motion: MotionEstimate | None
    reconstruction: np.ndarray
    bits_per_mb: np.ndarray
    intra_modes: np.ndarray | None = None

    @property
    def mv(self) -> np.ndarray | None:
        return None if self.motion is None else self.motion.mv


class VideoEncoder:
    """Stateful encoder over a frame sequence.

    ``tracer`` instruments the encode pipeline: span ``"encode"`` with
    sub-spans ``me`` / ``mc`` / ``dct`` / ``rate_control`` / ``quant``,
    plus per-frame bit and QP gauges.  The default no-op tracer costs
    nothing.
    """

    def __init__(
        self,
        config: EncoderConfig | None = None,
        *,
        tracer: Tracer | NullTracer = NULL_TRACER,
    ):
        self.config = config or EncoderConfig()
        if not self.config.gop >= 1:
            raise ValueError(f"gop must be >= 1, got {self.config.gop}")
        self.tracer = tracer
        self._reference: np.ndarray | None = None
        #: The base QP rate control chose last: where the next search starts.
        self._qp_hint: int | None = None
        self._frame_index = 0

    @property
    def frame_index(self) -> int:
        return self._frame_index

    @property
    def reference(self) -> np.ndarray | None:
        """Current reference frame (the previous reconstruction), if any.

        DiVE's preprocessing computes the motion field against this exact
        reference and hands it back to :meth:`encode` via ``motion=`` so the
        search runs once, as it does inside a real codec.
        """
        return self._reference

    def reset(self) -> None:
        """Drop the reference frame (and rate control's starting point);
        the next frame becomes an I-frame."""
        self._reference = None
        self._qp_hint = None
        self._frame_index = 0

    def encode(
        self,
        frame: np.ndarray,
        *,
        qp_offsets: np.ndarray | None = None,
        target_bits: float | None = None,
        base_qp: float | None = None,
        force_intra: bool = False,
        motion: MotionEstimate | None = None,
    ) -> EncodedFrame:
        """Encode one frame.

        Exactly one of ``target_bits`` (CBR) and ``base_qp`` (CRF) must be
        given.  ``qp_offsets`` is the per-macroblock QP offset map of
        Section II-B — positive offsets compress harder (DiVE assigns 0 to
        foreground macroblocks and delta to the background).

        Raises
        ------
        ValueError
            Naming the argument: both or neither of ``target_bits`` and
            ``base_qp``, either of them NaN, a frame that is not whole
            macroblocks or holds a NaN / inf pixel, a ``qp_offsets`` map
            off the macroblock grid or holding a NaN.
        """
        if (target_bits is None) == (base_qp is None):
            raise ValueError("specify exactly one of target_bits (CBR) or base_qp (CRF)")
        for name, value in (("target_bits", target_bits), ("base_qp", base_qp)):
            if value is not None and np.isnan(value):
                raise ValueError(f"{name} is NaN")
        frame = np.asarray(frame, dtype=np.float32)
        cfg = self.config
        if frame.shape[0] % cfg.block or frame.shape[1] % cfg.block:
            raise ValueError(f"frame shape {frame.shape} not a multiple of block {cfg.block}")
        if not np.isfinite(frame).all():
            raise ValueError("frame holds a NaN or infinite pixel")
        mb_shape = (frame.shape[0] // cfg.block, frame.shape[1] // cfg.block)
        offsets = (
            np.zeros(mb_shape, dtype=np.float64) if qp_offsets is None else np.asarray(qp_offsets, dtype=np.float64)
        )
        if offsets.shape != mb_shape:
            raise ValueError(f"qp_offsets shape {offsets.shape} != macroblock grid {mb_shape}")
        if np.isnan(offsets).any():
            raise ValueError("qp_offsets holds a NaN")

        tr = self.tracer
        with tr.span("encode"):
            intra = force_intra or self._reference is None or (self._frame_index % cfg.gop == 0)
            predicted_intra = intra and cfg.intra_prediction
            if intra:
                motion = None
                prediction = np.full_like(frame, _INTRA_DC)
                overhead = _FRAME_OVERHEAD_BITS
            else:
                if motion is None:
                    motion = estimate_motion(
                        frame,
                        self._reference,
                        method=cfg.me_method,
                        search_range=cfg.search_range,
                        block=cfg.block,
                        lambda_mv=cfg.lambda_mv,
                        tracer=tr,
                    )
                elif motion.mv.shape[:2] != mb_shape:
                    raise ValueError(f"precomputed motion shape {motion.mv.shape[:2]} != grid {mb_shape}")
                with tr.span("mc"):
                    prediction = motion_compensate(self._reference, motion.mv, block=cfg.block)
                overhead = _FRAME_OVERHEAD_BITS + _MV_BITS_PER_MB * mb_shape[0] * mb_shape[1]

            # The residual's coefficients feed rate control and the flat
            # quantiser; a fixed-QP neighbour-predicted I-frame reads neither.
            if target_bits is not None or not predicted_intra:
                with tr.span("dct"):
                    coeffs = dct_blocks(frame - prediction)

            if base_qp is not None:
                chosen_qp = float(np.clip(base_qp, 0, _MAX_QP))
            else:
                with tr.span("rate_control"):
                    counter = QuantBitCounter(coeffs, offsets, mb_size=cfg.block, max_qp=_MAX_QP)
                    chosen_qp = self._rate_control(counter, float(target_bits) - overhead, self._qp_hint)
                    self._qp_hint = int(chosen_qp)

            qp_map = np.clip(chosen_qp + offsets, 0, _MAX_QP)
            intra_modes = None
            with tr.span("quant"):
                if predicted_intra:
                    # Neighbour-predicted intra coding.  Rate control above probed
                    # the flat-prediction residual — usually an over-estimate, but
                    # on noise-like content the mode syntax can tip the real cost
                    # slightly over budget, so bump the QP until it fits.
                    for _ in range(5):
                        levels, intra_modes, recon64, bits_per_mb = intra_encode(frame, qp_map, block=cfg.block)
                        if (
                            target_bits is None
                            or chosen_qp >= _MAX_QP
                            or float(bits_per_mb.sum()) + overhead <= float(target_bits)
                        ):
                            break
                        chosen_qp = min(chosen_qp + 1.0, _MAX_QP)
                        qp_map = np.clip(chosen_qp + offsets, 0, _MAX_QP)
                    reconstruction = recon64.astype(np.float32)
                else:
                    levels, bits_per_mb = quantize_cost(coeffs, qp_map, mb_size=cfg.block)
                    reconstruction = reconstruct(prediction, levels, qp_map, mb_size=cfg.block)

        total_bits = float(bits_per_mb.sum() + overhead)
        if tr.enabled:
            tr.gauge("bits", total_bits)
            tr.gauge("frame_intra", 1.0 if intra else 0.0)
            tr.gauge("base_qp", float(chosen_qp))
            tr.gauge("qp_mean", float(qp_map.mean()))
            tr.gauge("qp_max", float(qp_map.max()))
            if target_bits is not None:
                tr.gauge("target_bits", float(target_bits))
        encoded = EncodedFrame(
            index=self._frame_index,
            frame_type="I" if intra else "P",
            bits=total_bits,
            size_bytes=int(np.ceil(total_bits / 8.0)),
            base_qp=chosen_qp,
            qp_map=qp_map,
            levels=levels,
            motion=motion,
            reconstruction=reconstruction,
            bits_per_mb=bits_per_mb,
            intra_modes=intra_modes,
        )
        self._reference = reconstruction
        self._frame_index += 1
        return encoded

    @staticmethod
    def _rate_control(counter: QuantBitCounter, budget_bits: float, hint: int | None = None) -> float:
        """Smallest base QP whose coded size fits the bit budget.

        ``counter.bits_at`` is non-increasing over the integer QPs (a
        coarser step never raises a level, and a block that loses its last
        coefficient drops from 4.0 bits of overhead to 0.25), so the answer
        is one boundary and any bracketing search finds the same one.  If
        even QP 51 overshoots, 51 is returned (the frame will simply take
        longer to transmit — the network simulator handles queueing).

        ``hint`` is where to look first — the previous frame's answer,
        which is rarely more than a few QPs away: the search gallops
        outward from it (steps 1, 2, 4, ...) until the boundary is
        bracketed, then bisects.  Without one the bracket is the whole
        range.  The hint moves the probes, never the answer.
        """

        def fits(qp: int) -> bool:
            return counter.bits_at(float(qp)) <= budget_bits

        # Invariant: every QP <= lo overshoots, hi fits.
        if hint is None:
            lo, hi = 0, _MAX_QP
            if fits(lo):
                return float(lo)
            if not fits(hi):
                return float(hi)
        else:
            lo = hi = min(max(hint, 0), _MAX_QP)
            step = 1
            if fits(hi):
                while True:
                    if hi == 0:
                        return 0.0
                    lo = max(hi - step, 0)
                    if not fits(lo):
                        break
                    hi, step = lo, 2 * step
            else:
                while True:
                    if lo == _MAX_QP:
                        return float(_MAX_QP)
                    hi = min(lo + step, _MAX_QP)
                    if fits(hi):
                        break
                    lo, step = hi, 2 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fits(mid):
                hi = mid
            else:
                lo = mid
        return float(hi)


class RegionUpdate:
    """Selected macroblocks of ``target`` re-encoded on top of ``base``,
    transformed once and quantised at any QP.

    Models DDS's second pass: the server already holds the low-quality
    decode (``base``); the agent uploads only the feedback-region
    macroblocks, coded as a residual against that decode at high quality.
    DDS raises the QP and trims the region until the upload fits, so the
    residual's DCT — the same at every QP — is taken once, here, over the
    region's macroblocks only: they are gathered into one compact
    ``(n * block, block)`` plane, one macroblock below the other, and
    transformed together.  Every 8x8 block's DCT is the same computation
    wherever the block sits, so each coefficient equals the full-frame
    transform's; a block outside the region would have been all +0.0 there,
    its levels 0 and its pixel the base pixel.

    :meth:`bits` costs the upload at a QP, :meth:`apply` reconstructs the
    image the server ends up with; both take a ``region_mask`` that is a
    subset of the transformed one (a trimmed region), all of it by default.

    Parameters
    ----------
    base:
        The image both sides already share.
    target:
        The (raw) frame the regions should be upgraded towards.
    region_mask:
        ``(mb_rows, mb_cols)`` boolean mask of macroblocks to upgrade.
    """

    def __init__(self, base: np.ndarray, target: np.ndarray, region_mask: np.ndarray, *, block: int = 16):
        base = np.asarray(base, dtype=np.float32)
        target = np.asarray(target, dtype=np.float32)
        if target.shape != base.shape:
            raise ValueError(f"target shape {target.shape} != base shape {base.shape}")
        if base.ndim != 2 or base.shape[0] % block or base.shape[1] % block:
            raise ValueError(f"plane shape {base.shape} not a multiple of block {block}")
        self._base = base
        self._block = block
        self._grid = (base.shape[0] // block, base.shape[1] // block)
        self._mask = self._checked(region_mask)
        tiles = self._macroblocks(target)[self._mask] - self._macroblocks(base)[self._mask]
        self._coeffs = dct_blocks(tiles.reshape(-1, block)) if tiles.size else None

    def _checked(self, region_mask: np.ndarray) -> np.ndarray:
        mask = np.asarray(region_mask, dtype=bool)
        if mask.shape != self._grid:
            raise ValueError(f"region mask shape {mask.shape} != macroblock grid {self._grid}")
        return mask

    def _macroblocks(self, plane: np.ndarray) -> np.ndarray:
        """``(mb_rows, mb_cols, block, block)`` view of a plane's macroblocks."""
        rows, cols = self._grid
        return plane.reshape(rows, self._block, cols, self._block).swapaxes(1, 2)

    def _quantise(self, qp: float, region_mask: np.ndarray | None):
        """``(kept, levels, qp_map, bits_per_mb)`` at ``qp`` of the macroblocks
        ``kept`` (the mask they form); ``levels`` is ``None`` when none is."""
        coeffs, kept = self._coeffs, self._mask
        if region_mask is not None:
            kept = self._checked(region_mask)
            if (kept & ~self._mask).any():
                raise ValueError("region mask is not a subset of the transformed region")
            chosen = kept[self._mask]
            if not chosen.all():
                # Macroblock k's coefficients are the k-th run of block*block.
                per_mb = coeffs.reshape(chosen.size, -1)[chosen]
                coeffs = per_mb.reshape(-1, *coeffs.shape[1:]) if per_mb.size else None
        if coeffs is None:
            return kept, None, None, np.zeros(0, dtype=np.float64)
        qp_map = np.full((coeffs.shape[0] * 8 // self._block, 1), float(qp))
        levels, bits_per_mb = quantize_cost(coeffs, qp_map, mb_size=self._block)
        return kept, levels, qp_map, bits_per_mb

    def bits(self, qp: float, region_mask: np.ndarray | None = None) -> float:
        """Upload cost at ``qp``: the kept macroblocks' coefficient bits plus
        8 bits of addressing each, plus a message header."""
        _, _, _, bits_per_mb = self._quantise(qp, region_mask)
        # Each macroblock's bits are a multiple of 0.25: the sum is order-free.
        return float(bits_per_mb.sum()) + 8.0 * bits_per_mb.size + 64.0

    def apply(self, qp: float, region_mask: np.ndarray | None = None) -> np.ndarray:
        """The image after applying the upgrade coded at ``qp`` (float32)."""
        kept, levels, qp_map, _ = self._quantise(qp, region_mask)
        block = self._block
        # +0.0 outside the kept macroblocks, as the full-frame np.where made it,
        # so a -0.0 or out-of-range base pixel comes out as it did.
        residual = np.zeros(self._base.shape, dtype=np.float64)
        if levels is not None:
            recon = idct_blocks(dequantize(levels, qp_map, mb_size=block))
            self._macroblocks(residual)[kept] = recon.reshape(-1, block, block)
        return np.clip(self._base + residual, 0.0, 255.0).astype(np.float32)


def encode_region_update(
    base: np.ndarray,
    target: np.ndarray,
    region_mask: np.ndarray,
    *,
    qp: float,
    block: int = 16,
) -> tuple[float, np.ndarray]:
    """One-shot :class:`RegionUpdate`: ``(bits, updated_image)`` — the upload
    cost of re-encoding ``region_mask``'s macroblocks of ``target`` at ``qp``
    on top of ``base``, and the image after applying the upgrade."""
    update = RegionUpdate(base, target, region_mask, block=block)
    return update.bits(qp), update.apply(qp)
