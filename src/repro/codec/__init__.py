"""Macroblock video codec (the x264 stand-in).

Implements the three encoder stages the paper describes in Section II-B:

1. **Block-matching motion estimation** over 16x16 macroblocks, with the
   five x264 search methods (DIA, HEX, UMH, ESA, TESA) evaluated in Fig 9.
   The motion-vector field it produces is the *input* to DiVE.
2. **Quantisation** of the 8x8 DCT of the residual with a per-macroblock QP
   (H.264-style quantiser step ``0.625 * 2^(QP/6)``), driven either by a
   CBR rate controller (binary search for the base QP that fits a bit
   budget) or a fixed-QP CRF mode, plus the per-macroblock QP *offset map*
   that DiVE's differential encoding manipulates.
3. **Entropy-coding bit accounting** via an exp-Golomb-style cost model on
   the quantised coefficients — the frame sizes that the network simulator
   transmits.

Decoding reconstructs frames from the carried coefficients, so downstream
detector accuracy reflects true quantisation distortion.
"""

from repro.codec.motion import (
    ME_METHODS,
    MotionEstimate,
    estimate_motion,
    motion_compensate,
    nonzero_mv_ratio,
)
from repro.codec.transform import dequantize, qstep, quantize, transform_cost_bits
from repro.codec.encoder import EncodedFrame, EncoderConfig, RegionUpdate, VideoEncoder, encode_region_update
from repro.codec.decoder import VideoDecoder
from repro.codec.gop import BFrameEncodedFrame, GopStructure, encode_gop_sequence
from repro.codec.intra import intra_decode, intra_encode, intra_predict_block
from repro.codec.metrics import psnr, region_psnr, ssim

__all__ = [
    "BFrameEncodedFrame",
    "GopStructure",
    "ME_METHODS",
    "EncodedFrame",
    "EncoderConfig",
    "MotionEstimate",
    "RegionUpdate",
    "VideoDecoder",
    "VideoEncoder",
    "dequantize",
    "encode_gop_sequence",
    "encode_region_update",
    "estimate_motion",
    "intra_decode",
    "intra_encode",
    "intra_predict_block",
    "motion_compensate",
    "nonzero_mv_ratio",
    "psnr",
    "qstep",
    "region_psnr",
    "ssim",
    "quantize",
    "transform_cost_bits",
]
