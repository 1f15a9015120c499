"""Video decoder.

Reconstructs frames from the quantised levels, QP maps and motion vectors
carried by :class:`~repro.codec.encoder.EncodedFrame` — the encoder's own
reconstruction function (:func:`repro.codec.transform.reconstruct`), driven
from the decoder's own reference chain.
The edge server decodes received frames with this class; a mid-stream drop
of a reference frame therefore corrupts decoding exactly as it would in a
real codec (the server requests an intra refresh instead, handled at the
scheme level).
"""

from __future__ import annotations

import numpy as np

from repro.check.sanitize import NULL_SANITIZER, ArraySanitizer, NullSanitizer
from repro.codec.encoder import EncodedFrame, _INTRA_DC
from repro.codec.intra import intra_decode
from repro.codec.motion import motion_compensate
from repro.codec.transform import reconstruct

__all__ = ["VideoDecoder"]


class VideoDecoder:
    """Stateful decoder over an encoded frame sequence.

    ``sanitizer`` validates the received bitstream payload and every
    decoded frame (finite, float32, macroblock-aligned) — see
    :mod:`repro.check.sanitize`; the default no-op costs nothing.
    """

    def __init__(self, *, block: int = 16, sanitizer: ArraySanitizer | NullSanitizer = NULL_SANITIZER):
        self.block = block
        self.sanitizer = sanitizer
        self._reference: np.ndarray | None = None

    def reset(self) -> None:
        self._reference = None

    def decode(self, encoded: EncodedFrame) -> np.ndarray:
        """Decode one frame and update the reference chain.

        Raises
        ------
        ValueError
            If a P-frame arrives with no reference (a preceding frame was
            never decoded).
        """
        san = self.sanitizer
        if san.enabled:
            san.check(encoded.levels, "decoder/bitstream", name="quantised levels")
            san.check(encoded.qp_map, "decoder/bitstream", name="QP map", lo=0.0, hi=51.0)
        if encoded.frame_type == "I" and encoded.intra_modes is not None:
            frame = intra_decode(
                encoded.levels, encoded.intra_modes, encoded.qp_map, block=self.block
            ).astype(np.float32)
            if san.enabled:
                san.check(frame, "decoder/frame", name="decoded frame", dtype=np.float32, block_aligned=True)
            self._reference = frame
            return frame
        if encoded.frame_type == "I":
            rows8, _, cols8, _ = encoded.levels.shape
            prediction = np.full((rows8 * 8, cols8 * 8), _INTRA_DC, dtype=np.float32)
        else:
            if self._reference is None:
                raise ValueError("P-frame received with no reference frame decoded")
            if encoded.mv is None:
                raise ValueError("P-frame carries no motion field")
            prediction = motion_compensate(self._reference, encoded.mv, block=self.block)
        frame = reconstruct(prediction, encoded.levels, encoded.qp_map, mb_size=self.block)
        if san.enabled:
            san.check(frame, "decoder/frame", name="decoded frame", dtype=np.float32, block_aligned=True)
        self._reference = frame
        return frame
