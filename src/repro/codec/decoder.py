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

from repro.codec.encoder import _INTRA_DC, _MAX_QP, EncodedFrame
from repro.codec.intra import intra_decode
from repro.codec.motion import motion_compensate
from repro.codec.transform import reconstruct

__all__ = ["VideoDecoder"]


class VideoDecoder:
    """Stateful decoder over an encoded frame sequence."""

    def __init__(self, *, block: int = 16):
        self.block = block
        self._reference: np.ndarray | None = None

    def reset(self) -> None:
        self._reference = None

    def decode(self, encoded: EncodedFrame) -> np.ndarray:
        """Decode one frame and update the reference chain.

        Raises
        ------
        ValueError
            Naming the field, for a frame corrupted in transit: a QP map
            holding a value outside [0, 51] or a NaN, levels holding a NaN or
            inf, a P-frame's motion field off the macroblock grid or holding
            a NaN / inf vector; or a P-frame that arrives with no reference
            (a preceding frame was never decoded).
        """
        qp_map = encoded.qp_map
        if not ((qp_map >= 0) & (qp_map <= _MAX_QP)).all():
            raise ValueError(f"qp_map holds a value outside [0, {_MAX_QP}] or a NaN")
        if not np.isfinite(encoded.levels).all():
            raise ValueError("levels hold a NaN or infinite value")
        if encoded.frame_type == "I" and encoded.intra_modes is not None:
            frame = intra_decode(encoded.levels, encoded.intra_modes, qp_map, block=self.block).astype(np.float32)
            self._reference = frame
            return frame
        if encoded.frame_type == "I":
            rows8, _, cols8, _ = encoded.levels.shape
            prediction = np.full((rows8 * 8, cols8 * 8), _INTRA_DC, dtype=np.float32)
        else:
            if self._reference is None:
                raise ValueError("P-frame received with no reference frame decoded")
            mv = encoded.mv
            if mv is None:
                raise ValueError("P-frame carries no motion field")
            grid = (self._reference.shape[0] // self.block, self._reference.shape[1] // self.block)
            if mv.shape != (*grid, 2):
                raise ValueError(f"motion field shape {mv.shape} != macroblock grid {grid} x 2")
            if not np.isfinite(mv).all():
                raise ValueError("motion field holds a NaN or infinite vector")
            prediction = motion_compensate(self._reference, mv, block=self.block)
        frame = reconstruct(prediction, encoded.levels, qp_map, mb_size=self.block)
        self._reference = frame
        return frame
