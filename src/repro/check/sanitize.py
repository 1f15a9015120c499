"""Runtime numpy-array sanitizer — the ASan analog for the frame pipeline.

Static rules (:mod:`repro.check.rules`) catch invariant violations that are
visible in the source; this module catches the ones that only exist at run
time: a NaN that leaks out of a division, a float64 frame sneaking into a
float32 chain, a crop that breaks macroblock alignment.  Each check names
the pipeline stage that produced the bad array, so a failure reads like::

    SanitizeError: [encoder/input] frame: 3 non-finite values (first at (12, 40))

Opt in per run with ``run_scheme(sanitizer=ArraySanitizer())`` (threaded
through scheme and server exactly like the tracer; ``repro demo
--sanitize`` does this), or construct an :class:`ArraySanitizer` and pass
it to the agent, encoder, decoder or edge server directly.  The default
:data:`NULL_SANITIZER` mirrors :data:`repro.obs.tracer.NULL_TRACER`: every
probe is behind an ``if sanitizer.enabled:`` guard, so the sanitize-off hot
path pays one attribute lookup and nothing else.

The sanitizer only *asserts* — it never copies, casts or otherwise mutates
an array — so a seeded run produces bit-identical results with the
sanitizer on or off (the golden e2e digest test relies on this).
"""

from __future__ import annotations

import numpy as np

__all__ = ["NULL_SANITIZER", "ArraySanitizer", "NullSanitizer", "SanitizeError"]


class SanitizeError(ValueError):
    """An array violated a pipeline invariant at a named stage."""

    def __init__(self, stage: str, name: str, problem: str):
        self.stage = stage
        self.name = name
        self.problem = problem
        super().__init__(f"[{stage}] {name}: {problem}")


class ArraySanitizer:
    """Asserts finiteness, dtype and macroblock alignment at stage boundaries.

    Parameters
    ----------
    block:
        Macroblock size used for alignment checks (``block_aligned=True``).

    Attributes
    ----------
    checks:
        Number of arrays checked so far (a cheap way for tests and traced
        runs to confirm the sanitizer actually ran).
    """

    enabled = True

    def __init__(self, *, block: int = 16):
        self.block = int(block)
        self.checks = 0

    def check(
        self,
        array: np.ndarray,
        stage: str,
        *,
        name: str = "array",
        dtype: np.dtype | type | None = None,
        block_aligned: bool = False,
        lo: float | None = None,
        hi: float | None = None,
    ) -> np.ndarray:
        """Validate ``array`` and return it unchanged.

        Parameters
        ----------
        array:
            The array to validate (must already be an ``ndarray`` — the
            sanitizer never converts).
        stage:
            Pipeline stage label, e.g. ``"encoder/input"`` — named in the
            error so the offending boundary is immediately identifiable.
        name:
            What the array is (``"frame"``, ``"motion vectors"`` ...).
        dtype:
            Expected exact dtype, when given.
        block_aligned:
            Require the trailing two dimensions to be multiples of
            :attr:`block`.
        lo, hi:
            Inclusive value bounds, when given (e.g. QP maps in [0, 51]).

        Raises
        ------
        SanitizeError
            On the first violated invariant.
        """
        self.checks += 1
        if not isinstance(array, np.ndarray):
            raise SanitizeError(stage, name, f"expected ndarray, got {type(array).__name__}")
        if dtype is not None and array.dtype != np.dtype(dtype):
            raise SanitizeError(stage, name, f"dtype {array.dtype} != expected {np.dtype(dtype)}")
        if block_aligned:
            if array.ndim < 2:
                raise SanitizeError(stage, name, f"expected >= 2 dims for alignment check, got shape {array.shape}")
            h, w = array.shape[0], array.shape[1]
            if h % self.block or w % self.block:
                raise SanitizeError(
                    stage, name, f"shape {array.shape} not macroblock-aligned (block={self.block})"
                )
        if array.dtype.kind == "f":
            finite = np.isfinite(array)
            if not finite.all():
                bad = int(array.size - int(finite.sum()))
                first = tuple(int(i) for i in np.unravel_index(int(np.argmin(finite)), array.shape))
                raise SanitizeError(
                    stage, name, f"{bad} non-finite value{'s' if bad != 1 else ''} (first at {first})"
                )
        if lo is not None and array.size and float(array.min()) < lo:
            raise SanitizeError(stage, name, f"min {float(array.min()):g} below lower bound {lo:g}")
        if hi is not None and array.size and float(array.max()) > hi:
            raise SanitizeError(stage, name, f"max {float(array.max()):g} above upper bound {hi:g}")
        return array


class NullSanitizer:
    """Zero-overhead sanitizer used by default everywhere (cf. NullTracer)."""

    enabled = False
    checks = 0

    __slots__ = ()

    def check(self, array: np.ndarray, stage: str, **kwargs: object) -> np.ndarray:
        return array


#: The shared no-op sanitizer — the default for every instrumented component.
NULL_SANITIZER = NullSanitizer()
