"""Pluggable backends for the repo's hot kernels, bit-exact by contract.

PR 5 vectorised the encoder hot loop as far as single-threaded NumPy goes;
this package adds the next multiplier: two fixed backends, so that a
compiled implementation of the extracted kernels — the codec's
pattern search (DIA / HEX / UMH, a frame's whole search as one call),
motion compensation, the 8x8 DCT and its inverse (``transform``: scipy's
pocketfft arithmetic, replayed to its bytes), I-frames (``intra_encode`` /
``intra_decode``: a frame per call) and the P-frame transform tail
(``quantize_cost`` / ``rate_counter`` / ``reconstruct``: everything between
the forward DCT and the reconstruction, the IDCT included), the renderer's
surfaces (``render_surfaces``: a frame's ground, billboards and sky, and
each billboard's kept pixels, in two calls around numpy's ``arctan2``)
and the synthetic world's value noise — be swapped in behind the
``KernelBackend`` seam.

**Contract.**  ``cext`` must be *bit-identical* to the ``numpy``
reference: the kernel bit-exactness suites (``tests/test_codec_kernels.py``,
``tests/test_intra_kernels.py``, ``tests/test_transform_kernels.py``,
``tests/test_noise_kernel.py``, ``tests/test_render_kernel.py``) and the
golden e2e digest, frames, I-frames,
P-frames and MV fields are parametrized over both backends, and a
``cext`` that cannot prove itself (a failed self-probe, a missing compiler
or source file) reports unavailable and the dispatch falls through to the
reference implementation per kernel.

**Default.**  Nothing is chosen at import.  The first kernel dispatch (or
:func:`active`) resolves the default from what the host can prove:
``cext`` when it compiles and passes its bitwise self-probe, otherwise the
``numpy`` reference — ``kernels.backend("cext").why_unavailable()`` then
says why.  ``"auto"`` names that choice in :func:`activate` /
:func:`use_backend`; an explicit name forces that backend or raises.

Backends
--------
:data:`BACKENDS` names the two — one reference, one compiled
implementation — and every hook in :data:`KERNEL_NAMES` is bound by the
second.  Each is built once, on first use.

``numpy``
    The reference, a plain :class:`KernelBackend`: all kernel hooks are
    ``None`` so the dispatching modules run
    their own (already vectorised) implementations.  Always available;
    the fallback default, and what the tests compare every backend to.
``cext``
    Runtime-compiled C (via the system ``cc``/``gcc``) for the whole
    DIA/HEX/UMH search — one call per frame, every SAD through a per-block
    memo — and motion compensation, for the 8x8 DCT / IDCT (pocketfft's
    DCT-II / DCT-III, operation for operation, so the bytes are scipy's;
    non-finite outputs are declined to scipy), for whole I-frames
    (``intra_encode`` / ``intra_decode``: prediction, mode decision,
    transforms, quantiser and clip in one call), for the P-frame's
    transform tail (``quantize_cost``, ``QuantBitCounter``'s probe, and a
    ``reconstruct`` that dequantises, inverse-transforms and clips only the
    coded 8x8 blocks), for the renderer's surfaces (geometry,
    painter's-order visibility, one texture per visible pixel, the sky, each
    billboard's kept-pixel count and bounding box) and for value noise.
    The sky's azimuth alone stays NumPy on every backend, taken between the
    kernel's two calls: ``np.arctan2`` is numpy's own SIMD code on AVX-512
    hosts and differs from libm's ``atan2`` in the last bit, so no C
    replica could match it everywhere.  Billboards are compiled only
    where the proof holds — a face whose normal and u axis each have one
    non-zero component, so that the reference's BLAS dot products are one
    product each in any summation order (every preset object faces
    ``(1, 0)`` or ``(0, 1)``); any other face is declined to the reference.
    The C code replicates NumPy's pairwise summation, the lattice hash's
    uint64 wrap-around and the exact IEEE operation order of the
    reference; a self-probe before first use verifies bitwise agreement
    and the backend reports unavailable otherwise.  Re-entrant; the
    default when available.

Thread-safety
-------------
Backends are process-global (one active backend per process, like the
tracer).  The default is resolved under a lock, so worker threads racing
the first dispatch build and probe once; ``numpy`` and ``cext`` kernels
may then be called from any number of threads.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "AUTO",
    "BACKENDS",
    "KERNEL_NAMES",
    "KernelBackend",
    "activate",
    "active",
    "backend",
    "override",
    "use_backend",
]

#: Backend name meaning "whatever the default resolves to on this host".
AUTO = "auto"

#: The two backends: the reference, then the compiled implementation.
BACKENDS = ("numpy", "cext")

#: The kernel hooks a backend may override (``None`` = reference path).
KERNEL_NAMES = (
    "motion_compensate",  # MV-field prediction (bilinear taps)
    "pattern_search",  # the whole DIA / HEX / UMH motion search of one frame
    "value_noise",  # fractal 2-D value noise (repro.utils.noise: the textures' wherever render_surfaces declines)
    "render_surfaces",  # a frame's ground + billboards + sky: geometry, visibility, textures, per-object counts
    "transform",  # the 8x8 DCT / IDCT of block-major arrays (dct_blocks / idct_blocks)
    "intra_encode",  # a whole I-frame: DC/H/V mode decision, DCT, quantise, bits, reconstruct
    "intra_decode",  # a whole I-frame replayed from levels + modes
    "quantize_cost",  # quantise + per-macroblock bit cost in one pass (P-frames, flat I-frames)
    "rate_counter",  # QuantBitCounter's probe: total bits of one coefficient set at a base QP
    "reconstruct",  # dequantise + IDCT + clip, skipping all-zero 8x8 blocks (encoder and decoder)
)


class KernelBackend:
    """One kernel backend; as it stands, the ``numpy`` reference.

    Every :data:`KERNEL_NAMES` hook is ``None`` here, so each dispatch site
    runs its own reference body.  ``cext`` subclasses it and binds every
    hook once its self-probe has passed.  ``available()`` must be cheap
    after the first call.
    """

    name: str = "numpy"

    # Kernel hooks — reference fallback when None.
    motion_compensate: Callable | None = None
    pattern_search: Callable | None = None
    value_noise: Callable | None = None
    render_surfaces: Callable | None = None
    transform: Callable | None = None
    intra_encode: Callable | None = None
    intra_decode: Callable | None = None
    quantize_cost: Callable | None = None
    rate_counter: Callable | None = None
    reconstruct: Callable | None = None

    def available(self) -> bool:
        """Whether this backend can run (deps present, self-probe passed)."""
        return True

    def why_unavailable(self) -> str | None:
        """Human-readable reason when :meth:`available` is False."""
        return None


_instances: dict[str, KernelBackend] = {}
_lock = threading.Lock()


def backend(name: str) -> KernelBackend:
    """The (cached) backend instance for ``name``, one of :data:`BACKENDS`."""
    if name not in BACKENDS:
        raise ValueError(f"unknown kernel backend {name!r}; choose {AUTO!r} or one of {BACKENDS}")
    with _lock:
        inst = _instances.get(name)
        if inst is None:
            from repro.kernels.cext import CExtBackend

            inst = _instances[name] = CExtBackend() if name == "cext" else KernelBackend()
    return inst


#: The active backend; ``None`` until the first dispatch resolves the default.
_active: KernelBackend | None = None


def _default_backend() -> KernelBackend:
    """``cext`` when it builds and proves itself on this host, else ``numpy``."""
    cext = backend("cext")
    return cext if cext.available() else backend("numpy")


def _resolve() -> KernelBackend:
    """Settle the default once, however many threads dispatch first.

    The build + probe is serialised inside the backend, so racing threads
    wait for one result; an explicit :func:`activate` that got in first
    keeps its choice.
    """
    global _active
    inst = _default_backend()
    with _lock:
        if _active is None:
            _active = inst
        return _active


def active() -> KernelBackend:
    """The currently active backend (resolving the default on first use)."""
    inst = _active
    return inst if inst is not None else _resolve()


def override(kernel: str) -> Callable | None:
    """The active backend's hook for ``kernel``, or ``None`` (reference).

    This is the per-call dispatch primitive the codec modules
    (``motion``, ``transform``, ``intra``), the renderer and
    ``repro.utils.noise`` use; once the default is resolved it is a single
    attribute lookup.
    """
    inst = _active
    if inst is None:
        inst = _resolve()
    return getattr(inst, kernel)


def activate(name: str) -> KernelBackend:
    """Make ``name`` the process-wide active backend.

    ``"auto"`` picks the host's default (see the module docstring) and
    never raises; any other name forces that backend or raises with its
    reason.
    """
    global _active
    if name == AUTO:
        inst = _default_backend()
    else:
        inst = backend(name)
        if not inst.available():
            reason = inst.why_unavailable() or "unavailable on this host"
            raise RuntimeError(f"kernel backend {name!r} is unavailable: {reason}")
    _active = inst
    return inst


@contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    """Context manager: activate ``name``, restore the previous backend after."""
    global _active
    prev = _active
    inst = activate(name)
    try:
        yield inst
    finally:
        _active = prev
