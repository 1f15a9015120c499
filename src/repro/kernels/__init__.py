"""Pluggable backends for the repo's hot kernels, bit-exact by contract.

PR 5 vectorised the encoder hot loop as far as single-threaded NumPy goes;
this package adds the next multiplier: two fixed backends, so that a
compiled implementation of each hook in :data:`KERNEL_NAMES` (the list
says what each one does) can be swapped in behind the ``KernelBackend``
seam.

**Contract.**  A hook returns ``None`` for any input it will not take,
and the dispatch site in ``repro.*`` then answers with its ``_reference``
body — the same bytes, the same exceptions; a hook never calls a
reference itself.  ``cext`` must be *bit-identical* to the ``numpy``
reference: the suites carrying the ``kernels`` pytest marker (``pytest
-m kernels``: the per-hook oracle sweeps and the golden digests, frames,
I-frames, P-frames, MV fields, rotation estimates and foreground masks)
are parametrized over both backends, and a ``cext`` that cannot prove
itself (a failed self-probe, a missing compiler or source file) reports
unavailable and every dispatch runs its reference.

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
    Runtime-compiled C (via the system ``cc``/``gcc``), one C call per
    hook call; ``repro.kernels.cext`` argues, routine by routine, why each
    is bit-identical to its reference (NumPy's pairwise summation,
    scipy's pocketfft operation order, numpy's ``Generator.choice``
    draws), and a self-probe before first use verifies it on this host's
    object; the backend reports unavailable otherwise.  Re-entrant; the
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

#: The kernel hooks a backend may override (``None`` = reference path).  A
#: bound hook returns ``None`` for an input it will not take, and the
#: dispatch site answers with the reference.
KERNEL_NAMES = (
    "motion_compensate",  # MV-field prediction (bilinear taps)
    "pattern_search",  # the whole DIA / HEX / UMH motion search of one frame
    "render_surfaces",  # a frame's ground + billboards + sky: geometry, visibility, textures, per-object counts
    "transform",  # the 8x8 DCT / IDCT of block-major arrays (dct_blocks / idct_blocks)
    "intra_encode",  # a whole I-frame: DC/H/V mode decision, DCT, quantise, bits, reconstruct
    "intra_decode",  # a whole I-frame replayed from levels + modes
    "quantize_cost",  # quantise + per-macroblock bit cost in one pass (P-frames, flat I-frames)
    "rate_counter",  # QuantBitCounter's probe: total bits of one coefficient set at a base QP
    "reconstruct",  # dequantise + IDCT + clip, skipping all-zero 8x8 blocks (encoder and decoder)
    "inter_encode",  # a whole P-frame: MC, residual DCT, rate control's search, quantise, reconstruct
    "ransac_pairs",  # RANSAC's hypothesis loop over an (n, 2) system, drawing from the caller's generator
    "foreground_clusters",  # region growing, the merge fixpoint and the convex contours of one motion field
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
    render_surfaces: Callable | None = None
    transform: Callable | None = None
    intra_encode: Callable | None = None
    intra_decode: Callable | None = None
    quantize_cost: Callable | None = None
    rate_counter: Callable | None = None
    reconstruct: Callable | None = None
    inter_encode: Callable | None = None
    ransac_pairs: Callable | None = None
    foreground_clusters: Callable | None = None

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

    This is the per-call dispatch primitive of every site that dispatches a
    :data:`KERNEL_NAMES` hook (``out = None if impl is None else impl(...)``,
    then the reference when ``out is None``); once the default is resolved
    it is a single attribute lookup.
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
