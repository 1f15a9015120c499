"""Pluggable backends for the repo's hot kernels, bit-exact by contract.

PR 5 vectorised the encoder hot loop as far as single-threaded NumPy goes;
this package adds the next multiplier: a small registry that lets a
compiled implementation of the extracted kernels — the codec's
pattern search (DIA / HEX / UMH, a frame's whole search as one call),
motion compensation, I-frame wavefront (``intra_encode`` /
``intra_decode``) and P-frame transform tail
(``quantize_cost`` / ``rate_counter`` / ``reconstruct``: everything between
the forward DCT and the reconstruction but the scipy IDCT), the renderer's
ground and billboards (``render_surfaces``: a frame's surfaces as one call)
and the synthetic world's value noise — be swapped in behind the
``KernelBackend`` seam.

**Contract.**  Every backend must be *bit-identical* to the ``numpy``
reference: the kernel bit-exactness suites (``tests/test_codec_kernels.py``,
``tests/test_intra_kernels.py``, ``tests/test_transform_kernels.py``,
``tests/test_noise_kernel.py``, ``tests/test_render_kernel.py``) and the
golden e2e digest, frames, I-frames,
P-frames and MV fields are parametrized over every registered backend,
and a backend that cannot prove itself (a failed self-probe, a missing
compiler) reports unavailable and the dispatch falls through to the
reference implementation per kernel.

**Default.**  Nothing is chosen at import.  The first kernel dispatch (or
:func:`active`) resolves the default from what the host can prove:
``cext`` when it compiles and passes its bitwise self-probe, otherwise the
``numpy`` reference — ``kernels.backend("cext").why_unavailable()`` then
says why.  ``"auto"`` names that choice in :func:`activate` /
:func:`use_backend`; an explicit name forces that backend or raises.

Backends
--------
Two are registered — one reference, one compiled implementation — and every
hook in :data:`KERNEL_NAMES` is bound by the second.

``numpy``
    The reference: all kernel hooks are ``None`` so the dispatching modules run
    their own (already vectorised) implementations.  Always available;
    the fallback default, and what the tests compare every backend to.
``cext``
    Runtime-compiled C (via the system ``cc``/``gcc``) for the whole
    DIA/HEX/UMH search — one call per frame, every SAD through a per-block
    memo — and motion compensation, for the I-frame wavefront (everything
    of ``intra_encode`` / ``intra_decode`` but the scipy transforms, which
    stay the reference's own calls), for the P-frame's transform tail
    (``quantize_cost``, ``QuantBitCounter``'s probe, and a ``reconstruct``
    that hands only the coded 8x8 blocks to that same scipy IDCT), for the
    renderer's ground and billboards (geometry, painter's-order visibility
    and one texture per visible pixel) and for value noise.  The renderer's
    sky stays NumPy on every backend: ``np.arctan2`` is numpy's own SIMD
    code on AVX-512 hosts and differs from libm's ``atan2`` in the last bit,
    so no C replica could match it everywhere.  Billboards are compiled only
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
    "KERNEL_NAMES",
    "KernelBackend",
    "activate",
    "active",
    "available_backends",
    "backend",
    "override",
    "register_backend",
    "registered_backends",
    "use_backend",
]

#: Backend name meaning "whatever the default resolves to on this host".
AUTO = "auto"

#: The kernel hooks a backend may override (``None`` = reference path).
KERNEL_NAMES = (
    "motion_compensate",  # MV-field prediction (bilinear taps)
    "pattern_search",  # the whole DIA / HEX / UMH motion search of one frame
    "value_noise",  # fractal 2-D value noise (repro.utils.noise: the sky's, and any other caller's)
    "render_surfaces",  # a frame's ground + billboards: geometry, painter's-order visibility, textures
    "intra_encode",  # I-frame wavefront: DC/H/V mode decision, quantise, bits, reconstruct
    "intra_decode",  # I-frame wavefront replay from levels + modes
    "quantize_cost",  # quantise + per-macroblock bit cost in one pass (P-frames, flat I-frames)
    "rate_counter",  # QuantBitCounter's probe: total bits of one coefficient set at a base QP
    "reconstruct",  # dequantise + IDCT + clip, skipping all-zero 8x8 blocks (encoder and decoder)
)


class KernelBackend:
    """Base class / protocol for one kernel backend.

    Subclasses set :attr:`name` and assign callables to any subset of the
    :data:`KERNEL_NAMES` hooks; hooks left ``None`` fall through to the
    reference implementation at the dispatch site.  ``available()`` must
    be cheap after the first call.
    """

    name: str = "base"

    # Kernel hooks — reference fallback when None.
    motion_compensate: Callable | None = None
    pattern_search: Callable | None = None
    value_noise: Callable | None = None
    render_surfaces: Callable | None = None
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


_REGISTRY: dict[str, Callable[[], KernelBackend]] = {}
_ORDER: list[str] = []
_instances: dict[str, KernelBackend] = {}
_lock = threading.Lock()


def register_backend(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register a backend factory under ``name`` (first registration wins)."""
    with _lock:
        if name not in _REGISTRY:
            _REGISTRY[name] = factory
            _ORDER.append(name)


def registered_backends() -> tuple[str, ...]:
    """All registered backend names, in registration order."""
    return tuple(_ORDER)


def backend(name: str) -> KernelBackend:
    """The (cached) backend instance for ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; choose {AUTO!r} or one of {tuple(_ORDER)}"
        ) from None
    with _lock:
        inst = _instances.get(name)
        if inst is None:
            inst = _instances[name] = factory()
    return inst


def available_backends() -> tuple[str, ...]:
    """Names of the backends that can actually run on this host."""
    return tuple(n for n in _ORDER if backend(n).available())


class _NumpyReference(KernelBackend):
    """The reference backend: every hook ``None`` → callers run their own code."""

    name = "numpy"


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


def _register_builtin() -> None:
    register_backend("numpy", _NumpyReference)
    from repro.kernels.cext import CExtBackend

    register_backend("cext", CExtBackend)


_register_builtin()
