"""Pluggable backends for the repo's hot kernels, bit-exact by contract.

PR 5 vectorised the encoder hot loop as far as single-threaded NumPy goes;
this package adds the next multiplier: a small registry that lets
accelerated implementations of the extracted kernels — the codec's
exhaustive/TESA block search, pattern-search sweeps, per-block SADs, motion
compensation, DCT/quantiser trio and I-frame wavefront (``intra_encode`` /
``intra_decode``), and the synthetic world's value noise (every texture the
renderer samples) — be swapped in behind the ``KernelBackend`` seam.

**Contract.**  Every backend must be *bit-identical* to the ``numpy``
reference: the kernel bit-exactness suites (``tests/test_codec_kernels.py``,
``tests/test_intra_kernels.py``, ``tests/test_noise_kernel.py``) and the
golden e2e digest are parametrized over every registered backend,
and backends that cannot prove themselves (a failed self-probe, a missing
compiler, an absent optional dependency) report unavailable and the
dispatch falls through to the reference implementation per kernel.

**Default.**  Nothing is chosen at import.  The first kernel dispatch (or
:func:`active`) resolves the default from what the host can prove:
``cext`` when it compiles and passes its bitwise self-probe, otherwise the
``numpy`` reference — ``kernels.backend("cext").why_unavailable()`` then
says why.  ``"auto"`` names that choice in :func:`activate` /
:func:`use_backend`; an explicit name forces that backend or raises.
``sharded`` and ``numba`` are never picked automatically.

Backends
--------
``numpy``
    The reference: all kernel hooks are ``None`` so the dispatching modules run
    their own (already vectorised) implementations.  Always available;
    the fallback default, and what the tests compare every backend to.
``sharded``
    A persistent ``multiprocessing`` fork-pool sharding macroblock *rows*
    across workers, with shared-memory frame buffers.  Row bands are
    computed with the very same reference code (``row0``/``row_count``
    banding) and merged in row order, so results are bit-identical to the
    reference for any worker count.
``cext``
    Runtime-compiled C (via the system ``cc``/``gcc``) for the per-block
    SADs, the sequential pattern-search sweeps and motion compensation —
    the whole DIA/HEX/UMH search — for the I-frame wavefront (everything
    of ``intra_encode`` / ``intra_decode`` but the scipy transforms, which
    stay the reference's own calls) and for the renderer's value noise.
    The C code replicates NumPy's pairwise summation, the lattice hash's
    uint64 wrap-around and the exact IEEE operation order of the
    reference; a self-probe before first use verifies bitwise agreement
    and the backend reports unavailable otherwise.  Re-entrant; the
    default when available.
``numba``
    Optional, import-guarded JIT versions of the same sweeps; warmed at
    activation and self-probed like ``cext``.

Thread-safety / pool ownership
------------------------------
Backends are process-global (one active backend per process, like the
tracer).  The default is resolved under a lock, so worker threads racing
the first dispatch build and probe once; ``numpy`` and ``cext`` kernels
may then be called from any number of threads.  The ``sharded`` pool must
be created by the thread that calls :func:`activate` **before** the
``repro.stream``/``repro.fleet`` worker threads start, and every pooled
kernel call is serialised through the backend's own lock — see
``sharded.py`` for the S012 lock-discipline annotations.
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
    "exhaustive_search",  # full-frame ESA/TESA block search
    "motion_compensate",  # MV-field prediction (bilinear taps)
    "dct_blocks",  # 8x8 forward DCT over a plane
    "quantize",  # per-macroblock-QP quantiser
    "dequantize",  # inverse quantiser
    "descend_sweep",  # pattern-search descent (DIA/HEX cores)
    "seed_sweep",  # coarse absolute-grid seeding (HEX/UMH)
    "offset_sweep",  # relative clipped offset pass (UMH cross/hexagon)
    "block_sad",  # per-block SAD at per-block integer displacements
    "value_noise",  # fractal 2-D value noise (repro.utils.noise, the renderer's textures)
    "intra_encode",  # I-frame wavefront: DC/H/V mode decision, quantise, bits, reconstruct
    "intra_decode",  # I-frame wavefront replay from levels + modes
)


class KernelBackend:
    """Base class / protocol for one kernel backend.

    Subclasses set :attr:`name` and assign callables to any subset of the
    :data:`KERNEL_NAMES` hooks; hooks left ``None`` fall through to the
    reference implementation at the dispatch site.  ``available()`` must
    be cheap after the first call; ``warm()`` runs once at activation and
    may compile / fork / JIT.
    """

    name: str = "base"

    # Kernel hooks — reference fallback when None.
    exhaustive_search: Callable | None = None
    motion_compensate: Callable | None = None
    dct_blocks: Callable | None = None
    quantize: Callable | None = None
    dequantize: Callable | None = None
    descend_sweep: Callable | None = None
    seed_sweep: Callable | None = None
    offset_sweep: Callable | None = None
    block_sad: Callable | None = None
    value_noise: Callable | None = None
    intra_encode: Callable | None = None
    intra_decode: Callable | None = None

    def available(self) -> bool:
        """Whether this backend can run (deps present, self-probe passed)."""
        return True

    def why_unavailable(self) -> str | None:
        """Human-readable reason when :meth:`available` is False."""
        return None

    def warm(self) -> None:
        """One-time activation work (compile, fork pool, JIT-warm)."""

    def configure(self, *, workers: int | None = None) -> None:
        """Apply runtime knobs (worker count); default backends ignore them."""

    def close(self) -> None:
        """Release pools/arenas; the backend may be re-warmed later."""


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
    (``motion``, ``transform``, ``intra``) and ``repro.utils.noise`` use; once the default is resolved it is a single
    attribute lookup.
    """
    inst = _active
    if inst is None:
        inst = _resolve()
    return getattr(inst, kernel)


def activate(name: str, *, workers: int | None = None) -> KernelBackend:
    """Make ``name`` the process-wide active backend (warming it first).

    ``"auto"`` picks the host's default (see the module docstring) and
    never raises; any other name forces that backend or raises with its
    reason.  Pooled backends must be activated from the main/driver thread
    before any ``repro.stream``/``repro.fleet`` worker threads start —
    they fork their workers here (pool-ownership rule).
    """
    global _active
    if name == AUTO:
        inst = _default_backend()
    else:
        inst = backend(name)
        inst.configure(workers=workers)
        if not inst.available():
            reason = inst.why_unavailable() or "unavailable on this host"
            raise RuntimeError(f"kernel backend {name!r} is unavailable: {reason}")
        inst.warm()
    _active = inst
    return inst


@contextmanager
def use_backend(name: str, *, workers: int | None = None) -> Iterator[KernelBackend]:
    """Context manager: activate ``name``, restore the previous backend after."""
    global _active
    prev = _active
    inst = activate(name, workers=workers)
    try:
        yield inst
    finally:
        _active = prev


def _register_builtin() -> None:
    register_backend("numpy", _NumpyReference)
    from repro.kernels.cext import CExtBackend
    from repro.kernels.numba_backend import NumbaBackend
    from repro.kernels.sharded import ShardedBackend

    register_backend("sharded", ShardedBackend)
    register_backend("cext", CExtBackend)
    register_backend("numba", NumbaBackend)


_register_builtin()
