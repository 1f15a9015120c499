"""Runtime-compiled C backend: the pattern search, MC, value noise, the
renderer's surfaces, the 8x8 DCT, I-frames and the P-frame's transform tail.

The C is ``cext.c`` beside this module (shipped as package data), compiled
as it stands on disk; this docstring argues why each of its routines is
bit-identical to the NumPy reference it replaces, and the Python below
wraps, checks and probes them.

The pattern searches (DIA/HEX/UMH) are *sequentially* dependent per block:
each candidate offset is evaluated against the block's current best, which
the previous offset may just have updated.  NumPy can only batch across
blocks per offset — hundreds of small fancy-indexed gathers per frame —
while C walks each block's whole descent in one cache-resident loop.  The
whole search is one call (``pattern_search``): padding the reference and
cutting the current frame into blocks, the zero-predictor pass with
HEX/UMH's seed grid, both median-predictor passes, the final SAD and the
parabolic sub-pel vertex, pass-major as the reference is — blocks are
independent inside a pass, the predictors need the pass before complete.
Every SAD goes through a per-call, per-block memo keyed by ``(dx, dy)``:
the passes re-verify one converged neighbourhood under a new predictor
(about half of a frame's evaluations repeat a displacement, all of the
sub-pel fit's do), only the MV-bit term differs, and a hit returns the very
double the reference computes again.  What the call cannot prove it
declines — frames that are not C-contiguous float32 of one shape in whole
blocks, a search range whose ``(2R+1)^2`` displacements do not fit the
memo's 16-bit key, a NaN or infinite pixel, scratch it could not allocate —
and ``_pattern_search_reference`` answers.

Bit-exactness is engineered, then verified.  The source is compiled for the
host's own vector unit (``-march=native``: SSE2 pairs on a baseline x86-64,
four or eight doubles a register under AVX2 / AVX-512), and no width changes
a bit: every vectorised loop is element-wise — vector add, sub, mul, div,
abs, compare and float32 -> float64 give each lane exactly what the
scalar instruction would — no reduction is re-bracketed across lanes (GCC never
reassociates FP without ``-ffast-math``; the pairwise sums below name their
eight lanes), ``-ffp-contract=off`` keeps FMA out although the host has it,
and the libm calls are the same calls.  The object differs per CPU, so the
self-probe at the end of this list runs in every process, on the object
that process loaded.

- SAD reductions replicate NumPy's pairwise summation exactly (8-way
  unrolled 128-element blocks, recursive halving above; the same algorithm
  ``ndarray.sum`` applies to each contiguous 256-element block row).
- MV bit costs use integer bit-length (``63 - clzll``) — exactly
  ``floor(log2(2|v| + 1))`` for the small odd integers involved.
- Motion compensation orders every multiply/add exactly as the reference's
  vectorised expression — as the sub-pel vertex does — and the source is
  compiled with ``-ffp-contract=off`` so no FMA contraction can change a
  rounding.  Both pad the float32 reference to float64 in C (widening is
  exact, so it is ``np.pad(..., mode="edge")`` of the widened plane).
- Value noise is a per-array pipeline in NumPy — four lattice hashes per
  octave, each a dozen full-size temporaries; C keeps a point's octaves in
  registers and reuses a lattice cell's four hashes for the next point in
  the same cell (they are a pure function of the cell and the seed).  The
  hash is uint64 wrap-around arithmetic (exact), the blend keeps the
  reference's operation order, and a call holding a coordinate int64 cannot
  represent (NaN, inf, ``|u| >= 2^63`` — an undefined cast in C) is
  answered by the reference.
- The renderer's surfaces (``render_surfaces``) are two calls per frame
  over the world ray directions NumPy formed and the placed objects'
  per-scene table.  The first resolves the ground's ids and every placed
  object's mask far to near (ids and painted counts), then textures only
  the pixels that kept their surface, through the value-noise routine
  above, counting each object's kept pixels and their bounding box as it
  goes, and gathers the sky pixels' x and z directions; the second shades
  the sky — norm, elevation, one octave of cloud noise, clip — from
  ``np.arctan2`` of those two contiguous arrays, taken in NumPy between the
  calls.  That azimuth is the reference's own call on the same values:
  numpy computes ``arctan2`` with its own SIMD code on AVX-512 hosts, not
  bit-identical to libm's ``atan2``.  Each per-pixel step is elementwise
  IEEE arithmetic in the reference's order, written straight to the
  float32 image (``(float)`` of a double is ``astype``'s rounding);
  ``np.mod`` is numpy's ``npy_divmod`` remainder, exact without ``fmod``
  for the shaders' divisors 2, 2.5 and 6 below ``2^51`` (argued at
  ``np_mod`` in ``cext.c``), and ``np.clip`` is its two compares.  The
  reference forms a face's ``d . normal``, ``(point - origin) . normal``
  and ``(p - point) . u_dir`` with ``@`` — BLAS dot products whose
  summation order and FMA use C cannot reproduce — so the kernel takes
  only faces whose normal and u axis each have one non-zero component:
  every other product is then an exact +-0 (or a NaN / inf the reference
  meets too) and the sum is the one product in any order, but for the sign
  of an all-zero sum, which reaches only a non-finite or zero ``tt`` (the
  mask drops both) or a texture coordinate ``+-0 + half width``.  Every
  object the presets build faces ``(1, 0)`` or ``(0, 1)``; any other face,
  directions that are not C-contiguous float64, a window outside the
  frame, an id the int32 id-buffer cannot hold or that repeats, or a noise
  coordinate past int64 is declined to ``_render_surfaces_reference``.
- The 8x8 DCT (``transform``, behind ``dct_blocks`` / ``idct_blocks``)
  is scipy's own arithmetic.  ``dctn`` / ``idctn(axes=(1, 3),
  norm="ortho")`` runs pocketfft's 8-point DCT-II / DCT-III along axis 1
  with the 2-D scale 1/16 folded into that first pass, then along axis 3,
  in float32 for float32 input and float64 for float64; each 8-point line
  is one real FFT (radix 4, then 2) between a fixed pre- and post-rotation,
  with twiddles pocketfft computes once, in higher precision, and rounds
  to the input's type.  ``cext.c`` writes that sequence of IEEE adds,
  subtracts and multiplies out operation for operation, with those
  twiddles as literals (``wr`` and ``wi`` of the length-8 rotation are
  one ulp apart in double, and the probe tells them apart).  Each
  operation is correctly rounded in the input's own type and nothing is
  contracted or reassociated, so every finite output is scipy's to the
  bit, signed zeros and subnormals included.  What the order does not pin
  is a NaN's payload: the hook declines any block whose output is not
  finite (an inf or NaN input always reaches one, as does an overflow
  inside the sums), and so do other dtypes and shapes; scipy answers.
  Lines are independent, so a block's transform is the same whichever
  blocks are beside it — which is what lets the loops below transform one
  block at a time.
- I-frames (``intra_encode`` / ``intra_decode``) are one call per frame:
  macroblocks in raster order, which meets the same left / top
  dependencies as the reference's anti-diagonal wavefront, each block's
  predictions, SAD mode decision, residual, DCT, quantise + bit cost,
  dequantise, inverse DCT and clip.  The DC mean and the SADs are the
  pairwise sums above, ``rint`` is ``np.round``, a level's
  ``floor(log2)`` is its integer bit length, bit totals are sums of
  multiples of 0.25 (order-free), and a call that meets a non-finite
  transform or a level the bit length cannot be proven on (NaN, inf,
  ``>= 2^32``) is answered by the reference, as is any argument the C
  loops could not index safely.
- The P-frame's transform tail is that same quantiser run frame-shaped
  over float32 coefficients (``quantize_cost``), a rate-control probe that
  divides only the magnitudes that can still reach a non-zero level
  (``rate_counter``: one compacting pass, no sort), and a reconstruction
  that dequantises, inverse-transforms and clips in one call, transforming
  only the 8x8 blocks that carry a level (``reconstruct``).  ``np.round``
  is the add-and-subtract-1.5*2^52 idiom (exact below 2^51, no libm call);
  a skipped block's pixel is the clipped prediction because its dense
  residual is all +-0.0 — unless the prediction pixel is ``-0.0`` or a
  NaN, or a step is infinite, and then the reference answers.
- Before the first use in a process a self-probe walks
  :func:`_probe_table` — one row per hook, plus the pairwise sum everything
  above rests on — and runs every C kernel of the object just loaded, built
  for this CPU, against its reference on adversarial random inputs; any
  mismatch marks the backend unavailable, and ``auto`` resolves to the
  ``numpy`` reference.

Every kernel call is re-entrant: the C code keeps no state between calls
and its scratch (the search's padded reference, blocks and memo, a
macroblock's predictions, |differences| and residual, a rate counter's
candidate list, the noise's lattice cells) is allocated per call or per
counter,
so concurrent encodes (``agent_workers > 1`` — ctypes drops the GIL
around each call) cannot see each other's data.

The shared object is compiled once per source, flag list and host CPU
(:func:`_stem`) with the system ``cc``/``gcc``/``clang`` — without
``-march=native`` when the compiler rejects it — into a private per-user
cache directory
(``$XDG_CACHE_HOME/repro/kernels``, default ``~/.cache/repro/kernels``;
the temp dir is the fallback when the home is read-only).  A directory
that is not owned by this user with mode 0700 is never loaded from, and
the object is written under a unique name and moved into place
atomically, named after its own content hash, so concurrent first runs
cannot load a half-written file and a truncated one is rebuilt.
Hosts without a C compiler, or without the source file, report the
backend unavailable, with the reason in :meth:`CExtBackend.why_unavailable`.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import os
import platform
import stat
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro.kernels import KERNEL_NAMES, KernelBackend, use_backend
from repro.utils.noise import _noise_terms

__all__ = ["CExtBackend"]

#: The C source, compiled as it stands on disk.
_SOURCE = Path(__file__).with_name("cext.c")

#: Compile flags.  -march=native builds the whole compilation unit for the
#: CPU it runs on (the SAD leaf's eight lanes in one AVX-512 or two AVX2
#: registers, not four SSE2 pairs): :func:`_stem` keys the cached object to
#: that CPU, and :func:`_flag_lists` drops the flag for a compiler that
#: rejects it.  Wider vectors change no bit (argued in the module
#: docstring): every vectorised loop is lane-wise IEEE, -ffp-contract=off
#: forbids FMA contraction although the host has FMA (a contracted a*b+c
#: rounds once, NumPy's separate ops round twice), and GCC never
#: reassociates FP without -ffast-math, so the operation order of cext.c is
#: what runs.  An implicit declaration is an error on gcc >= 14 / clang >= 16
#: anyway; asking for it everywhere keeps older compilers from hiding one.
_NATIVE = "-march=native"
_CFLAGS = ["-O2", _NATIVE, "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno",
           "-Werror=implicit-function-declaration"]
_COMPILERS = ("cc", "gcc", "clang")

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_F64 = ctypes.c_double

#: C entry points and their argument types (all return void but the ones in
#: :data:`_RESTYPES`, which report input the reference must answer).
_SIGNATURES = {
    "pairwise_rows": [_PTR, _I64, _I64, _PTR],
    "pattern_search": [_PTR, _PTR, _I64, _I64, _I64, _I64, _I64, _F64, _I64, _PTR, _I64, _PTR, _PTR],
    "motion_comp": [_PTR, _PTR, _PTR, _I64, _I64, _I64, _I64, _PTR],
    "value_noise": [_PTR, _PTR, _I64, _PTR, _PTR, _I64, _PTR],
    "render_surfaces": [_PTR, _I64, _I64, _PTR, _F64, _F64, _PTR, _PTR, _I64, _PTR, _PTR, _PTR,
                        _PTR, _PTR, _PTR, _PTR, _PTR],
    "render_sky": [_PTR, _I64, _PTR, _PTR, _PTR, _PTR, _PTR],
    "dct8": [_PTR, _I64, _I64, _I64, _I64, _PTR],
    "quant_cost": [_PTR, _I64, _I64, _I64, _I64, _I64, _PTR, _PTR, _PTR],
    "rc_compact": [_PTR, _I64, _I64, _I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR],
    "rc_bits": [_PTR, _PTR, _PTR, _I64, _I64, _PTR],
    "reconstruct": [_PTR, _PTR, _I64, _I64, _I64, _PTR, _PTR],
    "intra_encode": [_PTR, _PTR, _I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR],
    "intra_decode": [_PTR, _PTR, _PTR, _I64, _I64, _I64, _PTR],
}
_RESTYPES = {"pattern_search": _I64, "motion_comp": _I64, "value_noise": _I64,
             "render_surfaces": _I64, "render_sky": _I64, "dct8": _I64, "quant_cost": _I64, "rc_compact": _I64,
             "rc_bits": _F64, "reconstruct": _I64, "intra_encode": _I64, "intra_decode": _I64}

class _Unavailable(Exception):
    """The shared object cannot be built or loaded; the message says why."""


def _cache_dir() -> Path:
    """The private directory the shared object is built into and loaded from.

    Only a directory owned by this user with mode 0700 qualifies — anything
    else could hold an object someone else wrote.
    """
    candidates = []
    xdg = os.environ.get("XDG_CACHE_HOME")
    try:
        candidates.append((Path(xdg) if xdg else Path.home() / ".cache") / "repro" / "kernels")
    except RuntimeError:  # no home directory for this uid
        pass
    candidates.append(Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}")
    refused = []
    for path in candidates:
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
            st = os.lstat(path)
        except OSError as exc:
            refused.append(f"{path}: {exc.strerror or exc}")
            continue
        mode = stat.S_IMODE(st.st_mode)
        if not stat.S_ISDIR(st.st_mode):
            refused.append(f"{path}: not a directory")
        elif st.st_uid != os.getuid():
            refused.append(f"{path}: owned by uid {st.st_uid}")
        elif mode != 0o700:
            refused.append(f"{path}: mode {mode:04o}, want 0700")
        else:
            return path
    raise _Unavailable("no private cache directory (" + "; ".join(refused) + ")")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _flag_lists() -> tuple[list[str], list[str]]:
    """The flags a build tries, in order: :data:`_CFLAGS`, then the same
    without ``-march=native`` for a compiler that rejects it (the object is
    then built for the baseline ISA, and is as bit-exact)."""
    return _CFLAGS, [flag for flag in _CFLAGS if flag != _NATIVE]


def _compile(cache: Path, stem: str) -> Path:
    """Compile the source into ``cache``; returns the object's path.

    Each compiler gets the flag lists of :func:`_flag_lists` in turn.  The
    object is written under a unique temp name and moved into place
    atomically, named after its own content hash so a loader can tell a
    whole file from a truncated one.
    """
    fd, tmp = tempfile.mkstemp(dir=cache, prefix=stem + ".", suffix=".tmp")
    os.close(fd)
    errors = []
    try:
        for compiler in _COMPILERS:
            for flags in _flag_lists():
                try:
                    subprocess.run(
                        [compiler, *flags, "-x", "c", str(_SOURCE), "-o", tmp, "-lm"],
                        check=True,
                        capture_output=True,
                        timeout=120,
                    )
                except FileNotFoundError:
                    error = "not found"
                    break
                except subprocess.CalledProcessError as exc:
                    stderr = exc.stderr.decode(errors="replace").strip()
                    error = stderr[-400:] or f"exit {exc.returncode}"
                except (OSError, subprocess.SubprocessError) as exc:
                    error = str(exc)
                else:
                    so_path = cache / f"{stem}-{_digest(Path(tmp).read_bytes())}.so"
                    os.replace(tmp, so_path)
                    return so_path
            errors.append(f"{compiler}: {error}")
        raise _Unavailable("no working C compiler (" + "; ".join(errors) + ")")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(so_path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(so_path))
    for name, argtypes in _SIGNATURES.items():
        func = getattr(lib, name)
        func.argtypes = argtypes
        func.restype = _RESTYPES.get(name)
    return lib


def _host_isa() -> str:
    """The CPU an object built here is for: the machine name plus the
    kernel's feature flags of the first CPU (the ``flags`` line of
    ``/proc/cpuinfo`` on x86, ``Features`` on ARM), where that file exists.
    One file read, no subprocess."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as cpuinfo:
            for line in cpuinfo:
                key, _, value = line.partition(":")
                if key.strip() in ("flags", "Features"):
                    return f"{platform.machine()} {value.strip()}"
    except OSError:
        pass
    return platform.machine()


def _stem(source: bytes) -> str:
    """The cache name of the object built from ``source``: a hash of the
    source, the flags and the host CPU, so an object built with other flags,
    or cached by a host with another CPU in a shared home, is never loaded."""
    return "kernels-" + _digest(source + " ".join(_CFLAGS).encode() + _host_isa().encode())


def _build_library() -> ctypes.CDLL:
    """Load the shared object, compiling it when missing or damaged."""
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        raise _Unavailable(f"cannot read the kernel source {_SOURCE}: {exc.strerror or exc}") from None
    cache = _cache_dir()
    stem = _stem(source)
    for so_path in sorted(cache.glob(f"{stem}-*.so")):
        # dlopen of a truncated object can kill the process (SIGBUS), so a
        # file is only loaded once it matches the content hash in its name.
        try:
            if _digest(so_path.read_bytes()) == so_path.stem.rpartition("-")[2]:
                return _load(so_path)
        except (OSError, AttributeError):
            pass
        so_path.unlink(missing_ok=True)
    so_path = _compile(cache, stem)
    try:
        return _load(so_path)
    except (OSError, AttributeError) as exc:
        raise _Unavailable(f"cannot load {so_path}: {exc}") from None


def _grid(array, block=None, dtypes=None, *, blocks=False, tail=(), maps=(), finite=False):
    """The grid the C loops would walk ``array`` as, or ``None`` (the
    reference answers): the one argument check of every wrapper.

    ``array`` must be an ndarray plane ``(h, w, *tail)``, or with ``blocks``
    block-major ``(h / 8, 8, w / 8, 8)`` (the memory of an ``(h, w)`` plane);
    with ``dtypes`` also of one of them and C-contiguous (else the caller
    converts it).  With ``block`` (a positive int multiple of 8) the plane
    must be whole macroblocks, at least one, and the grid counts them, else
    its cells.  Every array in ``maps`` (one value per macroblock: QPs,
    steps, modes) must have the grid's shape, and with ``finite`` no NaN or
    inf.
    """
    if not isinstance(array, np.ndarray):
        return None
    if dtypes is not None and (array.dtype not in dtypes or not array.flags.c_contiguous):
        return None
    shape = array.shape
    if blocks:
        if len(shape) != 4 or shape[1::2] != (8, 8):
            return None
        shape = (shape[0] * 8, shape[2] * 8)
    elif len(shape) != 2 + len(tail) or shape[2:] != tail:
        return None
    grid = shape[:2]
    if block is not None:
        h, w = grid
        if type(block) is not int or block <= 0 or block % 8 or not (h and w) or h % block or w % block:
            return None
        grid = (h // block, w // block)
    if any(np.shape(m) != grid or (finite and not np.isfinite(m).all()) for m in maps):
        return None
    return grid


#: How many QPs below the probe it was compacted at a rate counter's candidate
#: list stays complete: the list keeps every magnitude from a quarter of that
#: probe's step (the C source's ZERO_CUT), a level needs half of its own, and
#: five QPs down the steps are 2^(-5/6) = 0.56 of what they were — so
#: 0.25 / 0.56 = 0.45 < 0.5 with a margin no rounding of ``qstep`` can close.
_RC_DESCENT = 5.0


class _RateCounter:
    """``QuantBitCounter``'s compiled probe over one coefficient set: call it
    with a base QP for the frame's total bits, ``None`` when the reference
    must answer (a NaN or infinite coefficient, one too large to cost in
    integers).

    The first probe makes the one pass over the coefficients — per-8x8
    maxima, and per macroblock the magnitudes that can still quantise to a
    non-zero level down to ``_RC_DESCENT`` QPs below it — and every probe
    after that divides only those candidates; a probe that descends further
    compacts again from there.  No sort, any offset map.
    """

    def __init__(self, lib, coeffs, offsets, grid, mb_size, max_qp):
        self._lib = lib
        self._coeffs = coeffs
        self._offsets = offsets
        self._grid = grid
        self._mb_size = mb_size
        self._max_qp = max_qp
        self._per_mb = (mb_size // 8) ** 2
        self._floor = np.inf  # the lowest QP the candidates cover
        self._block_max = self._cand = self._start = None

    def __call__(self, qp: float) -> float | None:
        from repro.codec.transform import qstep

        steps = qstep(np.clip(qp + self._offsets, 0.0, self._max_qp))
        if not qp >= self._floor:
            self._floor = qp - _RC_DESCENT
            if not self._compact(steps):
                return None
        return self._lib.rc_bits(
            self._cand.ctypes.data, self._start.ctypes.data, self._block_max.ctypes.data,
            steps.size, self._per_mb, steps.ctypes.data,
        )

    def _compact(self, steps: np.ndarray) -> bool:
        coeffs = self._coeffs
        rows, cols = self._grid
        if self._cand is None:
            self._block_max = np.empty(coeffs.size // 64, dtype=np.float64)
            self._cand = np.empty(coeffs.size, dtype=np.float64)
            self._start = np.empty(steps.size + 1, dtype=np.int64)
        kept = -1
        if np.isfinite(steps).all() and (steps > 0.0).all():
            kept = self._lib.rc_compact(
                coeffs.ctypes.data, coeffs.dtype == np.float32, coeffs.shape[2] * 8, rows, cols,
                self._mb_size, steps.ctypes.data, self._block_max.ctypes.data,
                self._cand.ctypes.data, self._start.ctypes.data,
            )
        # No effective QP is below 0, so no step is below 0.625 and no level
        # reaches twice the largest magnitude.
        return kept >= 0 and self._block_max.max() < 2.0**31


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-identity, not equality: tells -0.0 from 0.0 and one NaN from another."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: ``pattern_search``'s method ids, and the widest search range its memo's
#: 16-bit key can number: ``(2 * 127 + 1) ** 2 + 1 <= 2 ** 16``.
_ME_METHODS = {"dia": 0, "hex": 1, "umh": 2}
_ME_MAX_RANGE = 127


class _CKernels:
    """ctypes call wrappers over one loaded library.

    Holds nothing but the library handle and every call allocates its own
    scratch and outputs, so one instance serves any number of threads.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib

    def pattern_search(self, current, reference, *, method, search_range, block, lambda_mv, subpel):
        """``_pattern_search``: the whole DIA / HEX / UMH search in one call,
        or ``None`` when the reference must answer — frames the C loops could
        not index as they stand, a search range the memo cannot key, a NaN or
        infinite pixel, scratch that could not be allocated."""
        from repro.codec.motion import _umh_offsets

        grid = _grid(current, block, (np.float32,))
        if (
            grid is None
            or _grid(reference, block, (np.float32,)) != grid
            or method not in _ME_METHODS
            or type(search_range) is not int
            or not 0 <= search_range <= _ME_MAX_RANGE
            or not np.isfinite(lambda_mv)
        ):
            return None
        offsets = np.array(_umh_offsets(search_range) if method == "umh" else (), dtype=np.int64)
        mv = np.empty((*grid, 2), dtype=np.float32)
        sad = np.empty(grid, dtype=np.float64)
        if self._lib.pattern_search(
            current.ctypes.data, reference.ctypes.data, *grid, block, search_range,
            _ME_METHODS[method], float(lambda_mv), bool(subpel),
            offsets.ctypes.data, offsets.shape[0], mv.ctypes.data, sad.ctypes.data,
        ):
            return None
        return mv, sad

    def motion_compensate(self, reference, mv, *, block=16):
        from repro.codec.motion import _motion_compensate_reference

        plane = np.ascontiguousarray(reference, dtype=np.float32)
        grid = _grid(plane, block, (np.float32,))
        if grid is None or _grid(mv, tail=(2,)) != grid or not np.isfinite(mv).all():
            # A field that does not tile the plane, or one C cannot floor to
            # int64: what the reference makes of it (its exceptions
            # included) is the answer.
            return _motion_compensate_reference(reference, mv, block=block)
        rows, cols = grid
        rng = int(np.ceil(np.abs(mv).max())) + 2
        if (plane.shape[0] + 2 * rng) * (plane.shape[1] + 2 * rng) * 8 >= 2**63:
            # The padded plane's bytes would overflow C's int64 / size_t.
            return _motion_compensate_reference(reference, mv, block=block)
        mvx = np.ascontiguousarray(mv[..., 0], dtype=np.float64).ravel()
        mvy = np.ascontiguousarray(mv[..., 1], dtype=np.float64).ravel()
        out = np.empty(plane.shape, dtype=np.float32)
        if self._lib.motion_comp(
            plane.ctypes.data, mvx.ctypes.data, mvy.ctypes.data, rng, rows, cols, block, out.ctypes.data
        ):
            return _motion_compensate_reference(reference, mv, block=block)
        return out

    def value_noise(self, x, y, *, seed, scale=1.0, octaves=1):
        """``value_noise_2d``: all octaves and lattice hashes of a point in one pass."""
        from repro.utils.noise import _value_noise_2d_reference

        if scale > 0 and octaves >= 1:
            x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
            out = np.empty(x.shape, dtype=np.float64)
            x = np.ascontiguousarray(x)
            y = np.ascontiguousarray(y)
            freqs, sterm = _noise_terms(seed, scale, octaves)
            freqs = np.array(freqs, dtype=np.float64)
            sterm = np.array(sterm, dtype=np.uint64)
            if not self._lib.value_noise(
                x.ctypes.data, y.ctypes.data, out.size,
                freqs.ctypes.data, sterm.ctypes.data, octaves, out.ctypes.data,
            ):
                return out[()]  # 0-d -> scalar, as the reference's arithmetic yields
        # Parameters the reference rejects (it raises), or a coordinate int64
        # cannot hold (C leaves the cast undefined): the reference answers.
        return _value_noise_2d_reference(x, y, seed=seed, scale=scale, octaves=octaves)

    def render_surfaces(self, dirs, origin, scene, placed):
        """``Renderer.render``'s surfaces — ground, placed objects, sky — and
        each placed object's statistics in two calls around numpy's
        ``np.arctan2`` of the sky pixels, or ``None`` when
        ``_render_surfaces_reference`` must answer — directions the C loops
        could not index as they stand, a window outside the frame, a face
        whose normal or u axis is off the world axes (every preset object
        faces ``(1, 0)`` or ``(0, 1)``), an object id the id-buffer cannot
        hold or that repeats, a noise coordinate int64 cannot hold."""
        pixels = _grid(dirs, dtypes=(np.float64,), tail=(3,))
        origin = np.ascontiguousarray(origin, dtype=np.float64)
        if pixels is None or origin.shape != (3,):
            return None
        h, w = pixels
        table, rows = placed.table, placed.rows
        windows = np.ascontiguousarray(placed.windows, dtype=np.int64)
        ids = table.ids[rows]
        if not (
            table.on_axes[rows].all()
            and ((ids >= 2) & (ids < 2**31)).all()
            and np.unique(ids).size == ids.size
            and windows.shape == (ids.size, 4)
            and (windows >= 0).all()
            and (windows[:, :2] <= h).all()
            and (windows[:, 2:] <= w).all()
        ):
            return None
        face = np.column_stack([windows, table.bands[rows], ids])
        geo = np.column_stack([placed.points, table.normals[rows], table.u_dirs[rows], table.half_widths[rows],
                               table.heights[rows], table.tones[rows]]).astype(np.float64, copy=False)
        osterm = table.sterms[rows]
        # As ground_texture samples: two octaves at scale 1.5, one at 0.35
        # under seed + 101; then object_texture's three at 0.6, and
        # sky_texture's one at 1.0 under seed + 500.
        base_freq, base_sterm = _noise_terms(scene.texture_seed, 1.5, 2)
        fine_freq, fine_sterm = _noise_terms(scene.texture_seed + 101, 0.35, 1)
        sky_freq, sky_sterm = _noise_terms(scene.texture_seed + 500, 1.0, 1)
        freq = np.array(base_freq + fine_freq + _noise_terms(0, 0.6, 3)[0] + sky_freq, dtype=np.float64)
        gsterm = np.array(base_sterm + fine_sterm + sky_sterm, dtype=np.uint64)
        image = np.empty((h, w), dtype=np.float32)
        id_buffer = np.empty((h, w), dtype=np.int32)
        stats = np.empty((rows.size, 6), dtype=np.int64)
        sky_x, sky_z = np.empty(h * w), np.empty(h * w)
        n_sky = self._lib.render_surfaces(
            dirs.ctypes.data, h, w, origin.ctypes.data, float(scene.max_ground_depth),
            float(scene.weather_contrast), freq.ctypes.data, gsterm.ctypes.data, rows.size,
            face.ctypes.data, geo.ctypes.data, osterm.ctypes.data,
            image.ctypes.data, id_buffer.ctypes.data, stats.ctypes.data, sky_x.ctypes.data, sky_z.ctypes.data,
        )
        if n_sky < 0:
            return None
        # The reference's own azimuths: numpy's arctan2 over the sky pixels'
        # contiguous x and z components, in raster order.
        azimuth = np.arctan2(sky_x[:n_sky], sky_z[:n_sky])
        if self._lib.render_sky(dirs.ctypes.data, h * w, id_buffer.ctypes.data, azimuth.ctypes.data,
                                freq.ctypes.data, gsterm.ctypes.data, image.ctypes.data):
            return None
        return image, id_buffer, stats

    def transform(self, blocks, *, inverse):
        """``dct_blocks`` / ``idct_blocks``' transform of ``(r8, 8, c8, 8)``
        float32 / float64 blocks, or ``None`` when the reference must answer:
        another dtype or shape, no blocks, an output that is not finite
        (which every non-finite input makes)."""
        if isinstance(blocks, np.ndarray):
            blocks = np.ascontiguousarray(blocks)
        if _grid(blocks, dtypes=(np.float32, np.float64), blocks=True) is None or not blocks.size:
            return None
        out = np.empty(blocks.shape, dtype=blocks.dtype)
        if self._lib.dct8(blocks.ctypes.data, blocks.dtype == np.float32, blocks.shape[0], blocks.shape[2],
                          bool(inverse), out.ctypes.data):
            return None
        return out

    def intra_encode(self, frame, qp_map, *, block=16):
        """``intra_encode``: the whole frame in one call."""
        from repro.codec.intra import _MODE_BITS, _intra_encode_reference
        from repro.codec.transform import qstep

        pixels = np.ascontiguousarray(frame, dtype=np.float64)
        qp = np.asarray(qp_map, dtype=float)
        grid = _grid(pixels, block, (np.float64,), maps=(qp,))
        if grid is not None:
            h, w = pixels.shape
            q = qstep(qp)
            levels = np.empty((h // 8, 8, w // 8, 8), dtype=np.float64)
            modes = np.empty(grid, dtype=np.int8)
            recon = np.empty_like(pixels)
            bits_per_mb = np.empty(grid, dtype=np.float64)
            if not self._lib.intra_encode(
                pixels.ctypes.data, q.ctypes.data, *grid, block,
                levels.ctypes.data, modes.ctypes.data, recon.ctypes.data, bits_per_mb.ctypes.data,
            ):
                bits_per_mb += _MODE_BITS
                return levels, modes, recon, bits_per_mb
        # Arguments the C loops could not index (whatever the reference makes
        # of them, its exceptions included, is the answer), a non-finite
        # transform or a level too large to cost in integers.
        return _intra_encode_reference(frame, qp_map, block=block)

    def intra_decode(self, levels, modes, qp_map, *, block=16):
        """``intra_decode``: the whole frame in one call."""
        from repro.codec.intra import _intra_decode_reference
        from repro.codec.transform import qstep

        qp = np.asarray(qp_map, dtype=float)
        grid = None
        if isinstance(modes, np.ndarray) and modes.dtype.kind in "iub":
            grid = _grid(levels, block, blocks=True, maps=(modes, qp))
        if grid is not None:
            coded = np.ascontiguousarray(levels, dtype=np.float64)
            mode_map = np.ascontiguousarray(modes, dtype=np.int64)
            q = qstep(qp)
            recon = np.empty((grid[0] * block, grid[1] * block), dtype=np.float64)
            if not self._lib.intra_decode(
                coded.ctypes.data, mode_map.ctypes.data, q.ctypes.data, *grid, block, recon.ctypes.data,
            ):
                return recon
        return _intra_decode_reference(levels, modes, qp_map, block=block)

    def quantize_cost(self, coeffs, qp_per_mb, *, mb_size=16):
        """``quantize_cost``: one pass over the coefficients, float32 read in place."""
        from repro.codec.transform import _quantize_cost_reference, qstep

        q = qstep(np.ascontiguousarray(qp_per_mb, dtype=float))
        grid = _grid(coeffs, mb_size, (np.float32, np.float64), blocks=True, maps=(q,))
        if grid is not None:
            levels = np.empty(coeffs.shape, dtype=np.float64)
            bits_per_mb = np.empty(grid, dtype=np.float64)
            if not self._lib.quant_cost(
                coeffs.ctypes.data, coeffs.dtype == np.float32, coeffs.shape[2] * 8, *grid, mb_size,
                q.ctypes.data, levels.ctypes.data, bits_per_mb.ctypes.data,
            ):
                return levels, bits_per_mb
        # Geometry the C loop could not index (the reference raises on it, or
        # reads a layout C does not), or NaN / inf / a level too large to cost
        # in integers: the reference answers.
        return _quantize_cost_reference(coeffs, qp_per_mb, mb_size=mb_size)

    def rate_counter(self, coeffs, offsets, *, mb_size=16, max_qp=51.0):
        """``QuantBitCounter``'s probe, or ``None`` when its NumPy body must
        serve these arguments."""
        offs = np.ascontiguousarray(offsets, dtype=np.float64)
        grid = _grid(coeffs, mb_size, (np.float32, np.float64), blocks=True, maps=(offs,))
        if grid is None or not max_qp >= 0.0:
            return None
        return _RateCounter(self._lib, coeffs, offs, grid, mb_size, float(max_qp))

    def reconstruct(self, prediction, levels, qp_per_mb, *, mb_size=16):
        """``reconstruct``: dequantise, inverse-transform and clip the coded
        8x8 blocks, clip the prediction under the others, in one call."""
        from repro.codec.transform import _reconstruct_reference, qstep

        q = qstep(np.ascontiguousarray(qp_per_mb, dtype=float))
        # Finite steps only: 0 * inf is NaN, so an all-zero block under such a
        # step is not skippable.
        grid = _grid(levels, mb_size, (np.float64,), blocks=True, maps=(q,), finite=True)
        if grid is not None and _grid(prediction, mb_size, (np.float32,)) == grid:
            out = np.empty(prediction.shape, dtype=np.float32)
            if not self._lib.reconstruct(
                prediction.ctypes.data, levels.ctypes.data, levels.shape[0], levels.shape[2],
                mb_size // 8, q.ctypes.data, out.ctypes.data,
            ):
                return out
        # Wrong shape / dtype / stride, an infinite step, a level past the
        # limit, a non-finite residual, or a -0.0 / NaN prediction pixel under
        # a skipped block: the reference answers.
        return _reconstruct_reference(prediction, levels, qp_per_mb, mb_size=mb_size)

    def pairwise_rows(self, a):
        """NumPy's pairwise sum of every row of a C-contiguous float64 matrix,
        in C: what every SAD and DC mean of the kernels rests on."""
        out = np.empty(a.shape[0], dtype=np.float64)
        self._lib.pairwise_rows(a.ctypes.data, *a.shape, out.ctypes.data)
        return out

    def self_probe(self) -> str | None:
        """Bitwise-compare every C kernel against its reference, row by row of
        :func:`_probe_table`: the hook and case of the first disagreement, or
        ``None`` when all agree."""
        for row in _probe_table():
            hook = getattr(self, row.hook)
            for label, args, kwargs in row.cases:
                if not row.same(hook(*args, **kwargs), row.reference(*args, **kwargs)):
                    return f"{row.hook} ({label})"
        return None


def _same_answer(got, want) -> bool:
    """Whether a hook's answer — an array or a tuple of arrays — is the
    reference's to the bit; a declined call (``None``) never is."""
    if isinstance(want, tuple):
        return isinstance(got, tuple) and len(got) == len(want) and all(map(_same_bytes, got, want))
    return got is not None and _same_bytes(got, want)


def _same_bits(got, want) -> bool:
    """Whether a rate counter answers ``want``'s bit total at every base QP
    of a walk as rate control's: down inside what the first compaction
    covers, up, then far enough down to compact again."""
    walk = (30.0, 27.0, 25.5, 34.0, 51.0, 12.0, 8.0, 0.0, 19.0)
    return got is not None and all(got(qp) == want(qp) for qp in walk)


def _frame_bits_reference(coeffs, offsets):
    """What a rate counter over ``coeffs`` must answer at a base QP: the
    whole frame quantised under the clipped QP map, and costed."""
    from repro.codec.transform import quantize, transform_cost_bits

    return lambda qp: float(transform_cost_bits(quantize(coeffs, np.clip(qp + offsets, 0.0, 51.0))).sum())


def _remainder_cases(values) -> list:
    """``render_surfaces`` cases that put each of ``values`` (finite, below
    2^58 in magnitude) under the shaders' remainders: as the world z of
    ground points on both dashed lane lines (``np.mod(z, 6.0)``), and each
    one not below zero as the height (``np.mod(h, 2.5)``) and, on a face
    whose half width is the power of two at or below it, the left-edge
    coordinate (``np.mod(u, 2.0)``) of points on building faces."""
    from repro.world import EgoTrajectory, Scene, SceneObject, StraightSegment
    from repro.world.renderer import Placed

    values = np.asarray(values, dtype=np.float64)
    scene = Scene(trajectory=EgoTrajectory([StraightSegment(1.0, 5.0)]), texture_seed=3)
    # From 1 m above the ground, rays with dy = 1 meet it at tg = 1: the
    # world x and z are the ray's own (origin z -0.0 keeps z = -0.0).
    ground = np.empty((2, values.size, 3))
    ground[..., 0] = np.array([1.75, -1.75])[:, None]
    ground[..., 1] = 1.0
    ground[..., 2] = values
    nothing = Placed.by_hand([], [], 0.0)
    # From the ground's origin, rays (u - half, -h, 1) meet a face standing
    # at z = 1, facing x, at height h and u from its left edge; u - half and
    # back are exact for half <= u <= 2 half.
    heights = np.unique(values[values >= 0.0])
    faces, columns, windows = [], [], []
    for half in np.unique(2.0 ** np.floor(np.log2(heights[heights > 0.0]))):
        u = heights[(heights >= half) & (heights <= 2.0 * half)]
        windows.append((0, heights.size, len(columns), len(columns) + u.size))
        faces.append(SceneObject(kind="building", base=(0.0, 1.0), width=2.0 * half, height=2.0**58,
                                 texture_seed=len(faces), object_id=2 + len(faces)))
        columns += (u - half).tolist()
    rays = np.empty((heights.size, len(columns), 3))
    rays[..., 0] = columns
    rays[..., 1] = -heights[:, None]
    rays[..., 2] = 1.0
    return [
        ("remainders, ground z", (ground, np.array([0.0, -1.0, -0.0]), scene, nothing), {}),
        ("remainders, building faces", (rays, np.zeros(3), scene, Placed.by_hand(faces, windows, 0.0)), {}),
    ]


class _ProbeRow(NamedTuple):
    """One row of the self-probe: ``hook`` (a :class:`_CKernels` method) and
    ``reference`` each answer every ``(label, args, kwargs)`` case, and
    ``same(got, want)`` says whether the two answers agree to the bit."""

    hook: str
    reference: Callable
    cases: list
    same: Callable = _same_answer


def _probe_table() -> list[_ProbeRow]:
    """The self-probe: the pairwise sum, then one row per hook of
    :data:`KERNEL_NAMES`, over adversarial inputs from one seeded generator.
    The fault tests index it by hook name."""
    from repro.codec.intra import _intra_decode_reference, _intra_encode_reference
    from repro.codec.motion import _motion_compensate_reference, _pattern_search_reference
    from repro.codec.transform import _quantize_cost_reference, _reconstruct_reference, _transform_reference
    from repro.geometry.camera import CameraIntrinsics
    from repro.utils.noise import _value_noise_2d_reference
    from repro.world import EgoTrajectory, Renderer, Scene, SceneObject, StraightSegment, TurnSegment
    from repro.world import building, moving_car, parked_car, pedestrian
    from repro.world.objects import pole
    from repro.world.renderer import _render_surfaces_reference

    gen = np.random.default_rng(0xCE)
    # Pairwise summation, adversarial magnitudes.
    pairwise = [(f"n={n}", (np.exp(gen.normal(0.0, 12.0, size=(64, n))),), {}) for n in (49, 64, 200, 256, 1024)]
    # The 8x8 DCT both ways in both precisions: integer levels, signed zeros
    # among subnormals, magnitudes over decades, and up to where the type
    # nearly overflows (not past it: the hook declines a non-finite output).
    transform = []
    for dtype, big in ((np.float64, 1e290), (np.float32, 1e30)):
        tiny = float(np.finfo(dtype).smallest_subnormal)
        contents = {
            "levels": gen.integers(-40, 41, size=(2, 8, 3, 8)) * 1.0,
            "zeros and subnormals": gen.choice([0.0, -0.0, tiny, -tiny, 3.0 * tiny, 1.0], size=(2, 8, 3, 8)),
            "decades": gen.normal(size=(2, 8, 3, 8)) * np.exp(gen.normal(0.0, 8.0, size=(2, 8, 3, 8))),
            "large": gen.normal(0.0, big, size=(1, 8, 1, 8)),
        }
        transform += [(f"{np.dtype(dtype).name} {content}, {'inverse' if inverse else 'forward'}",
                       (blocks.astype(dtype),), dict(inverse=inverse))
                      for content, blocks in contents.items() for inverse in (False, True)]
    # The three pattern searches and MC: content that moved (so the seed
    # grid, the predictors and the window's edge all bite) under noise.
    search, compensate = [], []
    for block, shape in ((16, (96, 128)), (8, (48, 64))):
        ref = gen.uniform(0, 255, size=shape).astype(np.float32)
        cur = np.roll(ref, (3, -7), axis=(0, 1))
        cur = np.clip(cur + gen.normal(0, 9, size=shape), 0, 255).astype(np.float32)
        params = dict(search_range=10, block=block, lambda_mv=4.0, subpel=True)
        search += [(f"{method}, block {block}", (cur, ref), dict(params, method=method)) for method in _ME_METHODS]
        mv = (gen.integers(-28, 29, size=(shape[0] // block, shape[1] // block, 2)) * 0.25).astype(np.float32)
        compensate.append((f"block {block}", (ref, mv), dict(block=block)))
    # Value noise: the renderer's three call shapes over world-sized,
    # lattice-exact, negative and 2^40-scale coordinates, with seeds on
    # both sides of the uint64 wrap.
    px = np.concatenate([gen.uniform(-300.0, 300.0, 1500), gen.integers(-9, 9, 200) * 0.35,
                         gen.normal(0.0, 2.0**40, 300)])
    py = gen.permutation(px) * 0.7
    noise = [(f"scale {scale}, octaves {octaves}", (px, py), dict(seed=seed, scale=scale, octaves=octaves))
             for seed, scale, octaves in ((11, 1.5, 2), (-(2**70) - 3, 0.35, 1), (2**63 + 101, 0.6, 3))]
    # The renderer's ground and billboards on a small turning drive: every
    # kind's bands, both facings, a car hiding a pedestrian, objects cut by
    # the frame edge, ground fading into haze, contrasts that clip.
    scene = Scene(
        trajectory=EgoTrajectory([StraightSegment(1.0, 8.0), TurnSegment(1.0, 8.0, 0.3)]),
        objects=[building(-6.0, 20.0, seed=3), building(7.0, 33.0, seed=4), parked_car(1.0, 12.0, seed=5),
                 pedestrian(1.2, 15.0, seed=6), moving_car(-1.75, 25.0, speed=6.0, seed=7),
                 pole(3.0, 9.0, seed=8), pedestrian(-3.3, 6.0, seed=9),
                 SceneObject(kind="building", base=(0.0, 52.0), width=20.0, height=6.0, texture_seed=10)],
        texture_seed=2,
        max_ground_depth=60.0,
    )
    renderer = Renderer(CameraIntrinsics(focal=80.0, width=96, height=64))
    surfaces = []
    for weather, t in ((1.9, 0.0), (0.55, 1.6)):
        weathered = dataclasses.replace(scene, weather_contrast=weather)
        _, dirs, origin, placed = renderer._prepare(weathered, t)
        surfaces.append((f"weather {weather}, t {t}", (dirs, origin, weathered, placed), {}))
    # The shaders' remainders on their edges: multiples of 2 / 2.5 / 6 and
    # their one-ulp neighbours, up to where the remainder takes fmod.
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1e-17, 2.0**51]
    for b in (2.0, 2.5, 6.0):
        for k in (1, 3, 2**20 + 1, 2**47 + 5, 2**50, 2**52 + 3):
            edges += [k * b, np.nextafter(k * b, 0.0), np.nextafter(k * b, np.inf)]
    surfaces += _remainder_cases(edges + [-v for v in edges])
    # The P-frame's transform tail on a 3 x 4 grid: coefficients on a
    # lattice of half steps (every rounding tie) and spread over decades,
    # two thirds of the blocks empty, one holding a single coefficient
    # and one only negative zeros; float64 and float32; QP maps that are
    # fractional, saturated at 0 / 51, and sixes (exact power-of-two steps).
    lattice = gen.integers(-9, 10, size=(6, 8, 8, 8)) * 0.3125
    wide = gen.normal(0.0, 1.0, size=(6, 8, 8, 8)) * np.exp(gen.normal(0.0, 2.5, size=(6, 8, 8, 8)))
    keep = gen.uniform(size=(6, 1, 8, 1)) < 0.35
    keep[0, 0, :2, 0] = True
    quant, counter, recon = [], [], []
    for tag, coeffs in (("lattice", lattice), ("wide", wide)):
        coeffs = np.where(keep, coeffs, 0.0)
        coeffs[0, :, 0, :] = 0.0
        coeffs[0, 3, 0, 5] = 40.0
        coeffs[0, :, 1, :] = -0.0
        fractional = gen.uniform(0.0, 51.0, size=(3, 4))
        saturated = np.where(fractional < 17.0, 0.0, np.where(fractional > 34.0, 51.0, fractional))
        for where, c, qp in (
            (f"{tag} float64, sixes", coeffs, gen.integers(0, 4, size=(3, 4)) * 6.0),
            (f"{tag} float32, fractional", coeffs.astype(np.float32), fractional),
            (f"{tag} float64, saturated", coeffs, saturated),
        ):
            quant.append((where, (c, qp), {}))
            counter.append((where, (c, qp - 20.0), {}))
            # Predictions that clip at both ends and sit on the bounds, under
            # the coded levels, under none and under a level in every block.
            prediction = gen.uniform(-40.0, 295.0, size=(48, 64)).astype(np.float32)
            prediction[gen.uniform(size=(48, 64)) < 0.1] = 0.0
            prediction[gen.uniform(size=(48, 64)) < 0.1] = 255.0
            levels = _quantize_cost_reference(c, qp)[0]
            for kind, lv in (("coded", levels), ("none coded", np.zeros_like(levels)), ("all coded", levels + 1.0)):
                recon.append((f"{where}, {kind}", (prediction, lv, qp), {}))
    # I-frame wavefront, both directions: every border shape (one block,
    # one row, one column, ragged), content where all three SADs tie
    # (flat), where H or V wins (ramp), exact arithmetic (steps) and
    # noise, under fractional and 0/51-saturated QP maps.
    yy, xx = np.mgrid[0:48, 0:64]
    contents = {"flat": np.full((48, 64), 77.0), "ramp": (xx * 2.75 + (yy // 7) * 9.5) % 256.0,
                "steps": gen.integers(0, 8, size=(48, 64)) * 32.0, "noise": gen.uniform(0.0, 255.0, size=(48, 64))}
    encode, decode, encoded = [], [], {}

    def encode_reference(frame, qp, *, block):
        """``_intra_encode_reference``, run once per frame for both intra rows."""
        if id(frame) not in encoded:
            encoded[id(frame)] = _intra_encode_reference(frame, qp, block=block)
        return encoded[id(frame)]

    for block, (rows, cols), content in ((16, (1, 1), "flat"), (16, (1, 4), "ramp"), (16, (3, 1), "steps"),
                                         (16, (2, 3), "noise"), (8, (2, 2), "flat"), (8, (2, 3), "noise")):
        where = f"block {block}, {rows}x{cols} {content}"
        frame = contents[content][: rows * block, : cols * block]
        qp = gen.uniform(0.0, 51.0, size=(rows, cols))
        if content in ("flat", "steps"):
            qp = np.where(qp < 17.0, 0.0, np.where(qp > 34.0, 51.0, qp))
        levels, modes, _, _ = encode_reference(frame, qp, block=block)
        encode.append((where, (frame, qp), dict(block=block)))
        decode.append((where, (levels, modes, qp), dict(block=block)))
    return [
        _ProbeRow("pairwise_rows", functools.partial(np.sum, axis=1), pairwise),
        _ProbeRow("transform", _transform_reference, transform),
        _ProbeRow("pattern_search", _pattern_search_reference, search),
        _ProbeRow("motion_compensate", _motion_compensate_reference, compensate),
        _ProbeRow("value_noise", _value_noise_2d_reference, noise),
        _ProbeRow("render_surfaces", _render_surfaces_reference, surfaces),
        _ProbeRow("quantize_cost", _quantize_cost_reference, quant),
        _ProbeRow("rate_counter", _frame_bits_reference, counter, _same_bits),
        _ProbeRow("reconstruct", _reconstruct_reference, recon),
        _ProbeRow("intra_encode", encode_reference, encode),
        _ProbeRow("intra_decode", _intra_decode_reference, decode),
    ]


class CExtBackend(KernelBackend):
    """Compiled-C pattern search, motion compensation, value noise, the
    renderer's surfaces (``render_surfaces``), the 8x8 DCT (``transform``),
    I-frames (``intra_encode`` / ``intra_decode``) and the P-frame's
    transform tail (``quantize_cost`` / ``rate_counter`` / ``reconstruct``),
    self-probed."""

    name = "cext"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._checked = False
        self._reason: str | None = None

    def available(self) -> bool:
        # Build + probe exactly once however many threads ask first.
        with self._lock:
            if not self._checked:
                self._reason = self._check()
                self._checked = True
            return self._reason is None

    def why_unavailable(self) -> str | None:
        with self._lock:
            return self._reason

    def _check(self) -> str | None:
        """Build, load and probe; bind the hooks or return why not."""
        try:
            kernels = _CKernels(_build_library())
        except (_Unavailable, OSError) as exc:  # OSError: full disk, read-only cache
            return str(exc)
        # Pinned to the reference, the oracles compare against numpy alone
        # and a dispatching call inside one cannot re-enter this (locked)
        # check through the default's resolution.
        with use_backend("numpy"):
            failed = kernels.self_probe()
        if failed is not None:
            return f"self-probe: {failed} differs bitwise from the reference"
        # Hooks are bound only once the probe has passed.
        for name in KERNEL_NAMES:
            setattr(self, name, getattr(kernels, name))
        return None
