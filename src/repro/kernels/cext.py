"""Runtime-compiled C backend: one C entry point behind each hook of
:data:`repro.kernels.KERNEL_NAMES`, plus the renderer's second call, the
rate counter's two and the pairwise sum the probe checks (all listed in
:data:`_ENTRY_POINTS`).

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
sqrt, abs, compare, float32 <-> float64, int64 <-> float64 and the uint64
multiply's low half give each lane exactly what the scalar instruction
would — no reduction is re-bracketed across lanes (GCC never
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
  rounding.  The search pads the float32 reference to float64 in C
  (widening is exact, so it is ``np.pad(..., mode="edge")`` of the widened
  plane); ``motion_comp`` reads the float32 plane in place instead: an
  edge-padded plane repeats the nearest edge pixel, so a tap outside the
  frame is the pixel at its clamped row and column.  Blocks whose taps all
  fall inside (most of a frame) blend eight pixels a step straight from the
  plane; a block crossing an edge first gathers its window through clamped
  indices into a tile.  The weights' fractions are the component minus its
  floor *as an integer*, as the reference forms them: ``-0.0 - 0`` keeps
  the sign ``-0.0 - floor(-0.0)`` loses, and a zero weight's sign shows in
  a sum of ``-0.0`` taps.  An output NaN (whose payload the order does not
  pin) and a vector past ``_MV_REACH`` are declined.
- The textures' value noise (``noise8``, inside the renderer's calls
  below) is ``repro.utils.noise.value_noise_2d`` at eight points at once,
  one per lane of GCC vector types: NumPy's is a per-array pipeline — four
  lattice hashes per octave, each a dozen full-size temporaries — and C
  keeps eight points' octaves in vector registers.  Lanes change no bit,
  because every step is the IEEE or integer operation the reference
  applies to that point, in its order: the truncating conversion to int64
  and a step down where ``u - trunc(u)`` is negative (the reference's
  ``floor``: ``u - trunc(u)`` is exact, and adding 1 rounds ``u -
  floor(u)`` once, as the reference's subtraction does); the smoothstep
  ``fu * fu * (3 - 2 fu)``; the splitmix hash in uint64 wrap-around
  arithmetic (exact); ``(double)(h >> 11) / 2^53`` (exact: the integer is
  below 2^53, the divisor a power of two); the lerps and the octave blend.
  Compares decide per lane and selects move bits.  The scalar code this
  replaced reused a lattice cell's four hashes for the next point in the
  same cell; the hashes are a pure function of the cell and the seed, so
  that memo was a cache, and hashing every point changes no bit.  A
  coordinate int64 cannot represent in any lane (NaN, inf, ``|u| >=
  2^63`` — an undefined cast in C) declines the frame.
- The renderer's surfaces (``render_surfaces``) are two calls per frame
  over the world ray directions NumPy formed and the placed objects'
  per-scene table.  The first resolves the ground's ids and every placed
  object's mask far to near (ids and painted counts, the mask eight
  pixels of a window row at a time), then textures only the pixels that
  kept their surface, counting each object's kept pixels and their
  bounding box as it goes, and gathers the sky pixels' x and z directions;
  the second shades
  the sky — norm, elevation, one octave of cloud noise, clip — from
  ``np.arctan2`` of those two contiguous arrays, taken in NumPy between the
  calls.  That azimuth is the reference's own call on the same values:
  numpy computes ``arctan2`` with its own SIMD code on AVX-512 hosts, not
  bit-identical to libm's ``atan2``.  Each surface's pixels are gathered
  in raster order and shaded eight to a batch through ``noise8`` above; a
  surface's short last batch repeats its first pixel in the spare lanes,
  whose results are dropped (a repeated pixel cannot decline a frame its
  first lane would not).  Each per-pixel step is elementwise IEEE
  arithmetic in the reference's order, written straight to the float32
  image (``(float)`` of a double is ``astype``'s rounding); ``np.mod`` is
  numpy's ``npy_divmod`` remainder, exact without ``fmod`` for the
  shaders' divisors 2, 2.5 and 6 below ``2^51`` (argued at ``np_mod8`` in
  ``cext.c``) — a lane at or past it, or NaN, takes ``fmod`` on its own —
  and ``np.clip`` is its two compares, as selects.  The
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
  is scipy's own arithmetic, as is its reference: ``_transform_reference``
  replays the same sequence in numpy, a vector operation per statement
  over every line, so the two agree by construction and both agree with
  scipy, which ``TestTransformIsScipys`` checks against the installed
  release.  ``dctn`` / ``idctn(axes=(1, 3),
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
  inside the sums), and so do other dtypes and shapes; the reference
  answers, handing what its replay does not pin to scipy.
  Lines are independent, so a block's transform is the same whichever
  blocks are beside it — which is what lets the loops below transform one
  block at a time.  Between the two axes, and after the second, the block
  is transposed by a loop the vectoriser takes whole (moves, no
  arithmetic).
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
  only the 8x8 blocks that carry a level (``reconstruct``).  The probe's
  candidates are costed eight at a time: each macroblock's list is padded
  with +0.0 (level 0, no bits) to whole chunks, and a whole-number level's
  ``floor(log2)`` is the unbiased exponent field of the double.  ``np.round``
  is the add-and-subtract-1.5*2^52 idiom (exact below 2^51, no libm call);
  a skipped block's pixel is the clipped prediction because its dense
  residual is all +-0.0 — unless the prediction pixel is ``-0.0`` or a
  NaN, or a step is infinite, and then the reference answers.
- A P-frame (``inter_encode``, behind ``repro.codec.encoder._inter_encode``)
  is one call: ``motion_comp``'s prediction (macroblock by macroblock, just
  before the macroblock is transformed), the residual as one float32
  subtraction per pixel (numpy's ``frame - prediction``), its DCT
  (``dct8x8_f``), rate control's gallop-then-bisect search probe for probe
  through the same compaction and ``rc_bits``, then ``quant_cost``'s and
  ``reconstruct``'s per-block routines at the chosen QP.  Each stage is the
  routine whose bytes the stand-alone hooks already prove, so the call's
  bytes are ``_inter_encode_reference``'s by construction, and it declines
  wherever a stage's hook would (a NaN prediction, a non-finite transform,
  a level past the integer bit model, a ``-0.0`` prediction pixel under a
  skipped block).  The quantiser steps are numpy's ``qstep``, computed by
  the wrapper once per frame over the base QPs 0-51 (or CRF's one QP) and
  the frame's distinct offsets: C's ``pow`` is not numpy's ``power`` in
  the last bit.  The first pass also makes the rate counter's first
  compaction (at the QP the search probes first) while each block is in
  cache, and the coefficients and candidates live in the output arrays
  (``recon`` and ``levels``) until the last pass, which consumes a block's
  coefficients before writing its pixels.
- RANSAC's hypothesis loop (``ransac_pairs``, behind ``ransac_linear``) is
  one call per system: draw a pair, solve it, score every equation, stop
  adaptively.  Its reference, ``_ransac_pairs_reference``, takes no BLAS or
  LAPACK call — ``np.linalg.solve`` and ``a @ x`` use FMA wherever the
  OpenBLAS kernel picked for the CPU does, which no fixed operation order
  reproduces — but scalar partial-pivot LU and an elementwise residual,
  which C writes in the same IEEE order.  The pairs are the caller's own
  draws: the loop calls the generator's ``next_uint32`` through numpy's C
  interface (``bit_generator.ctypes``, under ``bit_generator.lock``) and
  replays ``Generator.choice(n, 2, replace=False)`` — Floyd's two bounded
  draws and a one-swap shuffle, each bound numpy's Lemire rejection on one
  32-bit word — so the generator ends where the reference leaves it,
  buffered half-word included.  That replay rests on numpy's ``choice``
  (checked on numpy 2.4.6): a release that draws otherwise fails the probe
  by name.  The adaptive stop is a per-count table numpy computes with the
  reference's own ``log1p`` / ``log`` expression (C's libm is not numpy's
  SIMD ``log``), and a system of ``2^32`` or more rows — numpy draws its
  pairs 64 bits at a time — is declined.
- The foreground clustering (``foreground_clusters``, behind
  ``repro.core.clustering.foreground_clusters``) is one call per moving
  frame: ``region_grow``, the ``merge_clusters`` fixpoint and
  ``clusters_to_mask``, whose three-call sequence is its reference.  Every
  gap is libm's ``hypot``: numpy's float64 ``np.hypot`` is that very call,
  and ``region_grow``'s ``math.hypot`` decides only gaps further than its
  guard band from ``similarity``, where no last-bit difference changes a
  side.  The running means are the reference's IEEE expressions in its
  order (a seed's ``(0.0 * 0 + v) / 1`` turns -0.0 into 0.0).  The merge's
  ``_near`` is a scan of a label grid, one cluster id per block, within the
  Chebyshev reach, behind the same bounding-box test; a merge relabels the
  absorbed blocks and appends its linked block list, so the block order is
  the reference's ``extend``.  The hulls are integer arithmetic — Andrew's
  chain over each column's topmost and bottommost block, whose strictly
  convex vertices are those of all the blocks, then the row-span fill with
  a flooring division (the bounds go negative on right-to-left edges).
  The merge angle is the one step C does not replay: ``np.dot`` is
  OpenBLAS's ``ddot`` (FMA on hosts that have it) and ``np.arccos`` numpy's
  SIMD code, neither libm's.  C takes the plain dot and libm's ``acos``
  and decides a pair only when its angle lands more than ``ANGLE_BAND``
  (1e-9 rad) from ``max_angle``; closer, it declines the frame.  The two
  spellings share the norms (``hypot``), so their cosines differ by the
  dot's rounding alone — at most 4u|a||b| between two 2-term sums, u =
  2^-53, so a few ulps after the shared division — and, with ``max_angle``
  at least ``_ANGLE_EDGE`` from 0 and pi, acos's slope 1/sin turns that into
  well under 1e-11 rad wherever an angle could straddle ``max_angle``, plus
  an ulp or two of each ``acos``.  Closer to 0 or pi the slope is unbounded,
  and such a ``max_angle`` is declined outright, as are a field that is not
  float64 ``(rows, cols, 2)`` with every component below 2^500 (beyond, a
  dot of two means could overflow), masks that are not bool on the grid, a
  non-finite threshold and scratch that could not be allocated.
- Before the first use in a process a self-probe walks
  :func:`_probe_table` — one row per hook, plus the pairwise sum everything
  above rests on — and runs every C kernel of the object just loaded, built
  for this CPU, against its reference on adversarial random inputs; any
  mismatch marks the backend unavailable, and ``auto`` resolves to the
  ``numpy`` reference.

Every kernel call is re-entrant: the C code keeps no state between calls
and its scratch (the search's padded reference, blocks and memo, MC's border
tile, a macroblock's predictions, |differences| and residual, a rate
counter's candidate list, a P-frame's prediction) is allocated per call or
per counter,
so concurrent encodes (``agent_workers > 1`` — ctypes drops the GIL
around each call) cannot see each other's data; RANSAC's only shared state
is the caller's generator, whose own lock it holds while it draws.

The shared object is compiled once per source, flag list and host CPU
(:func:`_stem`) with the system ``cc``/``gcc``/``clang`` — without
``-march=native`` when the compiler rejects it — into a private per-user
cache directory
(``$XDG_CACHE_HOME/repro/kernels``, default ``~/.cache/repro/kernels``;
the temp dir is the fallback when the home is read-only).  A directory
that is not owned by this user with mode 0700 is never loaded from, and
the object is written under a unique name and moved into place
atomically, named after its own content hash, so concurrent first runs
cannot load a half-written file and a truncated one is rebuilt.  Each
load refreshes its object's mtime and deletes every ``kernels-*.so`` in
the cache that no process has loaded for :data:`_CACHE_MAX_AGE` — under
any stem, but only by age: the objects of other sources, flag lists and
CPUs that are still in use stay.
Hosts without a C compiler, or without the source file, report the
backend unavailable, with the reason in :meth:`CExtBackend.why_unavailable`.
"""

from __future__ import annotations

import copy
import ctypes
import dataclasses
import functools
import hashlib
import os
import pickle
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

#: Seconds after its last load that a cached object is deleted (30 days).
_CACHE_MAX_AGE = 30 * 24 * 3600.0

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_F64 = ctypes.c_double

#: The merge angles ``foreground_clusters`` decides in C: at least this far
#: from 0 and pi, where acos's slope is at most 1 / sin(1e-3) = 1000.
_ANGLE_EDGE = 1e-3

#: Field components C clusters: a dot or product of two means stays finite.
_MV_LIMIT = 2.0**500

#: Motion vectors C compensates: a floored component and the tap indices
#: built from it stay far inside int64.
_MV_REACH = 2.0**31

#: Every C entry point: ``name: (restype, argtypes)``.  ``None`` is a void
#: entry point; any other answers non-zero (or negative) for input the
#: reference must answer.
_ENTRY_POINTS = {
    "pairwise_rows": (None, [_PTR, _I64, _I64, _PTR]),
    "pattern_search": (_I64, [_PTR, _PTR, _I64, _I64, _I64, _I64, _I64, _F64, _I64, _PTR, _I64, _PTR, _PTR]),
    "motion_comp": (_I64, [_PTR, _PTR, _I64, _I64, _I64, _PTR]),
    "render_surfaces": (_I64, [_PTR, _I64, _I64, _PTR, _F64, _F64, _PTR, _PTR, _I64, _PTR, _PTR, _PTR,
                               _PTR, _PTR, _PTR, _PTR, _PTR]),
    "render_sky": (_I64, [_PTR, _I64, _PTR, _PTR, _PTR, _PTR, _PTR]),
    "dct8": (_I64, [_PTR, _I64, _I64, _I64, _I64, _PTR]),
    "quant_cost": (_I64, [_PTR, _I64, _I64, _I64, _I64, _I64, _PTR, _PTR, _PTR]),
    "rc_compact": (_I64, [_PTR, _I64, _I64, _I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR]),
    "rc_bits": (_F64, [_PTR, _PTR, _PTR, _I64, _I64, _PTR]),
    "reconstruct": (_I64, [_PTR, _PTR, _I64, _I64, _I64, _PTR, _PTR]),
    "inter_encode": (_I64, [_PTR, _PTR, _PTR, _I64, _I64, _I64, _PTR, _I64, _I64, _PTR, _F64, _I64, _PTR, _PTR,
                            _PTR, _PTR]),
    "intra_encode": (_I64, [_PTR, _PTR, _I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR]),
    "intra_decode": (_I64, [_PTR, _PTR, _PTR, _I64, _I64, _I64, _PTR]),
    "ransac_pairs": (_I64, [_PTR, _PTR, _I64, _F64, _PTR, _I64, _PTR, _PTR, _PTR, _PTR, _PTR]),
    "foreground_clusters": (_I64, [_PTR, _PTR, _PTR, _I64, _I64, _F64, _I64, _F64, _I64, _F64, _F64, _I64,
                                   _PTR, _PTR, _PTR, _PTR]),
}


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
    for name, (restype, argtypes) in _ENTRY_POINTS.items():
        func = getattr(lib, name)
        func.restype = restype
        func.argtypes = argtypes
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
                lib = _load(so_path)
                break
        except (OSError, AttributeError):
            pass
        so_path.unlink(missing_ok=True)
    else:
        so_path = _compile(cache, stem)
        try:
            lib = _load(so_path)
        except (OSError, AttributeError) as exc:
            raise _Unavailable(f"cannot load {so_path}: {exc}") from None
    _prune_cache(cache, so_path)
    return lib


def _prune_cache(cache: Path, loaded: Path) -> None:
    """Mark ``loaded`` as just used, and delete every cached object, of any
    stem, whose mtime is :data:`_CACHE_MAX_AGE` older than that."""
    try:
        os.utime(loaded)
        cutoff = loaded.stat().st_mtime - _CACHE_MAX_AGE
    except OSError:
        return
    for so_path in cache.glob("kernels-*.so"):
        try:
            if so_path.stat().st_mtime < cutoff:
                so_path.unlink()
        except OSError:  # another process deleted it first
            pass


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
    """ctypes call wrappers over one loaded library, one per hook of
    :data:`KERNEL_NAMES`: each answers as its reference would, or returns
    ``None`` for an input it will not take, and the dispatch site then runs
    the reference.  No wrapper calls a reference itself.

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
        """``motion_compensate``'s prediction, or ``None`` when the reference
        must answer (its exceptions included): a field that does not tile
        the plane, a vector C cannot floor to int64 (NaN, inf, past
        ``_MV_REACH``), a NaN output pixel."""
        plane = np.ascontiguousarray(reference, dtype=np.float32)
        grid = _grid(plane, block, (np.float32,))
        if grid is None or _grid(mv, tail=(2,)) != grid:
            return None
        vectors = np.ascontiguousarray(mv, dtype=np.float64)
        if not (np.abs(vectors) < _MV_REACH).all():
            return None
        out = np.empty(plane.shape, dtype=np.float32)
        if self._lib.motion_comp(plane.ctypes.data, vectors.ctypes.data, *grid, block, out.ctypes.data):
            return None
        return out

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
        """``intra_encode``: the whole frame in one call, or ``None`` when the
        reference must answer (its exceptions included): arguments the C
        loops could not index, a non-finite transform, a level too large to
        cost in integers."""
        from repro.codec.intra import _MODE_BITS
        from repro.codec.transform import qstep

        pixels = np.ascontiguousarray(frame, dtype=np.float64)
        qp = np.asarray(qp_map, dtype=float)
        grid = _grid(pixels, block, (np.float64,), maps=(qp,))
        if grid is None:
            return None
        h, w = pixels.shape
        q = qstep(qp)
        levels = np.empty((h // 8, 8, w // 8, 8), dtype=np.float64)
        modes = np.empty(grid, dtype=np.int8)
        recon = np.empty_like(pixels)
        bits_per_mb = np.empty(grid, dtype=np.float64)
        if self._lib.intra_encode(
            pixels.ctypes.data, q.ctypes.data, *grid, block,
            levels.ctypes.data, modes.ctypes.data, recon.ctypes.data, bits_per_mb.ctypes.data,
        ):
            return None
        bits_per_mb += _MODE_BITS
        return levels, modes, recon, bits_per_mb

    def intra_decode(self, levels, modes, qp_map, *, block=16):
        """``intra_decode``: the whole frame in one call, or ``None`` when the
        reference must answer: modes that are not an integer array, levels
        or maps off one grid, a non-finite transform."""
        from repro.codec.transform import qstep

        if not (isinstance(modes, np.ndarray) and modes.dtype.kind in "iub"):
            return None
        qp = np.asarray(qp_map, dtype=float)
        grid = _grid(levels, block, blocks=True, maps=(modes, qp))
        if grid is None:
            return None
        coded = np.ascontiguousarray(levels, dtype=np.float64)
        mode_map = np.ascontiguousarray(modes, dtype=np.int64)
        q = qstep(qp)
        recon = np.empty((grid[0] * block, grid[1] * block), dtype=np.float64)
        if self._lib.intra_decode(
            coded.ctypes.data, mode_map.ctypes.data, q.ctypes.data, *grid, block, recon.ctypes.data,
        ):
            return None
        return recon

    def quantize_cost(self, coeffs, qp_per_mb, *, mb_size=16):
        """``quantize_cost``: one pass over the coefficients, float32 read in
        place, or ``None`` when the reference must answer: geometry the C
        loop could not index (the reference raises on it, or reads a layout
        C does not), NaN / inf, a level too large to cost in integers."""
        from repro.codec.transform import qstep

        q = qstep(np.ascontiguousarray(qp_per_mb, dtype=float))
        grid = _grid(coeffs, mb_size, (np.float32, np.float64), blocks=True, maps=(q,))
        if grid is None:
            return None
        levels = np.empty(coeffs.shape, dtype=np.float64)
        bits_per_mb = np.empty(grid, dtype=np.float64)
        if self._lib.quant_cost(
            coeffs.ctypes.data, coeffs.dtype == np.float32, coeffs.shape[2] * 8, *grid, mb_size,
            q.ctypes.data, levels.ctypes.data, bits_per_mb.ctypes.data,
        ):
            return None
        return levels, bits_per_mb

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
        8x8 blocks, clip the prediction under the others, in one call — or
        ``None`` when the reference must answer: a wrong shape / dtype /
        stride, an infinite step (0 * inf is NaN, so an all-zero block under
        it is not skippable), a level past the limit, a non-finite residual,
        a -0.0 / NaN prediction pixel under a skipped block."""
        from repro.codec.transform import qstep

        q = qstep(np.ascontiguousarray(qp_per_mb, dtype=float))
        grid = _grid(levels, mb_size, (np.float64,), blocks=True, maps=(q,), finite=True)
        if grid is None or _grid(prediction, mb_size, (np.float32,)) != grid:
            return None
        out = np.empty(prediction.shape, dtype=np.float32)
        if self._lib.reconstruct(
            prediction.ctypes.data, levels.ctypes.data, levels.shape[0], levels.shape[2],
            mb_size // 8, q.ctypes.data, out.ctypes.data,
        ):
            return None
        return out

    def inter_encode(self, frame, reference, mv, offsets, *, block, budget, base_qp, hint):
        """``_inter_encode_reference`` in one call — ``(levels, bits_per_mb,
        chosen_qp, probes, reconstruction)`` — or ``None`` when the reference
        must answer: planes the C loops could not index as they stand (not
        C-contiguous float32 of one grid), a field off the grid or a vector
        past ``_MV_REACH``, an offset map off the grid or holding a NaN, not
        exactly one of ``budget`` and ``base_qp``, and wherever a stage's own
        hook declines (a NaN prediction pixel, a non-finite transform, a
        level the bit model cannot cost in integers, a -0.0 prediction pixel
        under a skipped block)."""
        from repro.codec.encoder import _MAX_QP
        from repro.codec.transform import qstep

        grid = _grid(frame, block, (np.float32,))
        if not (
            grid is not None
            and _grid(reference, block, (np.float32,)) == grid
            and _grid(mv, tail=(2,)) == grid
            and np.shape(offsets) == grid
            and (budget is None) != (base_qp is None)
        ):
            return None
        vectors = np.ascontiguousarray(mv, dtype=np.float64)
        if not (np.abs(vectors) < _MV_REACH).all():
            return None
        # Every step numpy's qstep would compute for this frame — per base
        # QP searched (or the one fixed QP) and distinct offset — so each is
        # numpy's power, not C's pow.
        offsets = np.asarray(offsets, dtype=np.float64).ravel()
        distinct = np.unique(offsets)
        chosen = None if base_qp is None else float(np.clip(base_qp, 0, _MAX_QP))
        base = np.arange(_MAX_QP + 1.0) if chosen is None else np.array([chosen])
        table = qstep(np.clip(base[:, None] + distinct, 0, _MAX_QP))
        if not np.isfinite(table).all():
            return None
        column = np.searchsorted(distinct, offsets).astype(np.int64)
        h, w = frame.shape
        levels = np.empty((h // 8, 8, w // 8, 8), dtype=np.float64)
        bits_per_mb = np.empty(grid, dtype=np.float64)
        recon = np.empty((h, w), dtype=np.float32)
        qp_probes = np.empty(2, dtype=np.int64)
        if self._lib.inter_encode(
            frame.ctypes.data, reference.ctypes.data, vectors.ctypes.data, *grid, block,
            table.ctypes.data, *table.shape, column.ctypes.data,
            0.0 if budget is None else float(budget), -1 if hint is None else min(max(int(hint), 0), _MAX_QP),
            levels.ctypes.data, bits_per_mb.ctypes.data, recon.ctypes.data, qp_probes.ctypes.data,
        ):
            return None
        qp, probes = qp_probes.tolist()
        return levels, bits_per_mb, float(qp) if chosen is None else chosen, probes, recon

    def ransac_pairs(self, a, b, threshold, max_iterations, rng):
        """``_ransac_pairs_reference``: the whole hypothesis loop in one call,
        drawing from ``rng``'s bit generator under its lock, or ``None`` when
        the reference must answer — a system that is not ``(n, 2)`` / ``(n,)``
        float64 with ``2 <= n < 2^32`` (numpy draws from larger ranges 64 bits
        at a time), a threshold that is not a float, an iteration bound that
        is not an int64, a generator that is not a numpy ``Generator``."""
        from repro.utils.ransac import _needed_table

        if not (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and isinstance(rng, np.random.Generator)
            and a.dtype == b.dtype == np.float64 and a.ndim == 2 and a.shape[1] == 2
            and b.shape == a.shape[:1] and 2 <= a.shape[0] < 2**32
            and type(max_iterations) is int and 1 <= max_iterations < 2**63
            and isinstance(threshold, (float, int)) and float(threshold) == threshold
        ):
            return None
        n = a.shape[0]
        a = np.ascontiguousarray(a)
        b = np.ascontiguousarray(b)
        needed = _needed_table(n, max_iterations)
        best, work = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
        count = np.empty(1, dtype=np.int64)
        bitgen = rng.bit_generator
        iface = bitgen.ctypes
        with bitgen.lock:
            iterations = self._lib.ransac_pairs(
                a.ctypes.data, b.ctypes.data, n, float(threshold), needed.ctypes.data, max_iterations,
                ctypes.cast(iface.next_uint32, _PTR).value, iface.state_address,
                best.ctypes.data, work.ctypes.data, count.ctypes.data,
            )
        best_count = int(count[0])
        return iterations, (best if best_count >= 0 else None), best_count

    def foreground_clusters(self, mv, seed_mask, blocked_mask, *, similarity, min_cluster_size, min_magnitude,
                            merge, max_angle, max_magnitude_ratio, max_distance):
        """``repro.core.clustering._packed_reference`` in one call — ``(means,
        members, starts, mask)`` — or ``None`` when the reference must answer:
        a field that is not float64 ``(rows, cols, 2)`` with components below
        ``_MV_LIMIT``, masks that are not bool on its grid, a non-finite
        threshold, a cluster size that is not an int, a merge angle closer
        than ``_ANGLE_EDGE`` to 0 or pi or one a pair lands within
        ``ANGLE_BAND`` of, scratch C could not allocate."""
        if isinstance(mv, np.ndarray):
            mv = np.ascontiguousarray(mv)
        grid = _grid(mv, dtypes=(np.float64,), tail=(2,))
        if grid is None or not (grid[0] and grid[1]):
            return None
        if blocked_mask is None:
            blocked_mask = np.zeros(grid, dtype=bool)
        thresholds = [similarity, min_magnitude] + ([max_angle, max_magnitude_ratio, max_distance] if merge else [])
        if not (
            all(isinstance(m, np.ndarray) and m.dtype == np.bool_ and m.shape == grid
                for m in (seed_mask, blocked_mask))
            and type(min_cluster_size) is int
            and np.isfinite(thresholds).all()
            and (not merge or _ANGLE_EDGE <= max_angle <= np.pi - _ANGLE_EDGE)
            and (np.abs(mv) < _MV_LIMIT).all()
        ):
            return None
        rows, cols = grid
        n = rows * cols
        seeds, blocked = np.ascontiguousarray(seed_mask), np.ascontiguousarray(blocked_mask)
        means, members = np.empty((n, 2), dtype=np.float64), np.empty(n, dtype=np.int64)
        starts, mask = np.empty(n + 1, dtype=np.int64), np.empty(grid, dtype=bool)
        # Sizes past [0, n + 1] and reaches past the grid compare as these do.
        k = self._lib.foreground_clusters(
            mv.ctypes.data, seeds.ctypes.data, blocked.ctypes.data, rows, cols, float(similarity),
            min(max(min_cluster_size, 0), n + 1), float(min_magnitude), bool(merge),
            float(max_angle) if merge else 0.0, float(max_magnitude_ratio) if merge else 0.0,
            min(int(np.floor(max_distance)), rows + cols) if merge else 0,
            means.ctypes.data, members.ctypes.data, starts.ctypes.data, mask.ctypes.data,
        )
        if k < 0:
            return None
        return means[:k], members[: starts[k]], starts[: k + 1], mask

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
                if not row.same(row.call(hook, args, kwargs), row.call(row.reference, args, kwargs)):
                    return f"{row.hook} ({label})"
        return None


def _same_answer(got, want) -> bool:
    """Whether a hook's answer — an array or a tuple of arrays — is the
    reference's to the bit; a declined call (``None``) never is."""
    if isinstance(want, tuple):
        return isinstance(got, tuple) and len(got) == len(want) and all(map(_same_bytes, got, want))
    return got is not None and _same_bytes(got, want)


def _same_or_declined(got, want) -> bool:
    """:func:`_same_answer`, or both declined (``None``)."""
    return got is want is None or _same_answer(got, want)


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


def _same_coding(got, want) -> bool:
    """Whether a coded P-frame — its arrays to the bit, its chosen QP and
    probe count by value and type — is the reference's."""
    return got is not None and len(got) == len(want) and all(
        _same_bytes(g, w) if isinstance(w, np.ndarray) else type(g) is type(w) and g == w for g, w in zip(got, want)
    )


def _inter_cases(gen) -> list:
    """``inter_encode`` cases: noise that moved, under quarter-pel fields
    reaching up to 20 px past every frame edge and integer ones, offset maps
    that are zero, fractional and saturating at QP 0 / 51; CBR budgets
    between the ends, under QP 51's bits and over QP 0's, from no hint and
    from hints on both sides of the answer; CRF QPs inside and past the
    range."""
    cases = []
    for block, shape in ((16, (48, 64)), (8, (32, 40))):
        grid = (shape[0] // block, shape[1] // block)
        ref = gen.uniform(0.0, 255.0, size=shape).astype(np.float32)
        frame = np.clip(np.roll(ref, (2, -3), axis=(0, 1)) + gen.normal(0.0, 6.0, size=shape), 0.0, 255.0)
        frame = frame.astype(np.float32)
        quarter = (gen.integers(-80, 81, size=(*grid, 2)) * 0.25).astype(np.float32)
        whole = gen.integers(-20, 21, size=(*grid, 2)).astype(np.float32)
        fractional = gen.uniform(-4.0, 9.0, size=grid)
        saturating = gen.choice([-60.0, 0.0, 3.5, 60.0], size=grid)
        runs = [
            ("quarter-pel, no hint", quarter, fractional, dict(budget=9000.0, base_qp=None, hint=None)),
            ("whole-pel, hint above", whole, np.zeros(grid), dict(budget=9000.0, base_qp=None, hint=51)),
            ("quarter-pel, hint below", quarter, saturating, dict(budget=20000.0, base_qp=None, hint=2)),
            ("under QP 51's bits", quarter, fractional, dict(budget=1.0, base_qp=None, hint=30)),
            ("over QP 0's bits", whole, fractional, dict(budget=1e9, base_qp=None, hint=None)),
            ("CRF", quarter, saturating, dict(budget=None, base_qp=23.5, hint=7)),
            ("CRF past 51", whole, fractional, dict(budget=None, base_qp=80.0, hint=None)),
        ]
        cases += [(f"block {block}, {label}", (frame, ref, mv, offsets), dict(params, block=block))
                  for label, mv, offsets, params in (runs if block == 16 else runs[::3])]
    return cases


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


def _lane_cases(gen) -> tuple[list, object]:
    """``render_surfaces`` cases for the kernel's eight-pixel batches, and the
    scene of the last one: small frames where no surface covers a multiple
    of eight pixels (every surface ends on a short, padded batch); ground
    rays in rows of eight, one batch each, with a negative x and z in each
    lane position in turn, and on the dashed lane lines with one lane per
    batch, in each position in turn, past 2^51 (the remainder's ``fmod``
    fix-up); and, last, ground rays with one lane's noise coordinate past
    int64, a frame the kernel must decline whole."""
    from repro.geometry.camera import CameraIntrinsics
    from repro.world import EgoTrajectory, Renderer, Scene, StraightSegment, building, parked_car, pedestrian
    from repro.world.renderer import Placed

    cases = []
    scene = Scene(trajectory=EgoTrajectory([StraightSegment(1.0, 8.0)]), texture_seed=6,
                  objects=[building(-4.0, 13.0, seed=11), parked_car(1.1, 8.0, seed=12), pedestrian(-0.8, 6.0, seed=13)])
    for width, height in ((23, 13), (29, 17)):
        _, dirs, origin, placed = Renderer(CameraIntrinsics(focal=12.0, width=width, height=height))._prepare(scene, 0.2)
        cases.append((f"{width}x{height} frame, short last batches", (dirs, origin, scene, placed), {}))

    def ground(x, z):
        """Rays meeting the ground at world (x, z), raster order: from 1 m
        above it, a ray with dy = 1 lands at its own x and z."""
        rays = np.empty((*np.shape(z), 3))
        rays[..., 0], rays[..., 1], rays[..., 2] = x, 1.0, z
        return rays

    nothing = Placed.by_hand([], [], 0.0)
    origin = np.array([0.0, -1.0, 0.0])
    # Row b < 8: lane b negative; then a row all negative, one alternating.
    signs = np.vstack([1.0 - 2.0 * np.eye(8), -np.ones(8), np.resize([1.0, -1.0], 8)])
    xz = gen.uniform(0.0, 40.0, size=(2, 10, 8)) * signs
    cases.append(("negative x and z in every lane", (ground(xz[0], xz[1]), origin, scene, nothing), {}))
    # Lane b of row b on a multiple of 6 (a dash starts) or half a period
    # past one (it ends), both signs, past 2^51; the other lanes small.
    z = gen.uniform(-30.0, 30.0, size=(8, 8))
    k = 2**49 + gen.integers(0, 2**40, size=8)
    z[np.arange(8), np.arange(8)] = (6.0 * k + np.resize([0.0, 3.0, 0.0, 3.0], 8)) * np.resize([1, 1, -1, -1], 8)
    lines = np.resize([1.75, -1.75], (8, 8))
    cases.append(("one lane per batch past 2^51", (ground(lines, z), origin, scene, nothing), {}))
    # The fine octave (x / 0.35) of one lane past 2^63, under a scene of its
    # own: the row's reference answers that scene with the decline.
    declined = dataclasses.replace(scene)
    z = gen.uniform(-30.0, 30.0, size=(3, 8))
    z[1, 5] = 2.0**62
    cases.append(("one lane's noise coordinate past int64", (ground(lines[:3], z), origin, declined, nothing), {}))
    return cases, declined


def _same_draws(got, want) -> bool:
    """Whether a RANSAC loop's answer — ``(iterations, best mask or None,
    best count)`` — and the generator state it left behind are the
    reference's (see :func:`_on_a_copy`)."""
    (answer, state), ((iterations, mask, count), want_state) = got, want
    return (
        answer is not None and state == want_state and answer[0] == iterations and answer[2] == count
        and (answer[1] is None if mask is None else answer[1] is not None and _same_bytes(answer[1], mask))
    )


def _on_a_copy(fn, args, kwargs):
    """Call ``fn`` on a copy of the case's generator (its last argument), so
    that hook and reference draw from the same state: the answer and the
    copy's whole state afterwards, buffered half-words included."""
    *head, rng = args
    rng = copy.deepcopy(rng)
    return fn(*head, rng, **kwargs), pickle.dumps(rng.bit_generator.state)


def _ransac_cases(gen) -> list:
    """``ransac_pairs`` cases: Eq. (7)-shaped systems with a consensus and
    without one, the degenerate pairs, residuals exactly on the threshold,
    pivots tied in magnitude, draws that Lemire's rejection redraws, and
    every numpy bit generator, one of them holding a buffered half-word."""
    def eq7(n, inliers):
        x, y = gen.uniform(-150.0, 150.0, n), gen.uniform(-90.0, 90.0, n)
        r = np.maximum(np.hypot(x, y), 1e-6)
        a = np.stack([-400.0 * x / r, -400.0 * y / r], axis=1)
        b = a @ gen.normal(0.0, 0.004, 2) + gen.normal(0.0, 0.2, n)
        b[int(inliers * n):] += gen.normal(0.0, 8.0, n - int(inliers * n))
        return a, b

    a70, b70 = eq7(70, 0.6)
    a500, b500 = eq7(500, 0.0)
    # Rows on one ray through the FOE are equal: every pair among them is
    # singular, as is every pair of all-zero rows.
    collinear, b_col = eq7(40, 0.7)
    collinear[::2] = collinear[0]
    zeros, b_zero = eq7(30, 0.8)
    zeros[gen.uniform(size=30) < 0.5] = 0.0
    tiny = 5e-324
    subnormal = np.array([[tiny, 1.0], [0.0, 2.0], [-tiny, -1.0], [3 * tiny, 0.5], [2 * tiny, 1.0], [-tiny, 3.0],
                          [1e-310, 1.0], [0.0, 0.0]])
    # Small integers: every residual is exact, and many sit on the threshold.
    ints = gen.integers(-3, 4, size=(24, 2)) * 1.0
    b_ints = gen.integers(-4, 5, size=24) * 1.0
    # Column 0 tied in magnitude in every pair, and a threshold equal to the
    # residual of row 2 under the pair (0, 1): which row of a pair pivots
    # moves residuals by an ulp, and this one across the threshold.
    ties = np.array([[3.0, -0.57], [-3.0, -1.07], [-3.0, -0.85], [-3.0, 1.31]])
    b_ties = np.array([0.04, -1.17, 0.01, -1.56])

    def advanced(outputs):
        """PCG64(2024) after ``outputs`` 64-bit draws: the next 32-bit word
        falls in the gap between Lemire's threshold ``2^32 mod (n - 1)`` and
        ``(2^32 - 1) mod (n - 2)`` for the first draw of n = 327 (kept, where
        the other threshold would redraw) and n = 934 (redrawn)."""
        bits = np.random.PCG64(2024)
        bits.advance(outputs)
        return np.random.Generator(bits)

    buffered = np.random.default_rng(41)
    buffered.choice(70, 2, replace=False)  # three 32-bit words: half of one is left
    return [
        ("eq7 n=70, consensus", (a70, b70, 0.75, 64, np.random.default_rng(1)), {}),
        ("eq7 n=500, no consensus", (a500, b500, 0.75, 64, np.random.default_rng(2)), {}),
        ("n=3", (a70[:3], b70[:3], 0.75, 64, np.random.default_rng(3)), {}),
        ("n=4", (a70[:4], b70[:4], 0.75, 64, np.random.default_rng(4)), {}),
        ("collinear with the FOE", (collinear, b_col, 0.75, 64, np.random.default_rng(5)), {}),
        ("all-zero rows", (zeros, b_zero, 0.75, 64, np.random.default_rng(6)), {}),
        ("subnormal pivots", (subnormal, np.array([1.0, 2.0, -1.0, 0.5, 2.0, 3.0, 1.0, 0.0]), 0.25, 64,
                              np.random.default_rng(7)), {}),
        ("small integers on the threshold", (ints, b_ints, 1.0, 64, np.random.default_rng(8)), {}),
        ("pivots tied in magnitude", (ties, b_ties, float.fromhex("0x1.07462e7462e73p+0"), 64,
                                      np.random.default_rng(555)), {}),
        ("Lemire keeps, n=327", (*eq7(327, 0.0), 0.75, 64, advanced(66745)), {}),
        ("Lemire redraws, n=934", (*eq7(934, 0.0), 0.75, 64, advanced(88338)), {}),
        ("buffered half-word", (a70, b70, 0.75, 64, buffered), {}),
        *((f"{bits.__name__}", (a70, b70, 0.5, 64, np.random.Generator(bits(9))), {})
          for bits in (np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64)),
        ("max_iterations 1", (a70, b70, 0.75, 1, np.random.default_rng(10)), {}),
    ]


def _foreground_cases(gen) -> list:
    """``foreground_clusters`` cases: gaps exactly on ``similarity`` (3-4-5
    integers, quarter-pel fields), -0.0 seeds, clusters dropped by size whose
    blocks still stop growth, one-row, one-column, all-seed and seedless
    grids, fragmented objects that merge and fill (right-to-left hull edges
    included), straight-line clusters, and merge reaches of 0 and past the
    grid."""
    def objects(rows, cols, quarter_pel):
        """Forward flow under fragmented objects, a block or two apart, whose
        vectors nearly agree: what merging and the contours are for."""
        yy, xx = np.mgrid[0:rows, 0:cols]
        field = np.stack([(xx - cols / 2) * 0.05, (yy - rows / 3) * 0.04], axis=-1)
        field += gen.normal(scale=0.1, size=field.shape)
        for _ in range(rows * cols // 40):
            r, c = int(gen.integers(0, rows)), int(gen.integers(0, cols))
            vector = gen.normal(scale=2.0, size=2)
            for _ in range(int(gen.integers(1, 4))):
                h, w = int(gen.integers(1, 5)), int(gen.integers(1, 6))
                patch = field[r : r + h, c : c + w]
                patch[...] = vector * gen.uniform(0.8, 1.6) + gen.normal(scale=0.15, size=patch.shape)
                r, c = max(0, r + int(gen.integers(-2, 3))), max(0, c + w + int(gen.integers(0, 3)))
        return np.round(field * 4) / 4 if quarter_pel else field

    def case(label, mv, seed_share=0.2, blocked_share=0.15, **kwargs):
        rows, cols = mv.shape[:2]
        seeds = gen.uniform(size=(rows, cols)) < seed_share
        blocked = (gen.uniform(size=(rows, cols)) < blocked_share) & ~seeds
        params = dict(similarity=1.5, min_cluster_size=2, min_magnitude=0.3, merge=True, max_angle=np.pi / 8,
                      max_magnitude_ratio=2.5, max_distance=2)
        return (label, (np.ascontiguousarray(mv, dtype=np.float64), seeds, blocked), {**params, **kwargs})

    # A seed at rest, then 3-4-5 steps: each gap to the block and to the mean is 5.
    row = np.array([[[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [6.0, 3.0], [2.0, 0.0]]])
    ties = [("3-4-5 gaps on the threshold", (row, row[..., 0] == 0.0, np.zeros((1, 5), dtype=bool)),
             dict(similarity=5.0, min_cluster_size=1, min_magnitude=0.0, merge=False, max_angle=np.pi / 8,
                  max_magnitude_ratio=2.5, max_distance=2))]
    signed = gen.choice([0.0, -0.0, 0.25, -0.25, 0.5], size=(7, 9, 2))
    straight = np.zeros((9, 12, 2))
    straight[2, 1:10] = (1.5, 0.5)
    straight[4:9, 3] = (1.4, 0.6)
    straight[6, 5:11] = (-2.0, 0.25)
    return ties + [
        case("3-4-5 integers", gen.integers(-4, 5, size=(8, 11, 2)) * 1.0, seed_share=0.3, similarity=5.0,
             max_distance=1),
        case("quarter-pel objects", objects(18, 30, True)),
        case("objects", objects(20, 34, False), min_cluster_size=1, max_distance=3),
        case("-0.0 components", signed, seed_share=0.4, blocked_share=0.0, min_magnitude=0.0, similarity=0.25,
             min_cluster_size=1),
        case("dropped clusters stop growth", objects(12, 16, True), seed_share=0.5, min_cluster_size=4),
        case("one row", objects(1, 40, True), seed_share=0.3, min_cluster_size=1),
        case("one column", objects(30, 1, True), seed_share=0.3, min_cluster_size=1),
        case("all seeds", objects(10, 14, True), seed_share=1.0, min_cluster_size=1),
        case("no seeds", objects(10, 14, True), seed_share=0.0),
        case("straight lines", straight, seed_share=0.5, blocked_share=0.0, min_cluster_size=1, max_distance=1),
        case("reach 0", objects(16, 24, True), max_distance=0),
        case("reach past the grid", objects(9, 13, True), min_cluster_size=1, max_distance=40.5,
             max_magnitude_ratio=1e6, max_angle=3.0),
        case("no merging", objects(16, 24, True), merge=False),
    ]


def _call(fn, args, kwargs):
    return fn(*args, **kwargs)


class _ProbeRow(NamedTuple):
    """One row of the self-probe: ``hook`` (a :class:`_CKernels` method) and
    ``reference`` each answer every ``(label, args, kwargs)`` case through
    ``call(fn, args, kwargs)``, and ``same(got, want)`` says whether the two
    answers agree to the bit."""

    hook: str
    reference: Callable
    cases: list
    same: Callable = _same_answer
    call: Callable = _call


def _rng(inputs: str) -> np.random.Generator:
    """The generator of the probe inputs named ``inputs`` (a row's, or the
    data rows share): what one row draws never moves another's inputs."""
    return np.random.default_rng([0xCE, *inputs.encode()])


def _probe_table() -> list[_ProbeRow]:
    """The self-probe: the pairwise sum, then one row per hook of
    :data:`KERNEL_NAMES`, over adversarial inputs, each row's from a seeded
    generator of its own (:func:`_rng`).  The fault tests index it by hook
    name."""
    from repro.codec.encoder import _inter_encode_reference
    from repro.codec.intra import _intra_decode_reference, _intra_encode_reference
    from repro.codec.motion import _motion_compensate_reference, _pattern_search_reference
    from repro.codec.transform import _quantize_cost_reference, _reconstruct_reference, _transform_reference
    from repro.core.clustering import _packed_reference
    from repro.geometry.camera import CameraIntrinsics
    from repro.utils.ransac import _ransac_pairs_reference
    from repro.world import EgoTrajectory, Renderer, Scene, SceneObject, StraightSegment, TurnSegment
    from repro.world import building, moving_car, parked_car, pedestrian
    from repro.world.objects import pole
    from repro.world.renderer import _render_surfaces_reference

    gen = _rng("pairwise_rows")
    # Pairwise summation, adversarial magnitudes.
    pairwise = [(f"n={n}", (np.exp(gen.normal(0.0, 12.0, size=(64, n))),), {}) for n in (49, 64, 200, 256, 1024)]
    # The 8x8 DCT both ways in both precisions: integer levels, signed zeros
    # among subnormals, magnitudes over decades, and up to where the type
    # nearly overflows (not past it: the hook declines a non-finite output).
    transform, gen = [], _rng("transform")
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
    search, compensate, gen, mc = [], [], _rng("pattern_search"), _rng("motion_compensate")
    for block, shape in ((16, (96, 128)), (8, (48, 64))):
        ref = gen.uniform(0, 255, size=shape).astype(np.float32)
        cur = np.roll(ref, (3, -7), axis=(0, 1))
        cur = np.clip(cur + gen.normal(0, 9, size=shape), 0, 255).astype(np.float32)
        params = dict(search_range=10, block=block, lambda_mv=4.0, subpel=True)
        search += [(f"{method}, block {block}", (cur, ref), dict(params, method=method)) for method in _ME_METHODS]
        plane = mc.uniform(0, 255, size=shape).astype(np.float32)
        mv = (mc.integers(-28, 29, size=(shape[0] // block, shape[1] // block, 2)) * 0.25).astype(np.float32)
        compensate.append((f"block {block}", (plane, mv), dict(block=block)))
    # Every block of a small frame on or past an edge, by up to twice the
    # frame: the clamped taps of motion_comp's border tiles.
    edges = np.random.default_rng(0xED)
    plane = edges.uniform(0.0, 255.0, size=(32, 48)).astype(np.float32)
    for quarter in (1, 4):
        mv = (edges.integers(-64 * quarter, 64 * quarter + 1, size=(4, 6, 2)) / quarter).astype(np.float32)
        compensate.append((f"block 8, past every edge, 1/{quarter} pel", (plane, mv), dict(block=8)))
    # -0.0 vector components over -0.0 pixels: the sign of a zero weight
    # shows in the sum.
    signed = np.where(edges.uniform(size=(32, 48)) < 0.5, -0.0, plane).astype(np.float32)
    mv = edges.choice([-0.0, 0.0, 0.5, -0.25, 1.0], size=(4, 6, 2)).astype(np.float32)
    compensate.append(("block 8, -0.0 components and pixels", (signed, mv), dict(block=8)))
    # Every block's window on the top-left corner (its taps one row up and
    # one column left outside), then on the bottom-right one (all inside).
    rows, cols = np.mgrid[0:4, 0:6] * 8.0
    for where, dx, dy in (("top-left", cols + 0.25, rows + 0.5), ("bottom-right", cols - 39.75, rows - 23.5)):
        mv = np.stack([dx, dy], axis=-1).astype(np.float32)
        compensate.append((f"block 8, every window on the {where} corner", (plane, mv), dict(block=8)))
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
    lanes, declined = _lane_cases(_rng("render_surfaces"))
    surfaces += lanes

    def surfaces_reference(dirs, origin, scene, placed):
        """The reference, or ``None`` for the frame the kernel must decline
        (a lane's noise coordinate past int64, where numpy's cast is
        platform-defined)."""
        return None if scene is declined else _render_surfaces_reference(dirs, origin, scene, placed)

    # The P-frame's transform tail on a 3 x 4 grid: coefficients on a
    # lattice of half steps (every rounding tie) and spread over decades,
    # two thirds of the blocks empty, one holding a single coefficient
    # and one only negative zeros; float64 and float32; QP maps that are
    # fractional, saturated at 0 / 51, and sixes (exact power-of-two steps).
    gen, predictions = _rng("transform tail"), _rng("reconstruct")
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
            prediction = predictions.uniform(-40.0, 295.0, size=(48, 64)).astype(np.float32)
            prediction[predictions.uniform(size=(48, 64)) < 0.1] = 0.0
            prediction[predictions.uniform(size=(48, 64)) < 0.1] = 255.0
            levels = _quantize_cost_reference(c, qp)[0]
            for kind, lv in (("coded", levels), ("none coded", np.zeros_like(levels)), ("all coded", levels + 1.0)):
                recon.append((f"{where}, {kind}", (prediction, lv, qp), {}))
    # I-frame wavefront, both directions: every border shape (one block,
    # one row, one column, ragged), content where all three SADs tie
    # (flat), where H or V wins (ramp), exact arithmetic (steps) and
    # noise, under fractional and 0/51-saturated QP maps.
    gen = _rng("intra")
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
        _ProbeRow("render_surfaces", surfaces_reference, surfaces, _same_or_declined),
        _ProbeRow("quantize_cost", _quantize_cost_reference, quant),
        _ProbeRow("rate_counter", _frame_bits_reference, counter, _same_bits),
        _ProbeRow("reconstruct", _reconstruct_reference, recon),
        _ProbeRow("intra_encode", encode_reference, encode),
        _ProbeRow("intra_decode", _intra_decode_reference, decode),
        _ProbeRow("ransac_pairs", _ransac_pairs_reference, _ransac_cases(_rng("ransac_pairs")), _same_draws,
                  _on_a_copy),
        _ProbeRow("foreground_clusters", _packed_reference, _foreground_cases(_rng("foreground_clusters"))),
        _ProbeRow("inter_encode", _inter_encode_reference, _inter_cases(_rng("inter_encode")), _same_coding),
    ]


class CExtBackend(KernelBackend):
    """Every hook of :data:`KERNEL_NAMES` in compiled C, bound once the
    self-probe has passed."""

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
