"""Run the kernel suites with ``src/repro/kernels/cext.c`` built under ASan + UBSan.

The 16 C entry points of ``cext.c`` write through raw pointers — the motion
search's per-block memo (a hash probe) and its in-C edge padding, motion
compensation's clamped border tiles, the rate counter's candidate list, the
8x8 transform's, the I-frame loops' and the P-frame loop's block walks over
caller-given planes (the P-frame's coefficients and candidates parked in
its output arrays), the renderer's image, id-buffer,
per-object statistics and sky gathers inside caller-given windows, and
RANSAC's row gathers at drawn indices and its two masks, and the
foreground clustering's BFS queue, linked block lists, label grid and hull
scratch; the
bit-exactness suites prove their *values*, this proves their *addresses*.
The runner appends the sanitizer flags to the ones ``cext.c`` is built with
(``repro.kernels.cext._CFLAGS``) in-process, before the first dispatch
builds anything — the cache stem hashes the flags, so the sanitised object
never collides with the normal one, and a report names ``cext.c:LINE`` —
and hands the suites to ``pytest.main``.  It is test tooling, not a product knob: ``repro``
reads no flag or environment variable for it.

The interpreter itself is not instrumented, so the ASan runtime has to be
loaded first and leak checking (CPython "leaks" by design) turned off::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so)" ASAN_OPTIONS=detect_leaks=0 \\
        PYTHONPATH=src python tests/run_sanitized_kernels.py [pytest args / test files]

Any ASan/UBSan finding aborts the process (``-fno-sanitize-recover=all``).
"""

import sys
from pathlib import Path

import pytest

from repro import kernels
from repro.kernels import cext

SANITIZER_FLAGS = ["-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-g"]

#: Every suite that drives a compiled kernel through its public seam.
SUITES = [
    "test_codec_kernels.py",
    "test_noise_kernel.py",
    "test_codec_intra.py",
    "test_intra_kernels.py",
    "test_inter_kernels.py",
    "test_transform_kernels.py",
    "test_golden_iframes.py",
    "test_golden_pframes.py",
    "test_golden_mvfields.py",
    "test_golden_e2e.py",
    "test_golden_frames.py",
    "test_render_kernel.py",
    "test_region_update.py",
    "test_ransac_kernel.py",
    "test_golden_rotation.py",
    "test_foreground_oracle.py",
    "test_golden_masks.py",
]


def main(argv: list[str]) -> int:
    cext._CFLAGS.extend(SANITIZER_FLAGS)
    if kernels.active().name != "cext":
        # Without this check a host that cannot build the sanitised object
        # would run everything on numpy and report a clean bill of health.
        print(f"sanitised cext did not build: {kernels.backend('cext').why_unavailable()}", file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parent
    return int(pytest.main(argv or ["-x", "-q", *(str(here / name) for name in SUITES)]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
