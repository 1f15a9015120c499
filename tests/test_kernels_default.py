"""The default kernel backend: lazy, proven, safe to fall back from.

``repro.kernels`` picks nothing at import.  The first dispatch resolves
``cext`` when the host can build it and it passes its bitwise self-probe,
and the ``numpy`` reference otherwise — these tests pin the laziness, the
single build under a thread race, the no-compiler and no-source fallbacks
(golden digest unchanged), the cache directory's safety rules, the object
built for and cached per CPU (and built anyway by a compiler without
``-march=native``), and the self-probe itself: a hook one ulp off, or a C source with one wrong line,
binds no hook and leaves ``auto`` on the reference.
"""

import ast
import os
import platform
import shlex
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import e2e_digest, run_golden_batch
from test_golden_e2e import GOLDEN_DIGEST
from test_golden_frames import annotation_tuples, frame_digest
from test_render_kernel import _bits

from repro import kernels
from repro.codec import VideoDecoder, VideoEncoder
from repro.kernels import cext
from repro.world import nuscenes_like

pytestmark = pytest.mark.kernels

SRC = Path(__file__).resolve().parents[1] / "src"
#: The PATH the suite was started with, before ``fresh_host`` empties it.
REAL_PATH = os.environ.get("PATH", "")


@pytest.fixture
def fresh_host(monkeypatch, tmp_path):
    """An unresolved registry on a host with empty cache directories.

    Returns the directory ``PATH`` points at: empty, so no compiler is
    found until a test drops one in.
    """
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (tmp_path / "tmp").mkdir()
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("TMPDIR", str(tmp_path / "tmp"))
    monkeypatch.setattr(tempfile, "tempdir", None)  # drop gettempdir()'s memo
    _fresh_cext(monkeypatch)
    return bin_dir


def _fresh_cext(monkeypatch):
    """An unresolved default and a new, unchecked ``cext`` in its place."""
    monkeypatch.setattr(kernels, "_active", None)
    fresh = cext.CExtBackend()
    monkeypatch.setitem(kernels._instances, "cext", fresh)
    return fresh


def _restore_compiler(monkeypatch):
    """Give a ``fresh_host`` its C compiler back (skip when there is none)."""
    if not any(shutil.which(c, path=REAL_PATH) for c in cext._COMPILERS):
        pytest.skip("no C compiler on this host")
    monkeypatch.setenv("PATH", REAL_PATH)


class TestLazyResolution:
    def test_import_compiles_and_loads_nothing(self):
        """Importing the package spawns no process and dlopens no library;
        the first ``active()`` is what resolves the default."""
        script = (
            "import sys, ctypes, numpy\n"
            "seen = []\n"
            "def hook(event, args):\n"
            "    if event in ('subprocess.Popen', 'os.posix_spawn', 'os.fork', 'os.exec',\n"
            "                 'os.system') or (event == 'ctypes.dlopen' and args[0]):\n"
            "        seen.append((event, str(args[0])))\n"
            "sys.addaudithook(hook)\n"
            "import repro, repro.codec, repro.kernels, repro.experiments, repro.cli\n"
            "assert repro.kernels._active is None, repro.kernels._active\n"
            "assert not seen, seen\n"
            "name = repro.kernels.active().name\n"
            "assert name in ('cext', 'numpy'), name\n"
            "assert (name == 'cext') == any(e == 'ctypes.dlopen' for e, _ in seen), seen\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr

    def test_a_run_loads_no_scipy(self):
        """Importing the package, resolving the default backend (with its
        self-probe) and a DiVE run on either backend load no scipy module:
        the transform's reference is numpy's replay of pocketfft."""
        script = (
            "import sys\n"
            "import repro, repro.codec, repro.experiments\n"
            "from repro import kernels\n"
            "from repro.core import DiVEScheme\n"
            "from repro.network import constant_trace\n"
            "from repro.world import nuscenes_like\n"
            "clip = nuscenes_like(0, n_frames=4, resolution=(160, 96))\n"
            "for name in (kernels.active().name, 'numpy'):\n"
            "    with kernels.use_backend(name):\n"
            "        repro.experiments.run_scheme(DiVEScheme(), clip, constant_trace(1e6))\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr

    def test_config_and_cli_default_to_auto(self):
        from repro.cli import build_parser

        assert build_parser().parse_args(["demo"]).backend == kernels.AUTO

    def test_two_backends_and_no_dead_hook(self):
        """One reference that binds nothing, one compiled backend that binds
        every hook, one dispatch site per hook, and ``auto`` picks between
        the two."""
        assert kernels.BACKENDS == ("numpy", "cext")
        reference, compiled = kernels.backend("numpy"), kernels.backend("cext")
        assert type(reference) is kernels.KernelBackend and reference.name == "numpy"
        assert all(getattr(reference, name) is None for name in kernels.KERNEL_NAMES)
        if compiled.available():
            assert all(callable(getattr(compiled, name)) for name in kernels.KERNEL_NAMES)
        source = "".join(p.read_text(encoding="utf-8") for p in sorted((SRC / "repro").rglob("*.py")))
        sites = {name: source.count(f'kernels.override("{name}")') for name in kernels.KERNEL_NAMES}
        assert sites == dict.fromkeys(kernels.KERNEL_NAMES, 1)
        assert kernels.activate(kernels.AUTO) is (compiled if compiled.available() else reference)

    def test_explicit_name_still_forces_or_raises(self, fresh_host):
        with pytest.raises(RuntimeError, match="cext.*unavailable.*not found"):
            kernels.activate("cext")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.activate("fortran")

    @pytest.mark.timeout(120)
    def test_threads_racing_first_dispatch_build_once(self, fresh_host, monkeypatch):
        _restore_compiler(monkeypatch)
        calls = {"build": 0, "probe": 0}
        build, probe = cext._build_library, cext._CKernels.self_probe

        def counted_build():
            calls["build"] += 1
            return build()

        def counted_probe(self):
            calls["probe"] += 1
            return probe(self)

        monkeypatch.setattr(cext, "_build_library", counted_build)
        monkeypatch.setattr(cext._CKernels, "self_probe", counted_probe)
        barrier = threading.Barrier(4)
        hooks = []

        def first_dispatch():
            barrier.wait(timeout=30)
            hooks.append(kernels.override("pattern_search"))

        threads = [threading.Thread(target=first_dispatch) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90)
        assert not any(t.is_alive() for t in threads)
        assert calls == {"build": 1, "probe": 1}
        assert kernels.active().name == "cext"
        assert len(hooks) == 4 and all(h is not None and h == hooks[0] for h in hooks)


class TestNoCompilerFallback:
    def test_auto_falls_back_to_numpy_with_reason(self, fresh_host):
        assert kernels.active().name == "numpy"
        reason = kernels.backend("cext").why_unavailable()
        assert all(f"{c}: not found" in reason for c in cext._COMPILERS), reason
        assert kernels.backend("numpy").available() and not kernels.backend("cext").available()

    def test_golden_digest_unchanged_without_compiler(
        self, fresh_host, golden_clips, golden_ground_truth
    ):
        results, tracer = run_golden_batch(golden_clips, golden_ground_truth)
        assert kernels.active().name == "numpy"
        assert e2e_digest(results, tracer) == GOLDEN_DIGEST

    def test_compiler_stderr_reaches_the_reason(self, fresh_host):
        fake = fresh_host / "cc"
        fake.write_text("#!/bin/sh\necho 'kernels.c:1: boom, not today' >&2\nexit 1\n")
        fake.chmod(0o755)
        assert not kernels.backend("cext").available()
        reason = kernels.backend("cext").why_unavailable()
        assert "cc: kernels.c:1: boom, not today" in reason
        assert "gcc: not found" in reason


class TestCacheSafety:
    def test_builds_into_private_xdg_dir_and_leaves_no_temp_files(
        self, fresh_host, monkeypatch, tmp_path
    ):
        _restore_compiler(monkeypatch)
        assert kernels.backend("cext").available(), kernels.backend("cext").why_unavailable()
        cache = tmp_path / "cache" / "repro" / "kernels"
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        (so,) = cache.iterdir()
        assert so.suffix == ".so"
        assert not list((tmp_path / "tmp").iterdir())

    @pytest.mark.parametrize("compiler", [True, False])
    def test_corrupt_cached_object_is_rebuilt_or_falls_back(self, tmp_path, compiler):
        """A truncated object (a writer that crashed before PR 13's atomic
        replace, a full disk) is rebuilt when a compiler is around and is a
        reason to fall back when not — never a crash.  Fresh interpreters:
        this process would get its already loaded library back by name."""
        if not any(shutil.which(c) for c in cext._COMPILERS):
            pytest.skip("no C compiler on this host")
        empty = tmp_path / "bin"
        empty.mkdir()
        env = {
            **os.environ,
            "PYTHONPATH": str(SRC),
            "XDG_CACHE_HOME": str(tmp_path / "cache"),
            "TMPDIR": str(tmp_path),
        }
        script = (
            "from repro import kernels\n"
            "print(kernels.active().name, kernels.backend('cext').why_unavailable())"
        )

        def resolve(**extra):
            done = subprocess.run(
                [sys.executable, "-c", script], env={**env, **extra},
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            return done.stdout.strip()

        assert resolve() == "cext None"
        cache = tmp_path / "cache" / "repro" / "kernels"
        (so,) = cache.iterdir()
        good = so.stat().st_size
        so.write_bytes(so.read_bytes()[: good // 3])
        if compiler:
            assert resolve() == "cext None"
            (rebuilt,) = cache.iterdir()
            assert rebuilt.stat().st_size == good
        else:
            out = resolve(PATH=str(empty))
            assert out.startswith("numpy no working C compiler"), out

    def test_foreign_or_open_directories_are_refused(self, fresh_host, tmp_path, monkeypatch):
        shared = tmp_path / "cache" / "repro" / "kernels"
        shared.mkdir(parents=True)
        shared.chmod(0o755)
        fallback = tmp_path / "tmp" / f"repro-kernels-{os.getuid()}"
        fallback.mkdir()
        fallback.chmod(0o777)
        with pytest.raises(cext._Unavailable) as err:
            cext._cache_dir()
        assert f"{shared}: mode 0755, want 0700" in str(err.value)
        assert f"{fallback}: mode 0777, want 0700" in str(err.value)
        assert not kernels.backend("cext").available()
        assert "no private cache directory" in kernels.backend("cext").why_unavailable()
        # Right mode, wrong owner: same refusal.
        shared.chmod(0o700)
        monkeypatch.setattr(os, "getuid", lambda: shared.stat().st_uid + 1)
        with pytest.raises(cext._Unavailable, match=f"owned by uid {shared.stat().st_uid}"):
            cext._cache_dir()

    def test_temp_dir_is_the_fallback_when_the_cache_home_is_unusable(self, fresh_host, tmp_path):
        (tmp_path / "cache").write_text("a file where the cache home should be")
        assert cext._cache_dir() == tmp_path / "tmp" / f"repro-kernels-{os.getuid()}"


class TestBuiltForThisCpu:
    """The object is compiled with ``-march=native``, so it is cached per
    CPU, and a compiler without the flag still builds one."""

    def test_the_host_isa_keys_the_stem(self, monkeypatch):
        assert cext._host_isa().startswith(platform.machine())
        source = cext._SOURCE.read_bytes()
        stems = []
        for isa in ("x86_64 fpu sse2 avx2", "x86_64 fpu sse2 avx2 avx512f", "x86_64 fpu sse2 avx2"):
            monkeypatch.setattr(cext, "_host_isa", lambda isa=isa: isa)
            stems.append(cext._stem(source))
        assert stems[0] != stems[1] and stems[0] == stems[2]

    def test_an_object_cached_for_another_cpu_is_never_loaded(self, fresh_host, monkeypatch):
        """A home shared by hosts with different CPUs: each loads only its own
        object and leaves the other's in place."""
        _restore_compiler(monkeypatch)
        source, cache = cext._SOURCE.read_bytes(), cext._cache_dir()
        monkeypatch.setattr(cext, "_host_isa", lambda: "x86_64 another cpu")
        foreign_bytes = b"an object built for another CPU"
        foreign = cache / f"{cext._stem(source)}-{cext._digest(foreign_bytes)}.so"
        foreign.write_bytes(foreign_bytes)
        monkeypatch.setattr(cext, "_host_isa", lambda: "x86_64 this cpu")
        loaded, load = [], cext._load
        monkeypatch.setattr(cext, "_load", lambda path: loaded.append(path) or load(path))
        assert kernels.backend("cext").available(), kernels.backend("cext").why_unavailable()
        (own,) = loaded
        assert own.name.startswith(cext._stem(source) + "-")
        assert foreign.read_bytes() == foreign_bytes
        assert sorted(cache.iterdir()) == sorted([own, foreign])

    def test_a_load_refreshes_its_object_and_deletes_only_stale_ones(self, fresh_host, monkeypatch):
        """Objects of other stems (other sources, flag lists, CPUs) are
        deleted by age alone: one unloaded for longer than the limit goes, a
        recent one stays; the object loaded is touched, even when it was
        itself older than the limit."""
        _restore_compiler(monkeypatch)
        cache = cext._cache_dir()
        stale, recent = cache / "kernels-0000000000000000-0.so", cache / "kernels-1111111111111111-1.so"
        for path in (stale, recent):
            path.write_bytes(b"an object built from another source")
        day, written = 24 * 3600.0, recent.stat().st_mtime
        os.utime(stale, (written - cext._CACHE_MAX_AGE - day,) * 2)
        os.utime(recent, (written - cext._CACHE_MAX_AGE + day,) * 2)
        assert kernels.backend("cext").available(), kernels.backend("cext").why_unavailable()
        (own,) = set(cache.iterdir()) - {recent}
        assert own.name.startswith(cext._stem(cext._SOURCE.read_bytes()) + "-")
        assert own.stat().st_mtime >= written
        long_unused = written - 2 * cext._CACHE_MAX_AGE
        os.utime(own, (long_unused,) * 2)
        _fresh_cext(monkeypatch)
        assert kernels.backend("cext").available(), kernels.backend("cext").why_unavailable()
        assert sorted(cache.iterdir()) == sorted([own, recent])
        assert own.stat().st_mtime >= written

    def test_a_compiler_that_rejects_march_native_still_builds(self, fresh_host, monkeypatch):
        """The one retry drops only ``-march=native``: same source, same
        stem, and the object passes the same self-probe."""
        real = next(filter(None, (shutil.which(c, path=REAL_PATH) for c in cext._COMPILERS)), None)
        if real is None:
            pytest.skip("no C compiler on this host")
        log = fresh_host.parent / "cc.log"
        fake = fresh_host / "cc"
        fake.write_text(
            "#!/bin/sh\n"
            f'echo "$*" >> {shlex.quote(str(log))}\n'
            'for arg in "$@"; do\n'
            '  if [ "$arg" = -march=native ]; then\n'
            "    echo \"cc: error: unknown value 'native' for '-march'\" >&2; exit 1\n"
            "  fi\n"
            "done\n"
            f"PATH={shlex.quote(REAL_PATH)} exec {shlex.quote(real)} \"$@\"\n"
        )
        fake.chmod(0o755)
        assert kernels.backend("cext").available(), kernels.backend("cext").why_unavailable()
        native, fallback = (line.split() for line in log.read_text().splitlines())
        assert native[: len(cext._CFLAGS)] == cext._CFLAGS and "-march=native" in native
        assert fallback == [arg for arg in native if arg != "-march=native"]
        (so,) = (fresh_host.parent / "cache" / "repro" / "kernels").iterdir()
        assert so.name.startswith(cext._stem(cext._SOURCE.read_bytes()) + "-")


    def test_the_baseline_isa_object_passes_the_self_probe(self, monkeypatch, tmp_path):
        """The fallback flag list, without ``-march=native``, built in-process
        as the sanitised runner builds its flags: the object, whose vector
        types lower to SSE2 there, passes the whole self-probe."""
        if not any(shutil.which(c) for c in cext._COMPILERS):
            pytest.skip("no C compiler on this host")
        monkeypatch.setattr(cext, "_CFLAGS", cext._flag_lists()[1])
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        baseline = _fresh_cext(monkeypatch)
        assert baseline.available(), baseline.why_unavailable()
        (so,) = (tmp_path / "cache" / "repro" / "kernels").iterdir()
        assert so.name.startswith(cext._stem(cext._SOURCE.read_bytes()) + "-")
        assert "-march=native" not in cext._CFLAGS


def test_the_sanitised_runner_gets_its_own_stem(monkeypatch):
    """``tests/run_sanitized_kernels.py`` extends ``_CFLAGS`` in-process: its
    object must not share the product's cache name, and the fallback build
    must keep the sanitizers too."""
    from run_sanitized_kernels import SANITIZER_FLAGS

    source = cext._SOURCE.read_bytes()
    plain = cext._stem(source)
    monkeypatch.setattr(cext, "_CFLAGS", [*cext._CFLAGS, *SANITIZER_FLAGS])
    assert cext._stem(source) != plain
    assert all(flags[-len(SANITIZER_FLAGS):] == SANITIZER_FLAGS for flags in cext._flag_lists())


@pytest.mark.parametrize("source", ["missing", "a directory"])
def test_a_missing_or_unreadable_source_falls_back_to_numpy(source, monkeypatch, tmp_path):
    """A wheel built without its package data, or a damaged install: ``auto``
    resolves to the reference and the reason names the file."""
    path = tmp_path / "cext.c"
    if source == "a directory":
        path.mkdir()
    monkeypatch.setattr(cext, "_SOURCE", path)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _fresh_cext(monkeypatch)
    assert kernels.active().name == "numpy"
    assert f"cannot read the kernel source {path}" in kernels.backend("cext").why_unavailable()


# ---------------------------------------------------------------------------
# The self-probe rejects a wrong kernel
# ---------------------------------------------------------------------------


def _render_and_code(clip):
    """Two frames of ``clip`` rendered and coded (an I- then a P-frame): each
    one's frame type, frame digest, annotations, levels and decoded bytes."""
    encoder, decoder = VideoEncoder(), VideoDecoder()
    out = []
    for index in (0, 1):
        record = clip.render_at(index)
        encoded = encoder.encode(record.image, target_bits=15_000.0)
        out += [encoded.frame_type, frame_digest(record), annotation_tuples(record),
                encoded.levels.tobytes(), decoder.decode(encoded).tobytes()]
    return out


@pytest.fixture(scope="module")
def clip():
    return nuscenes_like(11, n_frames=2, resolution=(320, 192))


@pytest.fixture(scope="module")
def on_the_reference(clip):
    with kernels.use_backend("numpy"):
        run = _render_and_code(clip)
    assert run[::5] == ["I", "P"]
    return run


def _assert_rejected(broken, hook, clip, on_the_reference):
    """The probe names ``hook``, binds nothing, ``cext`` cannot be forced and
    ``auto`` renders and codes on the reference, to its bytes."""
    assert not broken.available()
    assert f"self-probe: {hook} (" in broken.why_unavailable(), broken.why_unavailable()
    assert all(getattr(broken, name) is None for name in kernels.KERNEL_NAMES)
    with pytest.raises(RuntimeError, match=f"self-probe: {hook} "):
        kernels.activate("cext")
    with kernels.use_backend(kernels.AUTO) as chosen:
        assert chosen.name == "numpy"
        assert _render_and_code(clip) == on_the_reference


def _one_ulp_up(answer):
    """A hook's answer moved by one ulp: its (first) array, or every bit
    total of a rate counter; a declined call stays declined."""
    if answer is None:
        return None
    if callable(answer):
        return lambda qp: np.nextafter(answer(qp), np.inf)
    if isinstance(answer, tuple):
        return (_one_ulp_up(answer[0]), *answer[1:])
    return np.nextafter(answer, np.inf)


def test_the_probe_table_has_a_row_per_hook():
    """The pairwise sum every SAD and mean rests on, then each hook once."""
    hooks = [row.hook for row in cext._probe_table()]
    assert hooks[0] == "pairwise_rows" and sorted(hooks[1:]) == sorted(kernels.KERNEL_NAMES)


def _declined(hook):
    """An input ``hook``'s cext wrapper must decline, as ``(make, call,
    dispatch)``: ``make()`` builds fresh arguments, ``call(bound, *args)``
    hands them to the bound hook and ``dispatch(*args)`` to the site in
    ``repro.*`` that dispatches it."""
    from repro.codec.encoder import _inter_encode
    from repro.codec.intra import intra_decode, intra_encode
    from repro.codec.motion import _pattern_search, motion_compensate
    from repro.codec.transform import QuantBitCounter, _transform, dct_blocks, quantize_cost, reconstruct
    from repro.core.clustering import foreground_clusters
    from repro.geometry import CameraIntrinsics
    from repro.utils.ransac import ransac_linear
    from repro.world import Renderer
    from repro.world.renderer import _render_surfaces

    gen = np.random.default_rng(46)
    plane = gen.uniform(0.0, 255.0, size=(32, 48)).astype(np.float32)
    qp = gen.uniform(10.0, 40.0, size=(2, 3))
    coeffs = dct_blocks(plane - 128.0)
    levels, modes, _, _ = intra_encode(plane.astype(np.float64), qp)
    cluster_args = dict(similarity=1.5, min_cluster_size=1, min_magnitude=0.3, merge=True, max_angle=np.pi / 8,
                        max_magnitude_ratio=2.5, max_distance=2)

    if hook == "motion_compensate":  # a NaN vector: the reference raises
        mv = np.zeros((2, 3, 2), dtype=np.float32)
        mv[0, 1, 0] = np.nan
        return lambda: (plane, mv), lambda h, *a: h(*a), motion_compensate
    if hook == "pattern_search":  # a range the memo cannot key
        params = dict(method="dia", search_range=128, block=16, lambda_mv=4.0, subpel=True)
        return (lambda: (np.roll(plane, 2, axis=1), plane), lambda h, *a: h(*a, **params),
                lambda *a: _pattern_search(*a, **params))
    if hook == "render_surfaces":  # float32 directions
        scene = nuscenes_like(3, n_frames=2).scene
        _, dirs, origin, placed = Renderer(CameraIntrinsics(focal=20.0, width=24, height=16))._prepare(scene, 0.5)
        return lambda: (dirs.astype(np.float32), origin, scene, placed), lambda h, *a: h(*a), _render_surfaces
    if hook == "transform":  # a block whose output is not finite
        blocks = gen.normal(size=(1, 8, 2, 8))
        blocks[0, 3, 1, 5] = np.inf
        return lambda: (blocks,), lambda h, b: h(b, inverse=False), lambda b: _transform(b, inverse=False)
    if hook == "intra_encode":  # a NaN pixel
        frame = plane.astype(np.float64)
        frame[3, 5] = np.nan
        return lambda: (frame, qp), lambda h, *a: h(*a), intra_encode
    if hook == "intra_decode":  # float modes
        return lambda: (levels, modes.astype(np.float64), qp), lambda h, *a: h(*a), intra_decode
    if hook == "quantize_cost":  # a NaN coefficient
        nan = coeffs.copy()
        nan[1, 2, 3, 4] = np.nan
        return lambda: (nan, qp), lambda h, *a: h(*a), quantize_cost
    if hook == "rate_counter":  # coefficients in Fortran order: the NumPy body counts them
        offsets = gen.uniform(-3.0, 3.0, size=(2, 3))

        def totals(c, o):
            counter = QuantBitCounter(c, o)
            return [counter.bits_at(q) for q in (30.0, 12.0, 45.0)]

        return lambda: (np.asfortranarray(coeffs), offsets), lambda h, *a: h(*a), totals
    if hook == "reconstruct":  # a float64 prediction
        return (lambda: (plane.astype(np.float64), quantize_cost(coeffs, qp)[0], qp), lambda h, *a: h(*a),
                reconstruct)
    if hook == "inter_encode":  # a float64 frame
        params = dict(block=16, budget=6000.0, base_qp=None, hint=None)
        return (lambda: (np.roll(plane, 3, axis=0).astype(np.float64), plane, np.zeros((2, 3, 2)), qp - 25.0),
                lambda h, *a: h(*a, **params), lambda *a: _inter_encode(*a, **params))
    if hook == "ransac_pairs":  # an iteration bound that is not an int

        def fit(a, b, rng):
            return ransac_linear(a, b, threshold=0.75, max_iterations=np.int64(64), rng=rng), rng.bit_generator.state

        a = gen.normal(size=(40, 2))
        b = a @ np.array([0.3, -0.2]) + gen.normal(0.0, 0.1, size=40)
        return (lambda: (a, b, np.random.default_rng(5)), lambda h, a, b, rng: h(a, b, 0.75, np.int64(64), rng),
                fit)
    if hook == "foreground_clusters":  # a float32 field
        mv = gen.normal(0.0, 2.0, size=(6, 9, 2)).astype(np.float32)
        seeds = gen.uniform(size=(6, 9)) < 0.3
        return (lambda: (mv, seeds, np.zeros((6, 9), dtype=bool)), lambda h, *a: h(*a, **cluster_args),
                lambda mv, s, blocked: foreground_clusters(mv, s, blocked_mask=blocked, **cluster_args))
    raise AssertionError(f"no declined input for {hook}")


def _outcome(fn, *args):
    """What ``fn(*args)`` answers, every float and array as its bytes — or
    the exception it raises, by type and message."""
    try:
        return _bits(fn(*args))
    except Exception as exc:  # the reference's exception is an answer too
        return "raised", type(exc), str(exc)


@pytest.mark.parametrize("hook", kernels.KERNEL_NAMES)
def test_a_declined_input_gets_the_reference_answer(hook, cext):
    """The one decline rule: a hook returns ``None`` for an input it will not
    take, and the site that dispatches it answers — or raises — exactly as
    on the reference backend."""
    make, call, dispatch = _declined(hook)
    assert call(getattr(cext, hook), *make()) is None
    got = _outcome(dispatch, *make())
    with kernels.use_backend("numpy"):
        assert got == _outcome(dispatch, *make())


def test_every_suite_that_picks_a_backend_is_marked():
    """A test file that selects a kernel backend carries the ``kernels``
    marker, so ``pytest -m kernels`` — what CI's bit-exactness,
    compiler-hidden and sanitised steps run — cannot leave it out."""
    unmarked = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        source = path.read_text(encoding="utf-8")
        if not any(name in source for name in ("kernels.BACKENDS", "use_backend(", 'backend("cext")')):
            continue
        marks = [node.value for node in ast.parse(source).body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "pytestmark" for t in node.targets)]
        if not any("pytest.mark.kernels" in ast.unparse(mark) for mark in marks):
            unmarked.append(path.name)
    assert not unmarked, f"select a backend without `pytestmark = pytest.mark.kernels`: {unmarked}"


@pytest.mark.usefixtures("cext")
@pytest.mark.parametrize("hook", kernels.KERNEL_NAMES)
def test_a_hook_one_ulp_off_fails_the_probe(hook, monkeypatch, clip, on_the_reference):
    exact = getattr(cext._CKernels, hook)
    monkeypatch.setattr(cext._CKernels, hook, lambda self, *args, **kw: _one_ulp_up(exact(self, *args, **kw)))
    _assert_rejected(_fresh_cext(monkeypatch), hook, clip, on_the_reference)


#: One wrong line of ``cext.c`` each, and the hook whose probe row must catch it.
SOURCE_MUTATIONS = {
    # I-frames: ties broken the other way (the last of equal SADs wins), the
    # DC mean one ulp high.
    "tie-break": ("if (sad < best_sad) {", "if (sad <= best_sad) {", "intra_encode"),
    "dc-one-ulp": ("dc = pairwise(edge, (size_t)n) / (double)n;",
                   "dc = nextafter(pairwise(edge, (size_t)n) / (double)n, 1e9);", "intra_encode"),
    # P-frames: halves rounded away from zero, candidates cut at half a step
    # (complete at the probe that compacted them, short for every probe
    # below), a skipped block priced at half a bit.
    "round-half-away": ("return copysign((fabs(x) + 0x1.8p52) - 0x1.8p52, x);", "return round(x);", "quantize_cost"),
    # Motion compensation: a tap past the right or bottom edge clamped one
    # pixel short of it, and the bilinear weights formed from the floor as a
    # double (a -0.0 component's weight loses its sign).
    "clamp-one-short": ("    return v < 0 ? 0 : (v >= n ? n - 1 : v);", "    return v < 0 ? 0 : (v >= n ? n - 2 : v);",
                        "motion_compensate"),
    "zero-weight-sign": ("    double ax = vx - (double)fdx, ay = vy - (double)fdy;",
                         "    double ax = vx - floor(vx), ay = vy - floor(vy);", "motion_compensate"),
    # The transform: pocketfft's rotation wr + i wi with wi one ulp low (= wr).
    "wi-as-wr": ("#define DCT_WI 0x1.6a09e667f3bcdp-1", "#define DCT_WI 0x1.6a09e667f3bccp-1", "transform"),
    "cut-at-half-a-step": ("#define ZERO_CUT 0.25", "#define ZERO_CUT 0.5", "rate_counter"),
    "skip-overhead": ("#define SKIP_BLOCK_BITS 0.25", "#define SKIP_BLOCK_BITS 0.5", "quantize_cost"),
    # The renderer's shader constants.
    "haze": ("#define GROUND_HAZE 165.0", "#define GROUND_HAZE 165.5", "render_surfaces"),
    "building-windows": ("(wh > 0.8) & (wh < 2.1)", "(wh > 0.8) & (wh < 2.2)", "render_surfaces"),
    "car-band": ("gray = SELECT8(*h < 0.35, gray - 55.0, gray);", "gray = SELECT8(*h < 0.35, gray - 54.0, gray);",
                 "render_surfaces"),
    "pedestrian-band": ("gray = SELECT8(*h > 1.45, gray + 35.0, gray);",
                        "gray = SELECT8(*h > 1.5, gray + 35.0, gray);", "render_surfaces"),
    # The exact remainder trusted past 2^51, where q * b is no longer exact.
    "remainder-past-2^51": ("i64x8 exact = FABS8(*a) < 0x1p51;", "i64x8 exact = FABS8(*a) < 0x1p60;",
                            "render_surfaces"),
    # The sky's elevation from the direction before it is normalised, and
    # every lane of a sky batch normalised by its first lane's norm.
    "sky-unnormalised": ("f64x8 elevation = -d[1] / norm, u", "f64x8 elevation = -d[1], u", "render_surfaces"),
    "sky-norm-from-lane-0": ("norm[k] = sqrt(sq[k]);", "norm[k] = sqrt(sq[0]);", "render_surfaces"),
    # RANSAC: a pair tied in magnitude pivoted on its second row, and
    # Lemire's rejection threshold taken modulo the range, not its size.
    "pivot-on-ties": ("if (fabs(a10) > fabs(a00)) {", "if (fabs(a10) >= fabs(a00)) {", "ransac_pairs"),
    "lemire-threshold": ("(UINT32_MAX - rng) % rng_excl;", "(UINT32_MAX - rng) % rng;", "ransac_pairs"),
    # Foreground clustering: the fill's flooring division truncating as C's
    # / does, a gap exactly on the similarity threshold turned away, and a
    # seed's -0.0 kept in its cluster's mean.
    "fill-truncates": ("return q - (a % b != 0 && a < 0);", "return q;", "foreground_clusters"),
    "growth-strict": ("if (gap <= similarity) {", "if (gap < similarity) {", "foreground_clusters"),
    "seed-mean-keeps-sign": ("double mx = (0.0 * 0 + mv[2 * s]) / 1, my = (0.0 * 0 + mv[2 * s + 1]) / 1;",
                             "double mx = mv[2 * s], my = mv[2 * s + 1];", "foreground_clusters"),
    # The textures' value noise (noise8, eight points at a time inside
    # render_surfaces): a negative coordinate's lattice cell not stepped down
    # from its truncation, and the far corner hashed without its x offset.
    "noise-no-step-down": ("fu = SELECT8(du, fu + 1.0, fu); iu += du;", "fu = SELECT8(du, fu + 1.0, fu);",
                           "render_surfaces"),
    "noise-corner-offset-dropped": ("lattice8(&h, NOISE_PX + NOISE_PY, &v11);", "lattice8(&h, NOISE_PY, &v11);",
                                    "render_surfaces"),
}


@pytest.mark.usefixtures("cext")
@pytest.mark.parametrize("mutation", SOURCE_MUTATIONS)
def test_a_source_mutation_fails_the_probe(mutation, monkeypatch, tmp_path, clip, on_the_reference):
    right, wrong, hook = SOURCE_MUTATIONS[mutation]
    source = cext._SOURCE.read_text()
    assert source.count(right) == 1
    mutated = tmp_path / "cext.c"
    mutated.write_text(source.replace(right, wrong))
    monkeypatch.setattr(cext, "_SOURCE", mutated)
    # The mutated source hashes to its own object; keep it out of the real cache.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _assert_rejected(_fresh_cext(monkeypatch), hook, clip, on_the_reference)
