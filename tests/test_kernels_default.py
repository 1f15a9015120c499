"""The default kernel backend: lazy, proven, safe to fall back from.

``repro.kernels`` picks nothing at import.  The first dispatch resolves
``cext`` when the host can build it and it passes its bitwise self-probe,
and the ``numpy`` reference otherwise — these tests pin the laziness, the
single build under a thread race, the no-compiler fallback (golden digest
unchanged) and the cache directory's safety rules.
"""

import os
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from conftest import e2e_digest, run_golden_batch
from test_golden_e2e import GOLDEN_DIGEST

from repro import kernels
from repro.kernels import cext

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
    monkeypatch.setattr(kernels, "_active", None)
    monkeypatch.setitem(kernels._instances, "cext", cext.CExtBackend())
    return bin_dir


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
            "import sys, ctypes, numpy, scipy.fft\n"
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

    def test_config_and_cli_default_to_auto(self):
        from repro.cli import build_parser

        assert build_parser().parse_args(["demo"]).backend == kernels.AUTO

    def test_two_backends_and_no_dead_hook(self):
        """One reference that binds nothing, one compiled backend that binds
        every hook, one dispatch site per hook, and ``auto`` picks between
        the two."""
        assert kernels.registered_backends() == ("numpy", "cext")
        reference, compiled = kernels.backend("numpy"), kernels.backend("cext")
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
        assert kernels.available_backends()[0] == "numpy"
        assert "cext" not in kernels.available_backends()

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
