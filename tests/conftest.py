"""Shared fixtures: the golden clip set, the e2e digest, and a watchdog.

The golden clip set (2 seeded nuScenes-like clips, 12 frames, preloaded)
is session-scoped so the golden e2e test and the streaming differential
tests render it exactly once — tier-1 wall time stays flat as streaming
coverage grows.

The ``timeout`` marker is a backstop against a test that hangs: when
the ``pytest-timeout`` plugin is installed (CI installs the ``[test]``
extra) it takes over; otherwise a conftest-level watchdog arms
``faulthandler.dump_traceback_later`` so a hung test dumps every thread's
stack and kills the process instead of wedging the suite.
"""

import faulthandler
import hashlib

import pytest

from repro import kernels
from repro.core import DiVEScheme
from repro.edge import EdgeServer, QualityAwareDetector
from repro.experiments import evaluate_run, ground_truth_for, run_scheme, scaled_bandwidth, truth_clip
from repro.network import constant_trace
from repro.obs import Tracer
from repro.stream import StreamConfig, StreamRunner
from repro.world import nuscenes_like

GOLDEN_CLIP_SEEDS = (0, 1)
GOLDEN_N_FRAMES = 12
GOLDEN_BANDWIDTH_MBPS = 2.0


def e2e_digest(results, tracer):
    """Digest of per-frame bytes / detection counts / sources / mean QP.

    Locked by ``test_golden_e2e`` and reused by the streaming differential
    tests — a streaming run with relaxed limits must reproduce it
    bit-identically.
    """
    parts = []
    for result in results:
        for f in result.run.frames:
            parts.append(
                f"{result.clip_name}/{f.index}:bytes={f.bytes_sent}"
                f":ndet={len(f.detections)}:src={f.source}"
            )
    for record in tracer.frames:
        # qp_mean is quantiser state, rounded so the digest keys on real
        # drift, not on float printing.
        parts.append(f"qp/{record.index}={record.counters.get('qp_mean', -1.0):.3f}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


@pytest.fixture(scope="session")
def golden_clips():
    """The seeded golden clip set, preloaded so renders happen once."""
    return [
        nuscenes_like(seed, n_frames=GOLDEN_N_FRAMES).preload()
        for seed in GOLDEN_CLIP_SEEDS
    ]


@pytest.fixture(scope="session")
def golden_ground_truth(golden_clips):
    return [ground_truth_for(clip) for clip in golden_clips]


def run_golden_batch(clips, ground_truths):
    """One traced synchronous DiVE run over a golden-style clip set.

    Shared by the session fixture below and by the per-backend golden
    digest tests, which re-run it under each kernel backend.
    """
    tracer = Tracer()
    results = []
    for clip, gt in zip(clips, ground_truths):
        trace = constant_trace(scaled_bandwidth(GOLDEN_BANDWIDTH_MBPS, clip))
        results.append(
            run_scheme(DiVEScheme(), clip, trace, ground_truth=gt, tracer=tracer)
        )
    return results, tracer


def run_streamed(scheme, clip, trace, *, ground_truth=None, tracer=None):
    """``run_scheme`` through a relaxed :class:`StreamRunner` (unbounded
    queue, no deadline): ``(evaluated, stats)``.

    Ground truth is scored on the frames the run fetches
    (``truth_clip``) unless it is passed in, as ``run_scheme`` does.
    """
    if tracer is not None:
        scheme.use_tracer(tracer)
    source = clip if ground_truth is not None else truth_clip(clip)
    server = EdgeServer(QualityAwareDetector(seed=7), tracer=scheme.tracer)
    result = StreamRunner(scheme, StreamConfig()).run(source, trace, server)
    if ground_truth is None:
        ground_truth = source.scores()
    return evaluate_run(result.run, clip, ground_truth=ground_truth), result.stats


@pytest.fixture(scope="session")
def golden_batch_run(golden_clips, golden_ground_truth):
    """One traced synchronous DiVE run over the golden clip set."""
    return run_golden_batch(golden_clips, golden_ground_truth)


@pytest.fixture
def cext():
    """The compiled kernel backend, active for the test; the test is skipped
    on a host that cannot build it (the reason is in the skip message)."""
    backend = kernels.backend("cext")
    if not backend.available():
        pytest.skip(f"cext: {backend.why_unavailable()}")
    with kernels.use_backend("cext"):
        yield backend


@pytest.fixture(params=kernels.BACKENDS)
def kernel_backend(request):
    """Activate the two kernel backends in turn: the ``numpy`` reference,
    then ``cext`` (skipped on a host that cannot build it).

    Applying ``@pytest.mark.usefixtures("kernel_backend")`` to a test (or
    class) re-runs it under both — the bit-exactness contract says the
    assertions must hold unchanged.  A test with parameters of its own
    parametrizes it as ``("kernel_backend", kernels.BACKENDS,
    indirect=True)``, which keeps the backend last in the test's id.
    """
    if request.param == "cext":
        request.getfixturevalue("cext")
    with kernels.use_backend(request.param):
        yield request.param


@pytest.fixture
def render_calls(monkeypatch):
    """Every ``Renderer.render`` call while the test runs, as a list that
    grows by one per call (``list.append`` is atomic, so renders on an
    ``agent_workers`` pool's threads count)."""
    from repro.world import Renderer

    calls = []
    original = Renderer.render

    def counted(self, *args, **kwargs):
        calls.append(kwargs.get("frame_index"))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Renderer, "render", counted)
    return calls


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("timeout"):
        config.addinivalue_line(
            "markers",
            "timeout(seconds): abort the test (with thread tracebacks) if it "
            "runs longer — served by pytest-timeout when installed, else by "
            "a faulthandler watchdog",
        )


@pytest.fixture(autouse=True)
def _deadlock_watchdog(request):
    """Fallback for the ``timeout`` marker when pytest-timeout is absent."""
    if request.config.pluginmanager.hasplugin("timeout"):
        yield
        return
    marker = request.node.get_closest_marker("timeout")
    if marker is None or not marker.args:
        yield
        return
    faulthandler.dump_traceback_later(float(marker.args[0]), exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
