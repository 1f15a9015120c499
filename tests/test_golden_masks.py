"""The foreground mask itself, pinned.

Foreground extraction used to be fixed only through what it does to the
coded bytes (the QP map) and, from there, to detection counts.  These
goldens were recorded at e3fcff0 — the commit before the stage was
rewritten as one shared-geometry pass (scalar region growing, integer
hulls, memoised block centres) — and are asserted on the ``numpy``
reference and on ``cext``, because the field the stage reads is downstream
of motion estimation: every ``ForegroundExtractor.extract`` call of the
ruler's two drives and of six frames of each dataset preset at its default
resolution, each one's ``mask | ground_mask | seed_mask`` digest, cluster
count and ``cached`` / ``fallback`` flags.

``python tests/test_golden_masks.py`` prints the table for the checkout on
``PYTHONPATH`` (how the values below were produced).
"""

import functools
import hashlib

import numpy as np
import pytest

from repro import kernels
from repro.core import DiVEScheme, ForegroundExtractor
from repro.experiments import run_scheme, scaled_bandwidth
from repro.network import constant_trace
from repro.network.trace import with_outages
from repro.world import kitti_like, nuscenes_like, robotcar_like

pytestmark = pytest.mark.kernels

#: run -> clip builder (the two drives are ``benchmarks/perf/workloads.py``'s,
#: nominal link; the presets run at their default resolution).
RUNS = {
    "steady": lambda: nuscenes_like(11, n_frames=24, resolution=(480, 288)),
    "outage": lambda: kitti_like(5, n_frames=30, turning=True),
    "kitti": lambda: kitti_like(3, n_frames=7),
    "nuscenes": lambda: nuscenes_like(3, n_frames=7),
    "robotcar": lambda: robotcar_like(3, n_frames=7),
}


@functools.lru_cache(maxsize=None)
def _clip(run):
    """The run's clip, rendered once per session on the host's default
    backend (the renderer's bytes do not depend on the backend —
    ``test_golden_frames`` pins that)."""
    with kernels.use_backend(kernels.AUTO):
        return RUNS[run]().preload()


def _digest(result):
    planes = [result.mask]
    if result.ground is not None:
        planes += [result.ground.ground_mask, result.ground.seed_mask]
    digest = hashlib.sha256(repr(result.mask.shape).encode())
    for plane in planes:
        assert plane.dtype == np.bool_ and plane.shape == result.mask.shape
        digest.update(np.ascontiguousarray(plane).tobytes())
    return digest.hexdigest()[:24]


def _masks(run):
    """``[(digest, clusters, cached, fallback)]``, one row per ``extract``
    call of ``run_scheme(DiVEScheme())`` over the run's clip."""
    clip = _clip(run)
    trace = constant_trace(scaled_bandwidth(2.0, clip))
    if run == "outage":
        trace = with_outages(trace, outage_duration=0.5, interval=1.0, first_outage=0.35)
    rows = []
    extract = ForegroundExtractor.extract

    def recording(self, mv, **kwargs):
        result = extract(self, mv, **kwargs)
        rows.append((_digest(result), len(result.clusters), result.cached, result.fallback))
        return result

    ForegroundExtractor.extract = recording
    try:
        run_scheme(DiVEScheme(), clip, trace)
    finally:
        ForegroundExtractor.extract = extract
    return rows


#: Recorded at e3fcff0 (numpy and cext agreed there too).
GOLDEN = {
    'steady': [
        ('6856c699a2c405f5309c07df', 18, False, False),
        ('e8baecddec9448b783f376ec', 3, False, False),
        ('e5f93b8a767381292701ab6d', 11, False, False),
        ('00eef232a04c6cefd076bd9f', 7, False, False),
        ('c3f2a9169a483cc8d4bedec7', 10, False, False),
        ('ef717277d4e38a2a8d64b557', 7, False, False),
        ('a36272d2607cadb2fa9a4a6c', 9, False, False),
        ('5d51f25b7fe7158e8ae99fb5', 7, False, False),
        ('cce3858c6f10a4e6e8b2c456', 9, False, False),
        ('629706efe04c8f3b0c9a6bb2', 7, False, False),
        ('5ca3e76a99a1a029c1e7b2f2', 14, False, False),
        ('161861eff14b8585f9444a00', 7, False, False),
        ('d3b652a8c65cc4c72ae93755', 10, False, False),
        ('1cec093b4842fdfd88eb513c', 10, False, False),
        ('c83a2586b9cbbfdd616e0291', 10, False, False),
        ('ce6251c2f8bfb70bbd7cae2b', 8, False, False),
        ('4e47a0e7ba5d16dbefc6b20d', 9, False, False),
        ('0a1fa7f6a1467b696f22bf1c', 7, False, False),
        ('0eb73e9adcc6c83cf91f0593', 6, False, False),
        ('540fa65b39e0a0ed8544d0d6', 9, False, False),
        ('de3d1fcd38294de53c5b0493', 14, False, False),
        ('ead8cfa0aa343003db5abd5f', 9, False, False),
        ('a187e2026656b7dacf24e4cb', 11, False, False),
    ],
    'outage': [
        ('9ef650979b9648e2762efa4d', 0, False, True),
        ('9ef650979b9648e2762efa4d', 0, False, True),
        ('6596259ff6100a9f61e1179a', 3, False, False),
        ('08b0a4d712ef35bc33e89e18', 9, False, False),
        ('969a87e5685fb61f430d25bb', 0, True, False),
        ('969a87e5685fb61f430d25bb', 0, True, False),
        ('969a87e5685fb61f430d25bb', 0, True, False),
        ('969a87e5685fb61f430d25bb', 0, True, False),
        ('5af94c1990383e11ebc762fa', 7, False, False),
        ('8837980338eedbf1c29c2b5b', 3, False, False),
        ('55b1d6a79a5df865c8858a2d', 0, True, False),
        ('de2b1913f055a1b6f921f892', 2, False, False),
        ('cdb50f37b556c1c4bd9dd6b8', 6, False, False),
        ('e818d232e7a9cc3bcf908421', 0, True, False),
        ('e818d232e7a9cc3bcf908421', 0, True, False),
        ('e818d232e7a9cc3bcf908421', 0, True, False),
        ('ea12a3a81ff91be314f4923d', 10, False, False),
        ('5054dbbcf40dc7c1e3b1ddfb', 0, True, False),
        ('3577e93825cff3bd335dfb82', 4, False, False),
        ('9fcd7a2971dc5290e82a311c', 0, True, False),
        ('9fcd7a2971dc5290e82a311c', 0, True, False),
        ('9fcd7a2971dc5290e82a311c', 0, True, False),
        ('9fcd7a2971dc5290e82a311c', 0, True, False),
        ('b3e07c2ae550e6a4b063e5ba', 4, False, False),
        ('6e7e702141b253fab81ebcf4', 4, False, False),
        ('dfe7c3e5911faef0d820728e', 7, False, False),
        ('70587f70868a8aac980ff751', 2, False, False),
        ('714e199dbdff76f106e6c9a9', 5, False, False),
        ('926dc76d616a9a5d1f903925', 0, False, False),
    ],
    'kitti': [
        ('9ef650979b9648e2762efa4d', 0, False, True),
        ('9ef650979b9648e2762efa4d', 0, False, True),
        ('81a24b490c6468b76a893db9', 4, False, False),
        ('9cdc2f40ffecff36e0dc665d', 9, False, False),
        ('7aaa95f7c272bfda99cc1f76', 8, False, False),
        ('b64cb4108240d4ce088a0c2c', 0, True, False),
    ],
    'nuscenes': [
        ('9039c7d106aa0296ca4521ed', 0, False, True),
        ('a77e6ba45c689a29bcee99c4', 8, False, False),
        ('e5061da45da528ad9a316cfc', 17, False, False),
        ('891597a5e7d02983a6c76003', 16, False, False),
        ('bf66c18da3a05625d2c6b33e', 11, False, False),
        ('671d0392e1490b1c22aeb474', 15, False, False),
    ],
    'robotcar': [
        ('00ad2dce0d844f5ed2f204b2', 3, False, False),
        ('a7325a34a15b74fdf7b6d705', 17, False, False),
        ('7da2f77e4005d13ed1b0bce6', 17, False, False),
        ('dd44ddb010d9a8442185ee1b', 16, False, False),
        ('c3931a91ca33edab7eddc1bd', 14, False, False),
        ('30104050ba443e536805009b', 13, False, False),
    ],
}


@pytest.mark.parametrize("kernel_backend", kernels.BACKENDS, indirect=True)
@pytest.mark.parametrize("run", sorted(RUNS))
def test_masks_match_the_parent_commit(run, kernel_backend):
    assert _masks(run) == GOLDEN[run]


def test_the_goldens_exercise_every_path():
    """Extraction, the cached path and the fallback all occur, clusters are
    found, and one call is pinned per frame after the first."""
    rows = [row for run in RUNS for row in GOLDEN[run]]
    assert {(cached, fallback) for _, _, cached, fallback in rows} == {
        (False, False), (True, False), (False, True)}
    assert max(clusters for _, clusters, _, _ in rows) >= 3
    assert len({digest for digest, *_ in rows}) > len(rows) // 2
    assert len(GOLDEN["steady"]) == 23 and len(GOLDEN["outage"]) == 29
    assert all(len(GOLDEN[run]) == 6 for run in ("kitti", "nuscenes", "robotcar"))


if __name__ == "__main__":
    print("GOLDEN = {")
    for run_name in RUNS:
        print(f"    {run_name!r}: [")
        for row in _masks(run_name):
            print(f"        {row!r},")
        print("    ],")
    print("}")
