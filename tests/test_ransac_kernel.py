"""RANSAC's hypothesis loop on ``cext``, bit for bit against the reference.

``ransac_linear`` dispatches its loop — draw a pair with
``Generator.choice(n, 2, replace=False)``, solve it, score it, stop
adaptively — to the ``ransac_pairs`` hook, which draws from the caller's
bit generator through numpy's C interface.  Each case here runs the whole
``ransac_linear`` on both backends from copies of one generator and compares
``params`` and ``residual`` by ``float.hex``, the inlier mask, the iteration
count and the generator's full state afterwards (buffered half-words
included): the same draws, the same hypotheses, the same fit.
"""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from repro import kernels
from repro.utils.ransac import _needed_table, _ransac_pairs_reference, ransac_linear

pytestmark = pytest.mark.kernels

BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64)


def _state(rng):
    return pickle.dumps(rng.bit_generator.state)


def _fit(backend, a, b, rng, **kwargs):
    """``ransac_linear`` on ``backend`` from a copy of ``rng``: everything it
    answers, bitwise, and the copy's state afterwards."""
    rng = copy.deepcopy(rng)
    with kernels.use_backend(backend):
        res = ransac_linear(a, b, rng=rng, **{"threshold": 0.75, **kwargs})
    return ([float(v).hex() for v in res.params], float(res.residual).hex(), res.inliers.tobytes(),
            res.iterations, _state(rng))


def _assert_same_fit(a, b, rng, **kwargs):
    want = _fit("numpy", a, b, rng, **kwargs)
    assert _fit("cext", a, b, rng, **kwargs) == want
    return want


def _eq7(n, inlier_share, seed):
    """An Eq. (7)-shaped system: R-normalised rows over block centres, the
    first ``inlier_share`` of the equations consistent up to noise."""
    gen = np.random.default_rng(seed)
    x, y = gen.uniform(-150.0, 150.0, n), gen.uniform(-90.0, 90.0, n)
    r = np.maximum(np.hypot(x, y), 1e-6)
    a = np.stack([-400.0 * x / r, -400.0 * y / r], axis=1)
    b = a @ gen.normal(0.0, 0.004, 2) + gen.normal(0.0, 0.2, n)
    kept = int(inlier_share * n)
    b[kept:] += gen.normal(0.0, 8.0, n - kept)
    return a, b


#: Fig 7's sizes and the agent's, plus sizes where a draw's range is a power
#: of two (Lemire's threshold ``2^32 mod range`` is 0: never redrawn) and
#: their neighbours (the threshold is as large as it gets).
SIZES = (3, 4, 70, 500) + tuple(sorted({2**k + d for k in (3, 6, 9) for d in (-1, 0, 1, 2)}))


@pytest.mark.usefixtures("cext")
class TestSameFitOnBothBackends:
    @pytest.mark.parametrize("n", SIZES)
    def test_sizes(self, n):
        for share in (0.0, 0.6):
            a, b = _eq7(n, share, seed=n)
            _assert_same_fit(a, b, np.random.default_rng(n))

    @pytest.mark.parametrize("bits", BIT_GENERATORS, ids=lambda bits: bits.__name__)
    def test_bit_generators(self, bits):
        a, b = _eq7(70, 0.6, seed=1)
        _assert_same_fit(a, b, np.random.Generator(bits(2)))

    def test_a_buffered_half_word(self):
        """``choice(n, 2)`` takes three 32-bit words; PCG64 buffers the other
        half of the second 64-bit output, and the loop must start from it."""
        rng = np.random.default_rng(3)
        rng.choice(70, 2, replace=False)
        assert rng.bit_generator.state["has_uint32"] == 1
        a, b = _eq7(70, 0.6, seed=3)
        _assert_same_fit(a, b, rng)

    @pytest.mark.parametrize("outputs, n", [(66745, 327), (88338, 934)])
    def test_draws_lemire_rejects_or_keeps(self, outputs, n):
        """PCG64(2024) advanced so that the call's first word falls in the gap
        between Lemire's threshold and a wrong one: numpy keeps it at
        n = 327 and redraws it at n = 934."""
        bits = np.random.PCG64(2024)
        bits.advance(outputs)
        a, b = _eq7(n, 0.0, seed=n)
        _assert_same_fit(a, b, np.random.Generator(bits))

    def test_rows_collinear_with_the_foe(self):
        """Vectors on one ray through the FOE give equal rows: every pair
        among them is singular, counted and skipped."""
        a, b = _eq7(40, 0.7, seed=4)
        a[::2] = a[0]
        _assert_same_fit(a, b, np.random.default_rng(4))

    def test_all_zero_rows(self):
        a, b = _eq7(30, 0.8, seed=5)
        a[np.random.default_rng(5).uniform(size=30) < 0.5] = 0.0
        _assert_same_fit(a, b, np.random.default_rng(5))

    def test_a_singular_system_scores_no_pair(self):
        a = np.zeros((12, 2))
        fit = _assert_same_fit(a, np.arange(12.0), np.random.default_rng(6))
        assert fit[3] == 64 and fit[2] == np.ones(12, dtype=bool).tobytes()

    def test_subnormal_pivots(self):
        tiny = 5e-324
        a = np.array([[tiny, 1.0], [0.0, 2.0], [-tiny, -1.0], [3 * tiny, 0.5], [2 * tiny, 1.0], [-tiny, 3.0],
                      [1e-310, 1.0], [0.0, 0.0]])
        b = np.array([1.0, 2.0, -1.0, 0.5, 2.0, 3.0, 1.0, 0.0])
        with np.errstate(all="ignore"):
            _assert_same_fit(a, b, np.random.default_rng(7), threshold=0.25)

    def test_small_integers_on_the_threshold(self):
        gen = np.random.default_rng(8)
        a = gen.integers(-3, 4, size=(24, 2)) * 1.0
        b = gen.integers(-4, 5, size=24) * 1.0
        for threshold in (0.0, 1.0, 2.0):
            _assert_same_fit(a, b, np.random.default_rng(8), threshold=threshold)

    def test_every_row_an_inlier_stops_after_one_pair(self):
        a, _ = _eq7(70, 1.0, seed=9)
        fit = _assert_same_fit(a, a @ np.array([0.002, -0.001]), np.random.default_rng(9), threshold=1e-9)
        assert fit[3] == 1

    def test_pure_noise_runs_every_iteration_then_falls_back(self):
        gen = np.random.default_rng(10)
        fit = _assert_same_fit(gen.normal(size=(40, 2)), gen.normal(size=40) * 100, gen, threshold=1e-9)
        assert fit[3] == 64 and fit[2] == np.ones(40, dtype=bool).tobytes()

    def test_iteration_bounds(self):
        a, b = _eq7(70, 0.6, seed=11)
        for max_iterations in (1, 2, 7, 500):
            _assert_same_fit(a, b, np.random.default_rng(11), max_iterations=max_iterations)


class TestTheLoop:
    """The loop's own answers, against ``Generator.choice`` and on each
    backend's entry to it."""

    @pytest.mark.usefixtures("cext")
    @pytest.mark.parametrize("n", SIZES + (2,))
    def test_one_iteration_draws_what_choice_draws(self, n):
        """One iteration takes exactly one ``choice(n, 2, replace=False)``."""
        for bits in BIT_GENERATORS:
            drawn, looped = np.random.Generator(bits(n)), np.random.Generator(bits(n))
            drawn.choice(n, 2, replace=False)
            kernels.active().ransac_pairs(np.zeros((n, 2)), np.zeros(n), 0.5, 1, looped)
            assert _state(looped) == _state(drawn)

    @pytest.mark.usefixtures("kernel_backend")
    def test_a_residual_on_the_threshold_is_an_inlier(self):
        """Every pair of these three rows solves exactly and leaves the third
        row's residual at exactly 0.5."""
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0, 3.5])
        impl = kernels.active().ransac_pairs or _ransac_pairs_reference
        iterations, mask, count = impl(a, b, 0.5, 64, np.random.default_rng(12))
        assert (iterations, count) == (1, 3) and mask.all()
        assert impl(a, b, np.nextafter(0.5, 0.0), 64, np.random.default_rng(12))[2] == 2

    @pytest.mark.usefixtures("cext")
    def test_what_the_hook_declines_leaves_the_generator_alone(self):
        hook = kernels.active().ransac_pairs
        a, b = _eq7(10, 0.6, seed=13)
        huge_a = np.lib.stride_tricks.as_strided(np.zeros(2), shape=(2**32, 2), strides=(0, 8))
        huge_b = np.lib.stride_tricks.as_strided(np.zeros(1), shape=(2**32,), strides=(0,))
        for args in (
            (huge_a, huge_b, 0.5, 64),  # numpy draws from 2^32 rows 64 bits at a time
            (a.astype(np.float32), b, 0.5, 64),
            (a, b, 0.5, 64.0),
            (a, b, np.float32(0.5), 64),
            (a[:, :1], b, 0.5, 64),
            (a[:1], b[:1], 0.5, 64),
        ):
            rng = np.random.default_rng(13)
            before = _state(rng)
            assert hook(*args, rng) is None
            assert _state(rng) == before
        assert hook(a, b, 0.5, 64, np.random.PCG64(13)) is None  # a bit generator, not a Generator


@pytest.mark.usefixtures("cext")
@pytest.mark.timeout(120)
def test_threads_sharing_a_generator_lose_no_draw():
    """The compiled loop draws under the generator's own lock (ctypes drops
    the GIL around the call): forty fits from eight threads on one generator
    leave it where forty fits one after another do.  Pure noise makes every
    fit draw 64 pairs, whatever it draws."""
    gen = np.random.default_rng(14)
    a, b = gen.normal(size=(40, 2)), gen.normal(size=40) * 100
    sequential, shared = np.random.default_rng(15), np.random.default_rng(15)
    for _ in range(40):
        ransac_linear(a, b, threshold=1e-9, rng=sequential)

    def fits():
        for _ in range(5):
            ransac_linear(a, b, threshold=1e-9, rng=shared)

    threads = [threading.Thread(target=fits) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert _state(shared) == _state(sequential)


def _stop_bound(count, n, max_iterations):
    """The adaptive stop as ``ransac_linear``'s loop wrote it before the
    table existed, verbatim but for ``p = 2``."""
    p = 2
    ratio = max(count / n, 1e-6)
    denom = np.log1p(-min(ratio**p, 1 - 1e-12))
    return int(np.ceil(np.log(0.01) / denom)) if denom < 0 else max_iterations


def test_the_needed_table_is_the_scalar_expression():
    for n in range(3, 601):
        table = _needed_table(n, 64)
        assert table.tolist() == [min(_stop_bound(count, n, 64), 64) for count in range(n + 1)], n
        assert not table.flags.writeable
