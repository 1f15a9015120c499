"""RANSAC for Eq. (7)'s over-determined two-unknown systems.

DiVE solves the over-determined system of Eq. (7) — one equation per sampled
motion vector, two unknowns (the pitch and yaw increments) — with RANSAC
(Fischler & Bolles, 1981) so that the handful of noisy vectors that survive
R-sampling cannot corrupt the estimate (Section III-B3).

The hypothesis loop is a kernel hook (``ransac_pairs``): the compiled
backend runs it in one call, drawing from the caller's generator exactly as
:func:`_ransac_pairs_reference` does, and the least-squares tail stays
numpy on every backend.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro import kernels

__all__ = ["RansacResult", "ransac_linear"]


@dataclass(frozen=True)
class RansacResult:
    """Outcome of a RANSAC fit.

    Attributes
    ----------
    params:
        ``(p,)`` least-squares solution refit on the inlier set.
    inliers:
        ``(n,)`` boolean mask of inlier equations.
    iterations:
        Number of sampling iterations actually executed.
    residual:
        RMS residual of the inlier equations under ``params``.
    """

    params: np.ndarray
    inliers: np.ndarray
    iterations: int
    residual: float


def ransac_linear(
    a: np.ndarray,
    b: np.ndarray,
    *,
    threshold: float,
    max_iterations: int = 64,
    min_inlier_ratio: float = 0.5,
    rng: np.random.Generator | None = None,
) -> RansacResult:
    """Robustly solve ``a @ x = b`` in the least-squares sense.

    Parameters
    ----------
    a:
        ``(n, 2)`` design matrix with ``n >= 2`` — Eq. (7)'s two unknowns;
        any other shape is a ``ValueError``.
    b:
        ``(n,)`` right-hand side.
    threshold:
        Absolute residual at or below which an equation counts as an
        inlier; ``>= 0``.
    max_iterations:
        Upper bound on minimal-sample draws, ``>= 1``.  Iteration stops
        early once the adaptive consensus bound (99 % confidence) is met.
    min_inlier_ratio:
        If the best consensus set is smaller than this fraction of ``n``, the
        plain least-squares solution over all equations is returned instead
        (with every equation marked inlier); a tiny consensus set usually
        means the threshold was too tight for the noise level, and falling
        back is safer than trusting two arbitrary equations.  In [0, 1].
    rng:
        Source of randomness; a deterministic seed-0 generator when omitted
        (results must be reproducible without a caller-provided generator).

    Returns
    -------
    :class:`RansacResult`
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError(f"design matrix must be (n, 2) — Eq. (7)'s two unknowns — got shape {a.shape}")
    n, p = a.shape
    if b.shape[0] != n:
        raise ValueError(f"rhs length {b.shape[0]} != number of equations {n}")
    if n < p:
        raise ValueError(f"under-determined system: {n} equations, {p} unknowns")
    # Written so that NaN fails each check: any of these would skip RANSAC
    # without a word and return the plain least-squares fit.
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold!r}")
    if not max_iterations >= 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations!r}")
    if not 0 <= min_inlier_ratio <= 1:
        raise ValueError(f"min_inlier_ratio must be in [0, 1], got {min_inlier_ratio!r}")
    if rng is None:
        rng = np.random.default_rng(0)

    def lstsq(mask: np.ndarray) -> np.ndarray:
        sol, *_ = np.linalg.lstsq(a[mask], b[mask], rcond=None)
        return sol

    all_mask = np.ones(n, dtype=bool)
    if n == p:
        params = lstsq(all_mask)
        res = float(np.sqrt(np.mean((a @ params - b) ** 2)))
        return RansacResult(params=params, inliers=all_mask, iterations=0, residual=res)

    impl = kernels.override("ransac_pairs")
    out = None if impl is None else impl(a, b, threshold, max_iterations, rng)
    it, best_mask, best_count = _ransac_pairs_reference(a, b, threshold, max_iterations, rng) if out is None else out

    if best_mask is None or best_count < max(p, int(np.ceil(min_inlier_ratio * n))):
        params = lstsq(all_mask)
        res = float(np.sqrt(np.mean((a @ params - b) ** 2)))
        return RansacResult(params=params, inliers=all_mask, iterations=it, residual=res)

    params = lstsq(best_mask)
    # One refinement pass: refit on the inliers of the refit solution.
    resid = np.abs(a @ params - b)
    refined = resid <= threshold
    if refined.sum() >= p:
        params = lstsq(refined)
        best_mask = refined
    res = float(np.sqrt(np.mean((a[best_mask] @ params - b[best_mask]) ** 2)))
    return RansacResult(params=params, inliers=best_mask, iterations=it, residual=res)


def _stop_bound(count: int, n: int, max_iterations: int) -> int:
    """How many iterations the adaptive stop asks for once the best consensus
    holds ``count`` of ``n`` equations: 99 % confidence of having drawn one
    all-inlier pair."""
    ratio = max(count / n, 1e-6)
    denom = np.log1p(-min(ratio**2, 1 - 1e-12))
    return int(np.ceil(np.log(0.01) / denom)) if denom < 0 else max_iterations


@functools.lru_cache(maxsize=64)
def _needed_table(n: int, max_iterations: int) -> np.ndarray:
    """``min(_stop_bound(count), max_iterations)`` for every count ``0..n``,
    read-only: the compiled loop looks its stop up here, so that it never
    needs a logarithm of its own (libm's ``log`` is not numpy's)."""
    table = np.array([min(_stop_bound(count, n, max_iterations), max_iterations) for count in range(n + 1)],
                     dtype=np.int64)
    table.flags.writeable = False
    return table


def _ransac_pairs_reference(
    a: np.ndarray, b: np.ndarray, threshold: float, max_iterations: int, rng: np.random.Generator
) -> tuple[int, np.ndarray | None, int]:
    """RANSAC's hypothesis loop over an ``(n, 2)`` system: ``(iterations,
    best_mask, best_count)``, ``best_mask`` ``None`` when no drawn pair was
    solvable.

    Each iteration draws a pair with ``rng.choice(n, 2, replace=False)``,
    solves it and scores it, with no BLAS or LAPACK call, so that the
    compiled ``ransac_pairs`` can replay it to the bit: the 2x2 solve is
    partial-pivot LU in scalar IEEE arithmetic (a zero pivot or ``u11`` is
    the singular pair ``np.linalg.solve`` raised on: counted, its draws
    spent, not scored) and the residual is elementwise, in this order.
    """
    n = a.shape[0]
    col0, col1 = a[:, 0], a[:, 1]
    best_mask: np.ndarray | None = None
    best_count = -1
    needed = max_iterations
    it = 0
    # A degenerate pair (a subnormal pivot) can make a residual inf or NaN:
    # it is simply not an inlier.
    with np.errstate(over="ignore", invalid="ignore"):
        while it < min(needed, max_iterations):
            it += 1
            i, j = rng.choice(n, size=2, replace=False)
            (a00, a01), (a10, a11) = a[i].tolist(), a[j].tolist()
            b0, b1 = float(b[i]), float(b[j])
            if abs(a10) > abs(a00):
                a00, a01, b0, a10, a11, b1 = a10, a11, b1, a00, a01, b0
            if a00 == 0.0:
                continue
            l10 = a10 / a00
            u11 = a11 - l10 * a01
            if u11 == 0.0:
                continue
            x1 = (b1 - l10 * b0) / u11
            x0 = (b0 - a01 * x1) / a00
            mask = np.abs(col0 * x0 + col1 * x1 - b) <= threshold
            count = int(mask.sum())
            if count > best_count:
                best_count = count
                best_mask = mask
                needed = _stop_bound(count, n, max_iterations)
    return it, best_mask, best_count
