"""Pooled overlapping-block statistics and the pooled autoregressive fit.

For a series y_1..y_T and blocklength B the T-B overlapping blocks are
(y_j, ..., y_{j+B}), j = 1..T-B, each demeaned by its first observation.
The two pooled statistics are

    Y1 = (B^{3/2} T^{1/2})^{-1} sum_j sum_{t=2}^{B} dy_{t+j} (y_{t+j-1} - y_j)
    Y2 = (B^2 T)^{-1}          sum_j sum_{t=2}^{B} (y_{t+j-1} - y_j)^2

and the pooled estimator satisfies sqrt(BT)(rho_hat - 1) = Y1/Y2.

Everything is computed from first differences and the anchored partial
sum path (y_t - y_1), never from raw levels, so results are bit-identical
under y -> y + c whenever the shift itself is exact in floating point.
The double sums collapse to O(T): the inner numerator telescopes to
((y_{j+B} - y_j)^2 - sum of squared block increments) / 2 and both inner
sums reduce to sliding-window prefix sums.  The literal double loop is
kept in the test tree as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import BadBlocklength, DegenerateSeries, UrblockError, as_series

__all__ = [
    "BlockStats", "PooledFit", "PrefixSums", "block_stats", "pooled_fit", "prefix_sums"
]


@dataclass(frozen=True)
class BlockStats:
    """Pooled numerator/denominator statistics for one (series, B)."""

    y1: float
    y2: float
    B: int
    T: int


@dataclass
class PooledFit:
    """Pooled AR fit: rho_hat, phi_hat = rho_hat - 1, and centered residuals.

    centered_residuals[0] is fixed to 0 by convention; entry t (1-indexed,
    t = 2..T) is the deviation u_t - mean u of u_t = y_t - rho_hat*y_{t-1},
    computed from differences only.  This numerically shift-stable form is
    what every downstream nuisance estimator consumes.
    """

    rho_hat: float
    phi_hat: float
    stats: BlockStats
    centered_residuals: np.ndarray


class PrefixSums(NamedTuple):
    """d = np.diff(y), the anchored path p = y - y_1, and the running sums
    q of d^2, s1 of p and s2 of p^2 (each with a leading 0): every
    blocklength's window sums are slices of these."""

    d: np.ndarray
    p: np.ndarray
    q: np.ndarray
    s1: np.ndarray
    s2: np.ndarray


def prefix_sums(series) -> PrefixSums:
    """Validate a series and build its prefix sums, shared by every B."""
    y = as_series(series)
    d = np.diff(y)
    p = np.empty(y.shape[0])
    p[0] = 0.0
    np.cumsum(d, out=p[1:])
    q = np.concatenate(([0.0], np.cumsum(d * d)))
    s1 = np.concatenate(([0.0], np.cumsum(p)))
    s2 = np.concatenate(([0.0], np.cumsum(p * p)))
    return PrefixSums(d, p, q, s1, s2)


def _window_sums(sums: PrefixSums, B: int):
    """Block statistics and the raw double sums in O(T).

    Returns (stats, N, D): the numerator and denominator sums
    unnormalized, both exact functions of the differences.
    """
    _d, p, q, s1, s2 = sums
    T = p.shape[0]
    B = int(B)
    if not 2 <= B < T:
        raise BadBlocklength(f"need 2 <= B < T, got B={B}, T={T}")
    n = T - B  # blocks j = 0..n-1 (0-based) span p[j..j+B]

    # Numerator: sum over blocks of ((y_{j+B}-y_j)^2 - sum d^2) / 2.
    diffp = p[B:] - p[:n]
    num_inner = 0.5 * (diffp * diffp - (q[B:] - q[:n]))

    # Denominator: sum over blocks of sum_{m=j+1}^{j+B-1} (y_m - y_j)^2,
    # expanded through prefix sums of p and p^2.
    sum1 = s1[B:T] - s1[1 : n + 1]
    sum2 = s2[B:T] - s2[1 : n + 1]
    den_inner = sum2 - 2.0 * p[:n] * sum1 + (B - 1) * p[:n] * p[:n]
    np.maximum(den_inner, 0.0, out=den_inner)

    num, den = float(num_inner.sum()), float(den_inner.sum())
    stats = BlockStats(y1=num / (B**1.5 * np.sqrt(T)), y2=den / (B * B * T), B=B, T=T)
    return stats, num, den


def block_stats(series, B: int) -> BlockStats:
    """Pooled block statistics Y1, Y2 for blocklength B (2 <= B < T)."""
    stats = _window_sums(prefix_sums(series), B)[0]
    if not (np.isfinite(stats.y1) and np.isfinite(stats.y2)):
        raise UrblockError(
            f"non-finite block statistics (y1={stats.y1}, y2={stats.y2}); "
            "input scale is too extreme"
        )
    return stats


def pooled_fit(series, B: int, sums: PrefixSums | None = None) -> PooledFit:
    """Pooled OLS fit of rho across all overlapping blocks.

    ``sums`` are the series' prefix sums when the caller already built
    them (one set serves every blocklength); the result is the same.
    Raises DegenerateSeries when every within-block deviation is zero
    (constant series), leaving the estimator undefined.
    """
    if sums is None:
        sums = prefix_sums(series)
    stats, num, den = _window_sums(sums, B)
    if den == 0.0:
        raise DegenerateSeries(
            "series is constant within every block; pooled estimator undefined"
        )
    # phi_hat = Y1/(Y2*sqrt(BT)) simplifies exactly to the raw-sum ratio.
    phi = num / den
    if not np.isfinite(phi):
        raise UrblockError("non-finite pooled estimate; input scale too extreme")

    # u_t - mean u = (dy_t - mean dy) - phi*((y_{t-1}-y_1) - mean(y-y_1)).
    d, pl = sums.d, sums.p[:-1]
    centered = np.empty(stats.T)
    centered[0] = 0.0
    centered[1:] = (d - d.mean()) - phi * (pl - pl.mean())
    return PooledFit(
        rho_hat=1.0 + phi, phi_hat=phi, stats=stats, centered_residuals=centered
    )
