"""Shared domain types, validation, and numerical utilities.

Series values are plain 1-d float64 ndarrays throughout the package;
:func:`as_series` is the single validation gate (length, finiteness).
Blocklength schemes, the least-squares kernel, and the seeded stream
contract used by every simulation live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import qr, svd

__all__ = [
    "UrblockError",
    "SchemeInfeasible",
    "RankDeficient",
    "BadBlocklength",
    "DegenerateSeries",
    "DegenerateResiduals",
    "ProfileDegenerate",
    "LagTooLarge",
    "as_series",
    "BlockScheme",
    "OlsFit",
    "lagged_design",
    "ols",
    "ols_tstat_batch",
    "select_lag_bic_batch",
    "RngStream",
    "chunked_map",
]

MIN_SERIES_LENGTH = 4

# Relative singular-value cutoff below which a design matrix is treated
# as numerically singular.
RCOND_SINGULAR = 1e-12


class UrblockError(Exception):
    """Base class for all package-specific errors."""


class SchemeInfeasible(UrblockError):
    """Blocklength scheme cannot produce 2 <= B < T for this sample size."""


class RankDeficient(UrblockError):
    """Design matrix is numerically singular."""


class BadBlocklength(UrblockError):
    """Explicit blocklength outside 2 <= B < T."""


class DegenerateSeries(UrblockError):
    """Series is constant within blocks; pooled estimator undefined."""


class DegenerateResiduals(UrblockError):
    """Residuals carry no variance; nuisance estimators undefined."""


class ProfileDegenerate(UrblockError):
    """Variance profile has a near-flat segment; inverse is unbounded."""


class LagTooLarge(UrblockError):
    """Lag order leaves too few effective observations."""


def as_series(values, min_length: int = MIN_SERIES_LENGTH) -> np.ndarray:
    """Validate and return a series as a contiguous 1-d float64 array.

    Raises ValueError on wrong dimensionality, insufficient length, or
    non-finite entries.  This is the only place input data is vetted;
    all downstream functions assume a validated array.
    """
    y = np.ascontiguousarray(values, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"series must be 1-dimensional, got shape {y.shape}")
    if y.shape[0] < min_length:
        raise ValueError(
            f"series too short: T={y.shape[0]} < minimum {min_length}"
        )
    if not np.all(np.isfinite(y)):
        bad = int(np.flatnonzero(~np.isfinite(y))[0])
        raise ValueError(f"series contains a non-finite value at index {bad}")
    return y


@dataclass(frozen=True)
class BlockScheme:
    """How the blocklength B is derived from the sample size T.

    kind is one of:

    - "power":    B = max(2, floor(T**gamma)),  0 < gamma < 1
    - "fraction": B = max(2, floor(b*T)),       0 < b < 1
    - "explicit": B given directly

    Use the classmethod constructors; ``resolve`` returns B and enforces
    2 <= B < T.
    """

    kind: str
    param: float

    @classmethod
    def power_rule(cls, gamma: float) -> "BlockScheme":
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must lie in (0,1), got {gamma}")
        return cls("power", float(gamma))

    @classmethod
    def fixed_fraction(cls, b: float) -> "BlockScheme":
        if not 0.0 < b < 1.0:
            raise ValueError(f"b must lie in (0,1), got {b}")
        return cls("fraction", float(b))

    @classmethod
    def explicit(cls, B: int) -> "BlockScheme":
        return cls("explicit", float(int(B)))

    def resolve(self, T: int) -> int:
        if T < MIN_SERIES_LENGTH:
            raise SchemeInfeasible(f"T={T} is below the minimum sample size 4")
        if self.kind == "power":
            B = max(2, int(np.floor(T ** self.param)))
        elif self.kind == "fraction":
            B = max(2, int(np.floor(self.param * T)))
        elif self.kind == "explicit":
            B = int(self.param)
        else:
            raise ValueError(f"unknown block scheme kind {self.kind!r}")
        if not 2 <= B < T:
            raise SchemeInfeasible(
                f"resolved blocklength B={B} violates 2 <= B < T for T={T}"
            )
        return B

    def label(self) -> str:
        if self.kind == "power":
            return f"T^{self.param:g}"
        if self.kind == "fraction":
            return f"{self.param:g}T"
        return f"B={int(self.param)}"


@dataclass
class OlsFit:
    """Least-squares fit: coefficients, residuals, and scale diagnostics.

    stderr holds the conventional coefficient standard errors computed
    with s^2 = ssr / (n_obs - n_params); it is NaN-filled when the fit
    is saturated (n_obs == n_params).
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    ssr: float
    n_obs: int
    n_params: int
    stderr: np.ndarray = field(default=None, repr=False)

    def tstat(self, j: int) -> float:
        """t-ratio of coefficient j against zero."""
        return float(self.coefficients[j] / self.stderr[j])


def lagged_design(level, lag_diffs, response_diffs, extras, p, start):
    """Rows t = start+2..T of an augmented Dickey-Fuller type regression.

    ``level`` supplies the unit-root regressor (its value at t-1),
    ``extras`` are columns already aligned with t = 2..T, and the lagged
    differences come from ``lag_diffs``.  Column 0 is always the
    unit-root coefficient, the lags come last.  ``start`` is the highest
    lag any compared fit uses, fixing the sample.  Works on one series
    or, along the last axis, on a (reps, T) batch.
    """
    T = level.shape[-1]
    cols = [level[..., start : T - 1]]
    for e in extras:
        cols.append(e[..., start:])
    for k in range(1, p + 1):
        cols.append(lag_diffs[..., start - k : T - 1 - k])
    # Plain loops and column_stack keep the one-series call, which runs
    # once per test and replication, within 0.2 us of a 1-d-only builder.
    X = np.column_stack(cols) if level.ndim == 1 else np.stack(cols, axis=-1)
    return X, response_diffs[..., start:]


def ols(design, response) -> OlsFit:
    """Least squares via QR with an explicit numerical-rank check.

    Raises RankDeficient when the design's smallest singular value is
    below RCOND_SINGULAR times its largest.  Chosen over normal
    equations for the sake of the near-collinear Fourier regressors in
    the baseline tests.
    """
    X = np.ascontiguousarray(design, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    y = np.ascontiguousarray(response, dtype=np.float64)
    n, k = X.shape
    if y.shape != (n,):
        raise ValueError(f"response shape {y.shape} does not match {n} rows")
    if n < k or k < 1:
        raise ValueError(f"need rows >= cols >= 1, got {n}x{k}")

    Q, R = qr(X, mode="reduced")
    sv = svd(R, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] < RCOND_SINGULAR:
        raise RankDeficient(
            f"design matrix is numerically singular "
            f"(condition ratio {0.0 if sv[0] == 0.0 else sv[-1] / sv[0]:.2e})"
        )
    beta = np.linalg.solve(R, Q.T @ y)
    resid = y - X @ beta
    ssr = float(resid @ resid)

    if n > k:
        s2 = ssr / (n - k)
        Rinv = np.linalg.solve(R, np.eye(k))
        stderr = np.sqrt(s2 * np.sum(Rinv * Rinv, axis=1))
    else:
        stderr = np.full(k, np.nan)
    return OlsFit(beta, resid, ssr, n, k, stderr)


def _qr_stack(X: np.ndarray):
    """Reduced QR of a (m, n, k) stack of designs, with the rank check of
    :func:`ols` applied to each one."""
    Q, R = qr(X, mode="reduced")
    sv = svd(R, compute_uv=False)
    top, low = sv[:, 0], sv[:, -1]
    ratio = low / np.where(top == 0.0, np.inf, top)  # 0 for an all-zero R
    bad = ratio < RCOND_SINGULAR
    if bad.any():
        i = np.argmax(bad)
        raise RankDeficient(
            f"design matrix {i} of the stack is numerically singular "
            f"(condition ratio {ratio[i]:.2e})"
        )
    return Q, R


def ols_tstat_batch(designs, responses) -> np.ndarray:
    """t-ratio of coefficient 0 in each of a (m, n, k) stack of regressions
    on (m, n) responses, by the steps of :func:`ols` on the whole stack."""
    n, k = designs.shape[1:]
    Q, R = _qr_stack(designs)
    beta = np.linalg.solve(R, Q.transpose(0, 2, 1) @ responses[..., None])
    resid = responses - (designs @ beta)[..., 0]
    s2 = np.einsum("mn,mn->m", resid, resid) / (n - k)
    Rinv = np.linalg.solve(R, np.broadcast_to(np.eye(k), R.shape))
    return beta[:, 0, 0] / np.sqrt(s2 * np.sum(Rinv[:, 0, :] ** 2, axis=1))


def select_lag_bic_batch(designs, responses, k0: int) -> np.ndarray:
    """BIC lag order of each regression in a stack, from one QR apiece.

    designs is (m, n, K): k0 always-in columns, then the lags, so lag p
    uses the first k0 + p columns.  SSR(p) is SSR(K - k0) plus the squares
    of (Q'y)_j for j >= k0 + p (Golub & Van Loan, Matrix Computations,
    sec. 5.3); BIC(p) = n*ln(SSR/n) + (k0+p)*ln(n), -inf at SSR = 0, and
    ties go to the smaller p.  By singular-value interlacing no column
    prefix is worse conditioned than the full design, so checking it
    alone raises RankDeficient exactly when some candidate's fit would.
    """
    n, K = designs.shape[1:]
    Q, _R = _qr_stack(designs)
    qty = np.einsum("mnk,mn->mk", Q, responses)
    resid = responses - np.einsum("mnk,mk->mn", Q, qty)
    tail = np.cumsum(qty[:, k0:][:, ::-1] ** 2, axis=1)[:, ::-1]
    ssr = np.einsum("mn,mn->m", resid, resid)[:, None]
    ssr = ssr + np.pad(tail, ((0, 0), (0, 1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        bic = np.where(ssr > 0.0, n * np.log(ssr / n), -np.inf)
    return np.argmin(bic + (k0 + np.arange(K - k0 + 1)) * np.log(n), axis=1)


_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream: (seed, stream id).

    Streams are backed by the Philox counter-based generator keyed by
    the 128-bit word (stream << 64) | seed, so identical (seed, stream)
    pairs reproduce identical draws bit-for-bit and distinct stream ids
    are independent regardless of execution order or parallelism.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = (self.seed & _MASK64) | ((self.stream & _MASK64) << 64)
        return np.random.Generator(np.random.Philox(key=key))


def chunked_map(chunk, n: int, threads: int, *args) -> np.ndarray:
    """Rows 0..n-1 of ``chunk(*args, lo, hi)``, stacked in index order.

    With threads > 1 the range is cut into at most 4*threads contiguous
    chunks run in a process pool.  Callers draw row k from its own
    stream, so the result does not depend on the thread count.
    """
    if threads <= 1:
        return chunk(*args, 0, n)
    from concurrent.futures import ProcessPoolExecutor

    bounds = np.linspace(0, n, 4 * threads + 1, dtype=int)
    spans = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(chunk, *args, lo, hi) for lo, hi in spans]
        return np.concatenate([fut.result() for fut in futures])
