"""Shared domain types, validation, and numerical utilities.

Series values are plain 1-d float64 ndarrays throughout the package;
:func:`as_series` is the single validation gate (length, finiteness).
Blocklength schemes, the seeded stream contract used by every
simulation and the package's one QR least-squares kernel live here as
well; :func:`ols` factors [design | response] once, for one regression
or a stack, and every coefficient, t-ratio and BIC score is read off it.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "check_bic_rows",
    "lagged_design",
    "ols",
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
    """Least-squares fit of one regression, or of each in a stack.

    ``prefix_ssr[..., j]`` is the SSR of the fit on the first j of the k
    columns (j = 0..k); ``rinv_row0`` is row 0 of R11^-1, whose squared
    norm is [(X'X)^-1]_00.
    """

    coefficients: np.ndarray
    prefix_ssr: np.ndarray
    dof: int
    rinv_row0: np.ndarray

    @property
    def ssr(self):
        return self.prefix_ssr[..., -1]

    @property
    def tstat0(self):
        """t-ratio of coefficient 0; NaN for a saturated fit (dof = 0)."""
        s2 = self.ssr / self.dof if self.dof else self.ssr * np.nan
        r0 = self.rinv_row0
        return self.coefficients[..., 0] / np.sqrt(s2 * (r0 * r0).sum(axis=-1))


def lagged_design(level, lag_diffs, response_diffs, extras, p, start):
    """Rows t = start+2..T of an augmented Dickey-Fuller type regression.

    ``level`` supplies the unit-root regressor (its value at t-1),
    ``extras`` are columns already aligned with t = 2..T, and the lagged
    differences come from ``lag_diffs``.  Column 0 is always the
    unit-root coefficient, the lags come last.  ``start`` is the highest
    lag any compared fit uses, fixing the sample.  Works on one series
    or, along the last axis, on a (reps, T) batch, whose rows share any
    1-d extras.  A column that is identically zero in some row (a series
    flat over the sample) leaves that fit undefined: DegenerateSeries.
    """
    T = level.shape[-1]
    cols = [level[..., start : T - 1]]
    for e in extras:
        cols.append(e[..., start:])
    for k in range(1, p + 1):
        cols.append(lag_diffs[..., start - k : T - 1 - k])
    # Testing the 1-d source slices for zeros costs 14 us at T=10^4 and p=1,
    # where scanning the columns of the row-major design costs 166 us;
    # plain loops and column_stack keep the one-series call fast.
    if level.ndim == 1:
        flat = not all(map(np.count_nonzero, cols))
        X = np.column_stack(cols)
    else:
        flat = not all(np.logical_or.reduce(c, axis=-1).all() for c in cols)
        X = np.stack(np.broadcast_arrays(*cols), axis=-1)
    if flat and X.shape[-2]:  # an empty design fails the fit's shape check
        raise DegenerateSeries(
            f"series is constant over the lag regression's sample (p={p})"
        )
    return X, response_diffs[..., start:]


def ols(design, response) -> OlsFit:
    """Least squares read off the QR triangle R of [design | response].

    design is (n, k) with an (n,) response, or an (m, n, k) stack with
    (m, n) responses, which gives the fit's fields a leading m axis.
    With R = [[R11, r], [0, rho]], b solves R11 b = r, the SSR is rho^2,
    and dropping columns j..k-1 adds r_j^2 + ... + r_{k-1}^2 (Golub & Van
    Loan, Matrix Computations, sec. 5.3).  RankDeficient is raised when
    R11 with unit-norm columns has a singular value ratio below
    RCOND_SINGULAR, so no column's units matter; a zero column is singular.
    """
    X = np.asarray(design, dtype=np.float64)
    y = np.asarray(response, dtype=np.float64)
    n, k = X.shape[-2:]
    if y.shape != X.shape[:-1]:
        raise ValueError(f"response shape {y.shape} does not match design {X.shape}")
    if n < k or k < 1:
        raise ValueError(f"need rows >= cols >= 1, got {n}x{k}")
    R = qr(np.concatenate([X, y[..., None]], axis=-1), mode="r")
    if n == k:  # saturated: rho is zero and R has no row for it
        R = np.concatenate([R, np.zeros_like(R[..., :1, :])], axis=-2)
    R11 = R[..., :k, :k]
    norms = np.sqrt((R11 * R11).sum(axis=-2))  # the design's column norms
    sv = svd(R11 / (norms + (norms == 0.0))[..., None, :], compute_uv=False)
    ratio = sv[..., -1] / np.maximum(sv[..., 0], 1.0)  # sv[0] >= 1 unless X = 0
    if (ratio < RCOND_SINGULAR).any():
        i = np.argmin(ratio)
        which = f" {i} of the stack" if ratio.size > 1 else ""
        raise RankDeficient(
            f"design matrix{which} is numerically singular "
            f"(condition ratio {ratio.flat[i]:.2e})"
        )
    R11inv = np.linalg.inv(R11)
    beta = (R11inv @ R[..., :k, k:])[..., 0]
    prefix_ssr = np.cumsum(R[..., k::-1, k] ** 2, axis=-1)[..., ::-1]
    return OlsFit(beta, prefix_ssr, n - k, R11inv[..., 0, :])


def check_bic_rows(T: int, p_max: int) -> None:
    """The bound of every BIC lag search: T - p_max >= 20, else LagTooLarge."""
    if T - p_max < 20:
        raise LagTooLarge(f"p_max={p_max} leaves fewer than 20 rows at T={T}")


def select_lag_bic_batch(designs, responses, k0: int) -> np.ndarray:
    """BIC lag order of each regression in a stack, from one :func:`ols`.

    designs is (n, K) or (m, n, K): k0 always-in columns, then the lags.
    BIC(p) = n*ln(SSR/n) + (k0+p)*ln(n) over the first k0 + p columns,
    -inf at SSR = 0; ties go to the smaller p.  By interlacing, the full
    design's rank check raises exactly when some candidate's would.
    """
    n, K = designs.shape[-2:]
    ssr = ols(designs, responses).prefix_ssr[..., k0:]
    with np.errstate(divide="ignore"):
        bic = np.where(ssr > 0.0, n * np.log(ssr / n), -np.inf)
    return np.argmin(bic + (k0 + np.arange(K - k0 + 1)) * np.log(n), axis=-1)


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
