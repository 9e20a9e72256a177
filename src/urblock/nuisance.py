"""Heteroskedasticity nuisance estimators and the variance time transform.

All three estimators consume the residual vector u with the convention
u[0] = 0 (the first residual is undefined and never enters any sum):

    sigma2 = (T-2)^{-1} sum_{j=2}^{T} (u_j - ubar)^2
    kappa2 = [sum_j sum_t (u_{j+1} - ubar)^2 (u_{j+t} - blockmean_j)^2]
             / [sum_j sum_t (u_{j+t} - blockmean_j)^2]
    eta(s) = cumulative share of squared residual deviations up to floor(sT)

eta is self-normalized (eta(1) = 1 exactly), nondecreasing by
construction, and made strictly increasing by an epsilon blend so the
piecewise-linear inverse is well defined.  The time transform re-indexes
the series by the inverse profile on the auxiliary grid T~ = k*T of the
smallest k <= 10 whose index map covers every original observation, read
off in closed form from the profile's breakpoints (else k = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BadBlocklength,
    DegenerateResiduals,
    ProfileDegenerate,
    as_series,
)

__all__ = [
    "VarianceProfile",
    "sigma2_hat",
    "kappa2_hat",
    "variance_profile",
    "time_transform",
]

# Profile segments flatter than this (slope of eta per unit s) count as
# flat; a run of more than MAX_FLAT_RUN consecutive flat segments makes
# the inverse increment unbounded for practical purposes.  The estimated
# profile always starts with two zero-variance segments; these structural
# segments are left out of the run count.
MIN_PROFILE_SLOPE = 1e-9
MAX_FLAT_RUN = 2

# Largest auxiliary-grid multiple tried by the time transform.
MAX_AUX_MULTIPLE = 10


def sigma2_hat(residuals) -> float:
    """Sample variance of the residuals u_2..u_T with divisor T-2."""
    u = as_series(residuals)
    T = u.shape[0]
    tail = u[1:]
    dev = tail - tail.mean()
    ss = float(dev @ dev)
    if ss == 0.0:
        raise DegenerateResiduals("all residuals identical; sigma2 is zero")
    return ss / (T - 2)


def kappa2_hat(residuals, B: int) -> float:
    """Fourth-to-second-moment ratio over all overlapping residual blocks.

    Weight for block j is (u_{j+1} - ubar)^2; the block terms are squared
    deviations from the block's own mean.  Equals the common squared
    deviation when residual deviations are all of one magnitude, and
    estimates (integral of sigma^4)/(integral of sigma^2) in general.
    """
    u = as_series(residuals)
    T = u.shape[0]
    B = int(B)
    if not 2 <= B < T:
        raise BadBlocklength(f"need 2 <= B < T, got B={B}, T={T}")
    ubar = u[1:].mean()

    p = np.concatenate(([0.0], np.cumsum(u)))
    q = np.concatenate(([0.0], np.cumsum(u * u)))
    n = T - B + 1  # blocks j = 1..T-B
    bsum = p[B + 1 :] - p[1:n]
    # Sum of squared deviations from the block mean, per block.
    s = (q[B + 1 :] - q[1:n]) - bsum * bsum / B
    np.maximum(s, 0.0, out=s)

    lead = u[1:n] - ubar
    den = float(s.sum())
    if den <= 0.0:
        raise DegenerateResiduals("residual blocks carry no variance")
    num = float((lead * lead * s).sum())
    return num / den


@dataclass(frozen=True)
class VarianceProfile:
    """Estimated cumulative variance share on a uniform grid.

    breakpoints is the grid 0, 1/T, ..., 1; values are the profile
    heights with values[0] = 0 and values[-1] = 1 exactly, strictly
    increasing.  Both evaluation and inversion are piecewise linear.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def value(self, s):
        return np.interp(s, self.breakpoints, self.values)

    @property
    def grid_size(self) -> int:
        return self.breakpoints.shape[0] - 1


def variance_profile(residuals) -> VarianceProfile:
    """Cumulative variance-share profile of the residuals.

    Grid value i/T carries the share of sum_{j=2}^{i} (u_j - running
    mean)^2 in the total sum of squared deviations; increments are
    accumulated in the Welford product form (u_i - m_{i-1})(u_i - m_i),
    which is nonnegative, so the raw profile is nondecreasing.  A blend
    with an epsilon multiple of the identity plus a nextafter sweep then
    guarantees strict increase without moving the endpoints.
    """
    u = as_series(residuals)
    T = u.shape[0]
    tail = u[1:]

    counts = np.arange(1, T, dtype=np.float64)
    means = np.cumsum(tail) / counts
    inc = (tail[1:] - means[:-1]) * (tail[1:] - means[1:])
    np.maximum(inc, 0.0, out=inc)

    w = np.zeros(T + 1)
    np.cumsum(inc, out=w[3:])
    total = w[T]
    if total <= 0.0:
        raise DegenerateResiduals("all residuals identical; profile undefined")

    grid = np.arange(T + 1, dtype=np.float64) / T
    v = (w / total + 1e-12 * grid) / (1.0 + 1e-12)
    v[0] = 0.0
    v[T] = 1.0

    if np.any(np.diff(v) <= 0.0):
        # The epsilon blend is below one ulp for large T near 1; repair
        # residual ties without disturbing the exact endpoints.
        for i in range(1, T + 1):
            if v[i] <= v[i - 1]:
                v[i] = np.nextafter(v[i - 1], np.inf)
        if v[T] != 1.0:
            v[T] = 1.0
            for i in range(T - 1, 0, -1):
                if v[i] >= v[i + 1]:
                    v[i] = np.nextafter(v[i + 1], -np.inf)
                else:
                    break
        if v[0] != 0.0 or np.any(np.diff(v) <= 0.0):
            raise DegenerateResiduals(
                "variance profile cannot be made strictly increasing"
            )
    return VarianceProfile(breakpoints=grid, values=v)


def _transform_indices(profile: VarianceProfile, T: int, k: int) -> np.ndarray:
    """0-based source indices of the transformed series on grid k*T."""
    n_aux = k * T
    t = np.arange(1, n_aux + 1, dtype=np.float64) / n_aux
    inv = np.interp(t, profile.values, profile.breakpoints)
    # Defensive floor: inv*T can land one ulp below an exact integer.
    idx = np.floor(inv * T + 1e-9).astype(np.int64)
    np.clip(idx, 1, T, out=idx)
    return idx - 1


def time_transform(series, profile: VarianceProfile) -> np.ndarray:
    """Re-index the series by the inverse variance profile.

    Grid point t = i/(kT), i = 1..kT, maps to the observation m with
    v_m <= t < v_{m+1} (v the profile values).  The auxiliary length kT
    takes the smallest k in 1..10 whose map covers observations 2..T
    (duplicating points in low-volatility stretches instead of dropping
    points in high-volatility ones), else k = 1.  Random walks fall back
    to k = 1 from T = 100 on; about 1% at T = 30 take k > 1, and so does
    an alternating series (k = 2).

    Coverage has a closed form: m = 2..T-1 is hit when ceil(kT v_m) <
    kT v_{m+1}, and m = T always is (t = 1 = v_T).  Only the chosen map is
    built, plus the map of any k with a breakpoint within rounding reach
    of a grid point (the map floors with a 1e-9 nudge), whose coverage is
    then counted exactly; so k is the one that trying each map would pick.

    Raises ProfileDegenerate when the profile is flat (slope below
    MIN_PROFILE_SLOPE) over a run of more than MAX_FLAT_RUN consecutive
    grid segments: across such a stretch the inverse jumps an unbounded
    number of observations in a single step.  The first two segments of
    any estimated profile carry no variance yet; they are structural and
    do not count towards a run.
    """
    y = as_series(series)
    T = y.shape[0]
    if profile.breakpoints.shape[0] != T + 1:
        raise ValueError(
            f"profile grid size {profile.grid_size} does not match T={T}"
        )
    v = profile.values
    w = np.diff(v)
    flat = w * T < MIN_PROFILE_SLOPE
    flat[:2] = False
    if flat.any():
        # Longest run of consecutive flat segments.
        edged = np.concatenate(([False], flat, [False]))
        starts = np.flatnonzero(edged[1:] & ~edged[:-1])
        ends = np.flatnonzero(~edged[1:] & edged[:-1])
        if int((ends - starts).max()) > MAX_FLAT_RUN:
            raise ProfileDegenerate(
                f"profile is flat (slope < {MIN_PROFILE_SLOPE:g}) over "
                f"{int((ends - starts).max())} consecutive segments; "
                "inverse increment unbounded"
            )
    # Row k-1 holds kT * v_m, m = 2..T; v_m > 0, so ceil >= 1.
    n = np.arange(1, MAX_AUX_MULTIPLE + 1)[:, None] * float(T)
    e = n * v[2:]
    covers = (np.ceil(e[:, :-1]) < e[:, 1:]).all(axis=1)
    # Flag v_m near a grid point i >= 1 (v_T = 1 meets t = 1 exactly): the
    # nudge reaches 1e-9 * kT * (v_m - v_{m-1}); tol is 10x that + k * 1e-7.
    tol = n * (1e-8 * w[1:] + 1e-7 / T)
    near = np.abs(e - np.maximum(np.rint(e), 1.0)) <= tol
    near[:, -1] &= v[T] != 1.0
    exact = near.any(axis=1)
    for k in np.flatnonzero(covers | exact) + 1:
        idx = _transform_indices(profile, T, int(k))
        if not exact[k - 1] or np.bincount(idx, minlength=T)[1:].all():
            return y[idx]
    return y[_transform_indices(profile, T, 1)]
