"""Independent brute-force reference implementations.

Everything here is written as literal loops over the defining formulas,
trading speed for obviousness.  The optimized library code is compared
against these in the test modules; none of this is used by the package
itself.
"""

import numpy as np

from urblock.baselines import _regression_parts
from urblock.core import RngStream, UrblockError, lagged_design, ols
from urblock.mc import _apply_test, simulate_dgp
from urblock.nuisance import MAX_AUX_MULTIPLE, _transform_indices


def block_stats_bruteforce(y, B):
    """Pooled block statistics via the literal double sum.

    Blocks are anchored at j = 1..T-B (1-based); within a block the
    position runs t = 2..B; the numerator term is the first difference
    at t+j times the deviation of the previous level from the block's
    anchor value, the denominator term is that deviation squared.
    """
    y = np.asarray(y, dtype=np.float64)
    T = y.shape[0]
    num = 0.0
    den = 0.0
    for j in range(1, T - B + 1):
        for t in range(2, B + 1):
            dev = y[t + j - 2] - y[j - 1]  # y_{t+j-1} - y_j, 1-based
            dy = y[t + j - 1] - y[t + j - 2]  # y_{t+j} - y_{t+j-1}
            num += dy * dev
            den += dev * dev
    y1 = num / (B**1.5 * np.sqrt(T))
    y2 = den / (B * B * T)
    return y1, y2


def phi_hat_bruteforce(y, B):
    """Pooled slope as the raw ratio of the two double sums."""
    y = np.asarray(y, dtype=np.float64)
    T = y.shape[0]
    num = 0.0
    den = 0.0
    for j in range(1, T - B + 1):
        for t in range(2, B + 1):
            dev = y[t + j - 2] - y[j - 1]
            dy = y[t + j - 1] - y[t + j - 2]
            num += dy * dev
            den += dev * dev
    return num / den


def sigma2_bruteforce(u):
    """Residual variance over entries 2..T with divisor T-2."""
    u = np.asarray(u, dtype=np.float64)
    T = u.shape[0]
    tail = u[1:]
    ubar = tail.mean()
    return float(((tail - ubar) ** 2).sum()) / (T - 2)


def kappa2_bruteforce(u, B):
    """Block-weighted variance ratio via literal loops.

    Block j (1-based, j = 1..T-B) holds u_{j+1}..u_{j+B}; its weight is
    the squared deviation of its first element from the overall mean of
    u_2..u_T, and its own contribution is the sum of squared deviations
    from the block's mean.
    """
    u = np.asarray(u, dtype=np.float64)
    T = u.shape[0]
    ubar = u[1:].mean()
    num = 0.0
    den = 0.0
    for j in range(1, T - B + 1):
        block = u[j : j + B]
        bmean = block.mean()
        s = float(((block - bmean) ** 2).sum())
        w = (u[j] - ubar) ** 2
        num += w * s
        den += s
    return num / den


def eta_bruteforce(u, i):
    """Cumulative variance share at grid point i/T.

    Numerator: squared deviations of u_2..u_i from their own mean;
    denominator: same over u_2..u_T.  Returns 0 for i < 2.
    """
    u = np.asarray(u, dtype=np.float64)
    tail = u[1:]
    total = float(((tail - tail.mean()) ** 2).sum())
    if i < 2:
        return 0.0
    head = u[1:i]
    return float(((head - head.mean()) ** 2).sum()) / total


def fb_statistic_bruteforce(b, c, grid, rng):
    """Fixed-b limit statistic by literal Riemann double sums.

    Same discretization conventions as the library: n increments of
    variance 1/n, exact AR(1) decay exp(-c/(bn)) for c > 0, window
    width m = round(b*n), left endpoints everywhere.  O(n*m) time.
    """
    n = int(grid)
    g = rng.generator()
    dW = g.standard_normal(n) / np.sqrt(n)
    J = np.empty(n + 1)
    J[0] = 0.0
    if c == 0.0:
        for i in range(n):
            J[i + 1] = J[i] + dW[i]
    else:
        decay = np.exp(-c / (b * n))
        for i in range(n):
            J[i + 1] = decay * J[i] + dW[i]
    m = int(round(b * n))
    num = 0.0
    den = 0.0
    for i in range(n - m):
        d = J[i + m] - J[i]
        num += d * d
        for k in range(i, i + m):
            dd = J[k] - J[i]
            den += dd * dd
    numerator = num / n - b * (1.0 - b)
    d2 = b * den / (n * n)
    return numerator / (2.0 * np.sqrt(d2))


def time_transform_loop(y, profile):
    """Time-transformed series by building the index map on every grid
    k*T, k = 1..MAX_AUX_MULTIPLE, until one covers observations 2..T;
    falls back to k = 1.  Skips the flat-profile check."""
    y = np.asarray(y, dtype=np.float64)
    T = y.shape[0]
    for k in range(1, MAX_AUX_MULTIPLE + 1):
        idx = _transform_indices(profile, T, k)
        seen = np.zeros(T, dtype=bool)
        seen[idx] = True
        if seen[1:].all():
            return y[idx]
    return y[_transform_indices(profile, T, 1)]


def window_sums_index(y, B):
    """Raw pooled numerator and denominator sums (N, D) from prefix sums
    read through index arrays a + B, a + 1, a = 0..T-B-1."""
    y = np.asarray(y, dtype=np.float64)
    T = y.shape[0]
    d = np.diff(y)
    p = np.concatenate(([0.0], np.cumsum(d)))
    a = np.arange(T - B)
    q = np.concatenate(([0.0], np.cumsum(d * d)))
    diffp = p[a + B] - p[a]
    num_inner = 0.5 * (diffp * diffp - (q[a + B] - q[a]))
    s1 = np.concatenate(([0.0], np.cumsum(p)))
    s2 = np.concatenate(([0.0], np.cumsum(p * p)))
    sum1 = s1[a + B] - s1[a + 1]
    sum2 = s2[a + B] - s2[a + 1]
    den_inner = sum2 - 2.0 * p[a] * sum1 + (B - 1) * p[a] * p[a]
    np.maximum(den_inner, 0.0, out=den_inner)
    return float(num_inner.sum()), float(den_inner.sum())


def kappa2_index(u, B):
    """kappa2 from prefix sums read through index arrays j + B, j."""
    u = np.asarray(u, dtype=np.float64)
    T = u.shape[0]
    ubar = u[1:].mean()
    p = np.concatenate(([0.0], np.cumsum(u)))
    q = np.concatenate(([0.0], np.cumsum(u * u)))
    j = np.arange(1, T - B + 1)
    bsum = p[j + B] - p[j]
    s = (q[j + B] - q[j]) - bsum * bsum / B
    np.maximum(s, 0.0, out=s)
    lead = u[j] - ubar
    return float((lead * lead * s).sum()) / float(s.sum())


def rel_err(a, b):
    """Relative error with a unit floor, for 'to 1e-10 relative' checks."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _bic_loop(design_for, p_max):
    """One QR fit per candidate lag on a common sample; ties keep the
    smaller p.  ``design_for(p)`` returns that candidate's design and
    response."""
    best_p, best_bic = 0, np.inf
    for p in range(p_max + 1):
        design, response = design_for(p)
        n, k = design.shape
        fit = ols(design, response)
        bic = -np.inf if fit.ssr <= 0.0 else n * np.log(fit.ssr / n) + k * np.log(n)
        if bic < best_bic:
            best_p, best_bic = p, bic
    return best_p


def select_lag_bic_loop(y, p_max):
    """BIC lag order of the pre-whitening regression, candidate by candidate."""
    y = np.asarray(y, dtype=np.float64)
    d = np.diff(y)
    return _bic_loop(lambda p: lagged_design(y, d, d, (), p, p_max), p_max)


def baseline_lag_bic_loop(kind, y, p_max):
    """BIC lag order of a baseline test's regression, candidate by candidate."""
    parts = _regression_parts(kind, np.asarray(y, dtype=np.float64))
    return _bic_loop(lambda p: lagged_design(*parts, p, p_max), p_max)


def design_bic_loop(designs, responses, k0):
    """BIC lag order of each regression in a stack of p_max designs whose
    first k0 columns are always in, candidate by candidate."""
    p_max = designs.shape[2] - k0
    picks = [
        _bic_loop(lambda p: (X[:, : k0 + p], r), p_max)
        for X, r in zip(designs, responses)
    ]
    return np.array(picks)


def experiment_chunk_per_test(dgp, tests, alpha, seed, lo, hi):
    """Decisions of draws lo..hi-1 (1, 0, or -1 where the test raised),
    running every test of every draw on its own: its own lag pick,
    whitening and critical-value lookup."""
    out = np.full((hi - lo, len(tests)), -1, dtype=np.int8)
    for k in range(lo, hi):
        y = simulate_dgp(dgp, RngStream(seed, k))
        for j, spec in enumerate(tests):
            try:
                outcome = _apply_test(y, spec, alpha)
            except (UrblockError, np.linalg.LinAlgError):
                continue
            out[k - lo, j] = 1 if outcome.reject else 0
    return out
