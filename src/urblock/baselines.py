"""Reference unit root tests: ADF, DF-GLS (constant/trend), Enders-Lee.

All three are lower-tail t-tests for the unit-root coefficient.  Their
critical values are not tabulated here; they are simulated from the null
(random walk, iid standard normal innovations, no deterministics) at the
test's own sample size with 100,000 replications under a fixed internal
seed, and cached on disk, at six decimals, in the ``urblock-basetable
v1`` format.

Every per-series regression (detrending, lag choice, statistic) goes
through the QR kernel ``core.ols``.  Null tables are built over (reps,
T) chunks of replications, detrended by normal equations.  BIC tables
then pick each replication's lag and fit its statistic with ``ols`` on
a stack of designs.  Fixed-lag tables fit by normal equations too
(``_batched_tstat``): their null designs are well conditioned, and a
100,000-replication build runs 10-70% faster than by stacked QR (adf at
T=300, el at T=100).  Those builds dominate a cold table cache.  The
test suite cross-checks both table routes against the per-series path.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import DegenerateSeries, RngStream, as_series, lagged_design, ols
from .core import select_lag_bic_batch
from .limits import table_dir
from .testkit import LagSpec, TestOutcome

__all__ = [
    "BaselineSpec",
    "adf",
    "df_gls",
    "enders_lee",
    "run_baseline",
    "baseline_critical_value",
    "BASELINE_KINDS",
]

BASELINE_KINDS = ("adf", "df-gls", "df-gls-trend", "el")

# Noncentrality constants of the local-to-unity GLS transform.
CBAR_CONST = 7.0
CBAR_TREND = 13.5

NULL_TABLE_REPS = 100_000
NULL_TABLE_SEED = 1729
BASE_ALPHAS = (0.2, 0.1, 0.05, 0.04, 0.03, 0.02, 0.01, 0.001)

_BASE_HEADER = "urblock-basetable v1"
_BASE_FILE = "baseline_critical_values.txt"
# Stored precision, applied to fresh quantiles too: cold and warm agree.
_QUANTILE_FMT = ".6f"

_MIN_T = {"adf": 25, "df-gls": 25, "df-gls-trend": 25, "el": 30}

# Values (rows x T) of a null-table chunk evaluated together on the BIC
# path: 5,000 rows at T=100; a build peaks under 300 MB at T=100 and 300.
_BIC_SUB_BATCH_CELLS = 500_000


@dataclass(frozen=True)
class BaselineSpec:
    """Which reference test to run and how to pick its lag order."""

    kind: str
    lag: LagSpec = LagSpec.fixed(0)

    def __post_init__(self):
        object.__setattr__(self, "lag", LagSpec.coerce(self.lag))
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if self.lag.kind == "schwert":
            raise ValueError("baselines accept fixed or BIC lag rules only")

    def label(self) -> str:
        return f"{self.kind}[p={self.lag.label()}]"


# ---------------------------------------------------------------------------
# test regressions


def _gls_detrend(y: np.ndarray, trend: bool) -> np.ndarray:
    """Local-to-unity GLS demeaning/detrending; keeps the first row as is."""
    T = y.shape[0]
    cbar = CBAR_TREND if trend else CBAR_CONST
    alpha_star = 1.0 - cbar / T
    t = np.arange(1, T + 1, dtype=np.float64)
    z = np.column_stack([np.ones(T), t]) if trend else np.ones((T, 1))
    yc = np.empty(T)
    yc[0] = y[0]
    yc[1:] = y[1:] - alpha_star * y[:-1]
    zc = np.empty_like(z)
    zc[0] = z[0]
    zc[1:] = z[1:] - alpha_star * z[:-1]
    beta = ols(zc, yc).coefficients
    detrended = y - z @ beta

    dev = detrended - detrended.mean()
    ydev = y - y.mean()
    if float(dev @ dev) <= 1e-20 * max(1.0, float(ydev @ ydev)):
        raise DegenerateSeries(
            "GLS detrending leaves a numerically zero series; "
            "the deterministic part fits exactly"
        )
    return detrended


def _fourier_terms(T: int):
    t = np.arange(1, T + 1, dtype=np.float64)
    s = np.sin(2.0 * np.pi * t / T)
    c = np.cos(2.0 * np.pi * t / T)
    return t, s, c


def _el_detrend(y: np.ndarray):
    """Stage-1 Fourier detrending of the Enders-Lee procedure."""
    T = y.shape[0]
    t, s, c = _fourier_terms(T)
    d = np.diff(y)
    ds = np.diff(s)
    dc = np.diff(c)
    stage1 = np.column_stack([np.ones(T - 1), ds, dc])
    delta = ols(stage1, d).coefficients
    dtrend = delta[0] * t + delta[1] * s + delta[2] * c
    stilde = y - dtrend - (y[0] - dtrend[0])
    return stilde, ds, dc


def _regression_parts(kind: str, y: np.ndarray):
    """(level, lag_diffs, response_diffs, extras) of one series' test
    regression, detrended with the QR kernel."""
    T = y.shape[0]
    if kind == "adf":
        d = np.diff(y)
        return y, d, d, [np.ones(T - 1)]
    if kind in ("df-gls", "df-gls-trend"):
        yd = _gls_detrend(y, kind.endswith("trend"))
        dd = np.diff(yd)
        return yd, dd, dd, []
    if kind == "el":
        stilde, ds, dc = _el_detrend(y)
        return stilde, np.diff(stilde), np.diff(y), [np.ones(T - 1), ds, dc]
    raise ValueError(f"unknown baseline kind {kind!r}")


def _batch_parts(kind: str, y: np.ndarray):
    """(level, lag_diffs, response_diffs, extras) for a (reps, T) batch of
    null series, detrended with normal equations; extras is (k, reps, T-1)."""
    m, T = y.shape
    d = np.diff(y, axis=1)

    def extras(*cols):
        k = len(cols)
        return np.broadcast_to(np.reshape(cols, (k, 1, T - 1)), (k, m, T - 1))

    if kind == "adf":
        return y, d, d, extras(np.ones(T - 1))

    if kind in ("df-gls", "df-gls-trend"):
        trend = kind.endswith("trend")
        cbar = CBAR_TREND if trend else CBAR_CONST
        alpha_star = 1.0 - cbar / T
        tt = np.arange(1, T + 1, dtype=np.float64)
        z = np.column_stack([np.ones(T), tt]) if trend else np.ones((T, 1))
        zc = np.vstack([z[0], z[1:] - alpha_star * z[:-1]])
        yc = np.hstack([y[:, :1], y[:, 1:] - alpha_star * y[:, :-1]])
        beta = np.linalg.solve(zc.T @ zc, zc.T @ yc.T).T
        yd = y - beta @ z.T
        dd = np.diff(yd, axis=1)
        return yd, dd, dd, extras()

    if kind == "el":
        tt, s, c = _fourier_terms(T)
        ds = np.diff(s)
        dc = np.diff(c)
        stage1 = np.column_stack([np.ones(T - 1), ds, dc])
        delta = np.linalg.solve(stage1.T @ stage1, stage1.T @ d.T).T
        dtrend = delta[:, :1] * tt + delta[:, 1:2] * s + delta[:, 2:3] * c
        st = y - dtrend - (y[:, :1] - dtrend[:, :1])
        return st, np.diff(st, axis=1), d, extras(np.ones(T - 1), ds, dc)

    raise ValueError(f"unknown baseline kind {kind!r}")


def _check_pmax(T: int, p_max: int) -> None:
    if T - p_max < 20:
        raise ValueError(f"p_max={p_max} leaves too few rows at T={T}")


# ---------------------------------------------------------------------------
# scalar statistic path (QR kernel)


def _stat(kind: str, y: np.ndarray, p: int) -> float:
    return ols(*lagged_design(*_regression_parts(kind, y), p, p)).tstat0


def _select_lag(kind: str, y: np.ndarray, p_max: int) -> int:
    """BIC over the test's own regression on a common sample."""
    _check_pmax(y.shape[0], p_max)
    parts = _regression_parts(kind, y)
    design, resp = lagged_design(*parts, p_max, p_max)
    return int(select_lag_bic_batch(design, resp, 1 + len(parts[3])))


# ---------------------------------------------------------------------------
# batched null simulation


def _batched_tstat(X, resp) -> np.ndarray:
    """t-ratios of column 0 across a (m, n, k) stack of regressions, by
    normal equations."""
    m, n, k = X.shape
    G = np.einsum("mnk,mnl->mkl", X, X, optimize=True)
    h = np.einsum("mnk,mn->mk", X, resp, optimize=True)
    beta = np.linalg.solve(G, h[..., None])[..., 0]
    resid = resp - np.einsum("mnk,mk->mn", X, beta, optimize=True)
    ssr = np.einsum("mn,mn->m", resid, resid, optimize=True)
    s2 = ssr / (n - k)
    e0 = np.zeros((m, k, 1))
    e0[:, 0, 0] = 1.0
    ginv00 = np.linalg.solve(G, e0)[:, 0, 0]
    return beta[:, 0] / np.sqrt(s2 * ginv00)


def _batch_stats(kind: str, y: np.ndarray, p: int) -> np.ndarray:
    """Fixed-lag statistics for a (reps, T) batch of null series."""
    return _batched_tstat(*lagged_design(*_batch_parts(kind, y), p, p))


def _batch_bic_stats(kind: str, y: np.ndarray, p_max: int):
    """Statistics at each series' BIC lag for a (reps, T) batch, and the lags.

    The lag comes from one fit of each series' p_max design; each
    statistic is then fitted on the sample that :func:`_stat` uses at
    that lag, one stack per selected lag.
    """
    _check_pmax(y.shape[1], p_max)
    parts = _batch_parts(kind, y)
    chosen = select_lag_bic_batch(
        *lagged_design(*parts, p_max, p_max), 1 + len(parts[3])
    )
    stats = np.empty(y.shape[0])
    for p in np.unique(chosen):
        rows = chosen == p
        sub = [a[..., rows, :] for a in parts]
        stats[rows] = ols(*lagged_design(*sub, p, p)).tstat0
    return stats, chosen


def _simulate_null_stats(kind: str, T: int, lag: LagSpec, reps: int, seed: int):
    """Null-distribution draws; chunk layout is fixed so output is
    deterministic for a given seed regardless of the caller.  BIC draws
    are computed in sub-batches of a chunk's rows to bound memory."""
    out = np.empty(reps)
    chunk = max(1, int(4_000_000 // T))
    pos = 0
    ci = 0
    while pos < reps:
        m = min(chunk, reps - pos)
        g = RngStream(seed, ci).generator()
        y = np.cumsum(g.standard_normal((m, T)), axis=1)
        if lag.kind == "fixed":
            out[pos : pos + m] = _batch_stats(kind, y, lag.value)
        else:
            step = max(1, _BIC_SUB_BATCH_CELLS // T)
            for s in range(0, m, step):
                rows = y[s : s + step]
                out[pos + s : pos + s + rows.shape[0]] = _batch_bic_stats(
                    kind, rows, lag.value
                )[0]
        pos += m
        ci += 1
    return out


# ---------------------------------------------------------------------------
# critical-value cache


def _cache_path() -> str:
    base = table_dir()
    if not base:
        root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        base = os.path.join(root, "urblock")
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, _BASE_FILE)


_cache_lock = threading.Lock()
_cache: dict[tuple, dict[float, float]] = {}
_cache_loaded_from: str | None = None


def _load_cache(path: str) -> None:
    global _cache_loaded_from
    _cache.clear()
    _cache_loaded_from = path
    if not os.path.isfile(path):
        return
    with open(path) as fh:
        lines = [
            ln.strip()
            for ln in fh
            if ln.strip() and not ln.startswith("#")
        ]
    if not lines or not lines[0].startswith(_BASE_HEADER):
        return
    for ln in lines[1:]:
        if ln.startswith("kind,"):
            continue
        kind, T, p, alpha, q = ln.split(",")
        _cache.setdefault((kind, int(T), p), {})[float(alpha)] = float(q)


def _write_cache(path: str) -> None:
    from . import __version__

    lines = [
        f"# urblock {__version__} | command: basetable | seed: {NULL_TABLE_SEED}",
        f"{_BASE_HEADER} reps={NULL_TABLE_REPS} seed={NULL_TABLE_SEED}",
        "kind,T,p,alpha,quantile",
    ]
    for (kind, T, p) in sorted(_cache):
        quants = _cache[(kind, T, p)]
        for alpha in sorted(quants, reverse=True):
            lines.append(f"{kind},{T},{p},{alpha:g},{quants[alpha]:{_QUANTILE_FMT}}")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def baseline_critical_value(kind: str, T: int, lag: LagSpec, alpha: float) -> float:
    """Null quantile for (kind, T, lag), simulating and caching on demand."""
    path = _cache_path()
    key = (kind, int(T), lag.label())
    with _cache_lock:
        if _cache_loaded_from != path:
            _load_cache(path)
        quants = _cache.get(key)
        if quants is None:
            stats = _simulate_null_stats(kind, T, lag, NULL_TABLE_REPS, NULL_TABLE_SEED)
            quants = {
                a: float(format(np.quantile(stats, a), _QUANTILE_FMT))
                for a in BASE_ALPHAS
            }
            _cache[key] = quants
            _write_cache(path)
        if alpha in quants:
            return quants[alpha]
        match = [a for a in quants if abs(a - alpha) < 1e-12]
        if match:
            return quants[match[0]]
        levels = ", ".join(f"{a:g}" for a in sorted(quants, reverse=True))
        raise ValueError(f"alpha={alpha:g} not tabulated (available: {levels})")


def warm_baseline_tables(specs, T: int, alpha: float) -> list:
    """Each spec's baseline critical value (None for the other specs),
    simulating any missing table before workers fork."""
    return [
        baseline_critical_value(spec.kind, T, spec.lag, alpha)
        if isinstance(spec, BaselineSpec)
        else None
        for spec in specs
    ]


# ---------------------------------------------------------------------------
# public test entry points


def _run(kind: str, series, lag, alpha: float, crit=None) -> TestOutcome:
    lag = LagSpec.coerce(lag)
    y = as_series(series, min_length=_MIN_T[kind])
    T = y.shape[0]
    p = lag.value if lag.kind == "fixed" else _select_lag(kind, y, lag.value)
    stat = _stat(kind, y, p)
    if crit is None:
        crit = baseline_critical_value(kind, T, lag, alpha)
    return TestOutcome(
        statistic=float(stat),
        critical_value=crit,
        reject=bool(stat < crit),
        p_value=None,
        diagnostics={
            "variant": kind,
            "T": T,
            "p": p,
            "lag_rule": lag.label(),
            "alpha": alpha,
            "critical_values": "simulated finite-sample null "
            f"(reps={NULL_TABLE_REPS}, seed={NULL_TABLE_SEED})",
        },
    )


def adf(series, lag: LagSpec = LagSpec.fixed(0), alpha: float = 0.05) -> TestOutcome:
    """Augmented Dickey-Fuller t-test with a constant."""
    return _run("adf", series, lag, alpha)


def df_gls(
    series,
    lag: LagSpec = LagSpec.fixed(0),
    trend: bool = False,
    alpha: float = 0.05,
) -> TestOutcome:
    """Dickey-Fuller test after local-to-unity GLS demeaning/detrending."""
    return _run("df-gls-trend" if trend else "df-gls", series, lag, alpha)


def enders_lee(
    series, lag: LagSpec = LagSpec.fixed(0), alpha: float = 0.05
) -> TestOutcome:
    """Unit root test with a single-frequency Fourier trend approximation."""
    return _run("el", series, lag, alpha)


def run_baseline(
    series, spec: BaselineSpec, alpha: float = 0.05, critical_value=None
) -> TestOutcome:
    """``critical_value`` skips the table lookup when the caller did it."""
    return _run(spec.kind, series, spec.lag, alpha, critical_value)
