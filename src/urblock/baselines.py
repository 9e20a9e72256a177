"""Reference unit root tests: ADF, DF-GLS (constant/trend), Enders-Lee.

All three are lower-tail t-tests for the unit-root coefficient.  Their
critical values are not tabulated here; they are simulated from the null
(random walk, iid standard normal innovations, no deterministics) at the
test's own sample size with 100,000 replications under a fixed internal
seed, and cached on disk, at six decimals, in the ``urblock-basetable
v1`` format.

One builder, ``_regression_parts``, makes every test regression: it
detrends one series or each row of a (reps, T) batch with one QR of the
deterministic design they all share, and ``core.lagged_design`` lays out
the lags.  A series' fixed-lag statistic is fitted by the QR kernel
``core.ols``.  BIC picks each row's lag from one ``ols`` of its p_max
design and fits the statistic at that lag with ``ols`` on a stack; a
series' BIC test is that route on a batch of one.  Only the fixed-lag
null tables fit by normal equations (``_batched_tstat``): their null
designs are well conditioned, and a 100,000-replication build runs
10-70% faster than by stacked QR (adf at T=300, el at T=100).  Those
builds dominate a cold table cache.  The test suite checks both fits
against each other.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import DegenerateSeries, RngStream, as_series, check_bic_rows
from .core import lagged_design, ols, select_lag_bic_batch
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


@functools.lru_cache(maxsize=32)
def _deterministics(kind: str, T: int):
    """(terms, design, P) of a kind's detrending at sample size T.

    ``terms`` (k, T) are the deterministic components, ``design`` the
    (quasi-)differenced terms the kind regresses the (quasi-)differenced
    series x on, and P gives each series' coefficients b = x @ P.  Every
    series shares the design, so one QR of it, design = QR, serves them
    all: b = R^-1 Q'x, that is P = Q R^-T.
    """
    t = np.arange(1.0, T + 1.0)
    if kind == "el":
        terms = np.stack([t, np.sin(2.0 * np.pi * t / T), np.cos(2.0 * np.pi * t / T)])
        design = np.diff(terms).T  # [1, dsin, dcos]
    else:
        terms = np.stack([np.ones(T), t]) if kind.endswith("trend") else np.ones((1, T))
        design = _quasi_diff(terms, _gls_alpha(kind, T)).T
    q, r = np.linalg.qr(design)
    return terms, design, q @ np.linalg.inv(r).T


def _gls_alpha(kind: str, T: int) -> float:
    return 1.0 - (CBAR_TREND if kind.endswith("trend") else CBAR_CONST) / T


def _quasi_diff(x, a: float):
    """x_t - a x_{t-1} along the last axis, keeping the first value."""
    return np.concatenate([x[..., :1], x[..., 1:] - a * x[..., :-1]], axis=-1)


def _row_ss(x):
    """Each row's sum of squares about its mean, in one pass with no
    (reps, T) temporary; a mean far above the spread costs digits, which
    a 1e-20 degeneracy threshold does not notice."""
    s = x.sum(axis=-1)
    return np.einsum("...t,...t->...", x, x) - s * s / x.shape[-1]


def _regression_parts(kind: str, y: np.ndarray):
    """(level, lag_diffs, response_diffs, extras) of the test regression
    of one series (T,) or of each row of a (reps, T) batch."""
    T = y.shape[-1]
    if kind == "adf":
        d = np.diff(y)
        return y, d, d, [np.ones(T - 1)]
    if kind == "el":  # stage 1: Fourier terms fitted to the differences
        d = np.diff(y)
        terms, design, P = _deterministics(kind, T)
        st = y - (d @ P) @ terms
        st -= st[..., :1]
        return st, np.diff(st), d, design.T
    if kind in ("df-gls", "df-gls-trend"):  # local-to-unity GLS detrending
        terms, _design, P = _deterministics(kind, T)
        yd = y - (_quasi_diff(y, _gls_alpha(kind, T)) @ P) @ terms
        if np.any(_row_ss(yd) <= 1e-20 * _row_ss(y)):
            raise DegenerateSeries(
                "GLS detrending leaves a numerically zero series; "
                "the deterministic part fits exactly"
            )
        dd = np.diff(yd)
        return yd, dd, dd, ()
    raise ValueError(f"unknown baseline kind {kind!r}")


def _stat(kind: str, y: np.ndarray, p: int) -> float:
    return ols(*lagged_design(*_regression_parts(kind, y), p, p)).tstat0


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


def _batch_bic_stats(kind: str, y: np.ndarray, p_max: int):
    """Statistics at each series' BIC lag for a (reps, T) batch, and the lags.

    The lag comes from one fit of each series' p_max design; each
    statistic is then fitted on the sample that :func:`_stat` uses at
    that lag, one stack per selected lag.
    """
    check_bic_rows(y.shape[1], p_max)
    level, lag_diffs, resp, extras = _regression_parts(kind, y)
    chosen = select_lag_bic_batch(
        *lagged_design(level, lag_diffs, resp, extras, p_max, p_max), 1 + len(extras)
    )
    stats = np.empty(y.shape[0])
    for p in np.unique(chosen):
        rows = chosen == p
        sub = level[rows], lag_diffs[rows], resp[rows], extras
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
            # The design holds all the fit needs: dropping the draws before
            # the fit, and the design before the next chunk's draws, lowers
            # the build's peak memory.
            design = lagged_design(*_regression_parts(kind, y), lag.value, lag.value)
            del y
            out[pos : pos + m] = _batched_tstat(*design)
            del design
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
    if np.ptp(y) == 0.0:
        raise DegenerateSeries("series is constant; test regression undefined")
    if lag.kind == "fixed":
        p, stat = lag.value, _stat(kind, y, lag.value)
    else:
        stats, chosen = _batch_bic_stats(kind, y[None], lag.value)
        p, stat = int(chosen[0]), stats[0]
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
