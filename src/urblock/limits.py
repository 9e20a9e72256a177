"""Limiting distributions of the block tests and fixed-b critical values.

The fixed-b null/local-alternative law is the Brownian functional

    [ int_0^{1-b} (J(b+r) - J(r))^2 dr  -  b(1-b) ]
    / ( 2 * sqrt( b * int_0^{1-b} int_r^{b+r} (J(s) - J(r))^2 ds dr ) )

with J the Ornstein-Uhlenbeck process J(r) = int_0^r e^{-(r-s)c/b} dW(s)
(J = W when c = 0).  Paths are discretized on a uniform grid with the
exact AR(1) recursion J((i+1)/n) = e^{-c/(bn)} J(i/n) + N(0, 1/n), both
integrals are left-endpoint Riemann sums, and the double integral is
expanded through prefix sums so each path costs O(n).  The package ships
a reference critical-value table (9 relative blocklengths x 8 levels,
simulated at grid 50,000 / 100,000 repetitions); build_crit_table
regenerates tables on demand, deterministically for any worker count.
"""

from __future__ import annotations

import importlib.resources
import math
import os
import statistics
import warnings
from dataclasses import dataclass

import numpy as np

from .core import RngStream, chunked_map

__all__ = [
    "CritTable",
    "simulate_fb_statistic",
    "build_crit_table",
    "simulate_sb_local_power",
    "default_crit_table",
    "table_dir",
    "DEFAULT_B_GRID",
    "DEFAULT_ALPHA_GRID",
]

DEFAULT_B_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_ALPHA_GRID = (0.2, 0.1, 0.05, 0.04, 0.03, 0.02, 0.01, 0.001)

_CRIT_HEADER = "urblock-crittable v1"
_EMBEDDED_TABLE_FILE = "fb_critical_values.txt"


def normal_cdf(x: float) -> float:
    """Standard normal CDF; erfc keeps relative accuracy in the lower tail."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def table_dir() -> str | None:
    """Optional override directory for critical-value tables."""
    return os.environ.get("URBLOCK_TABLE_DIR")


@dataclass
class CritTable:
    """Lower-tail critical values on a (b, alpha) grid.

    quantiles[i, j] is the critical value at b_grid[i], alpha_grid[j].
    Lookup interpolates linearly in b; alpha must match a grid level
    exactly (tail quantiles are not interpolated across levels).
    """

    b_grid: np.ndarray
    alpha_grid: np.ndarray
    quantiles: np.ndarray
    grid: int
    reps: int
    seed: int

    def critical_value(self, b: float, alpha: float, slack: float = 1e-12) -> float:
        """Quantile at b, linear in b; reads the edge up to ``slack`` outside."""
        bmin, bmax = self.b_grid[0], self.b_grid[-1]
        if not bmin - slack <= b <= bmax + slack:
            raise ValueError(
                f"b={b:g} outside tabulated range [{bmin:g}, {bmax:g}]; "
                "extrapolation is not supported"
            )
        ja = np.flatnonzero(np.abs(self.alpha_grid - alpha) < 1e-12)
        if ja.size == 0:
            levels = ", ".join(f"{a:g}" for a in self.alpha_grid)
            raise ValueError(
                f"alpha={alpha:g} not tabulated (available: {levels})"
            )
        col = self.quantiles[:, ja[0]]
        return float(np.interp(b, self.b_grid, col))

    def save(self, path, command: str = "api") -> None:
        from . import __version__

        lines = [
            f"# urblock {__version__} | command: {command} | seed: {self.seed}",
            f"{_CRIT_HEADER} grid={self.grid} reps={self.reps} seed={self.seed}",
            "b,alpha,quantile",
        ]
        for i, b in enumerate(self.b_grid):
            for j, a in enumerate(self.alpha_grid):
                lines.append(f"{b:g},{a:g},{self.quantiles[i, j]:.6f}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, source) -> "CritTable":
        if hasattr(source, "read"):
            name, text = getattr(source, "name", "crittable"), source.read()
        else:
            name = str(source)
            with open(source) as fh:
                text = fh.read()
        lines = [
            ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")
        ]
        header = lines[0] if lines else ""
        if not header.startswith(_CRIT_HEADER):
            raise ValueError(f"{name}: not a crittable file (header {header!r})")
        meta = dict(
            field.split("=", 1) for field in header.split()[2:] if "=" in field
        )
        rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("b,")]
        for i, r in enumerate(rows):
            try:
                rows[i] = [float(r[0]), float(r[1]), float(r[2])]
            except (IndexError, ValueError):
                raise ValueError(f"{name}: row {','.join(r)!r} is not 3 numbers") from None
        bs = sorted({r[0] for r in rows})
        alphas = sorted({r[1] for r in rows}, reverse=True)
        quant = np.full((len(bs), len(alphas)), np.nan)
        bi = {b: i for i, b in enumerate(bs)}
        aj = {a: j for j, a in enumerate(alphas)}
        for b, a, q in rows:
            quant[bi[b], aj[a]] = q
        if not rows or np.any(np.isnan(quant)):
            raise ValueError(f"{name}: crittable grid is incomplete")
        return cls(
            b_grid=np.array(bs),
            alpha_grid=np.array(alphas),
            quantiles=quant,
            grid=int(meta.get("grid", 0)),
            reps=int(meta.get("reps", 0)),
            seed=int(meta.get("seed", 0)),
        )


def _ou_path(dW: np.ndarray, b: float, c: float) -> np.ndarray:
    """Discretized J_{c,b} from increments dW; J[0] = 0, n+1 points."""
    n = dW.shape[0]
    out = np.empty(n + 1)
    out[0] = 0.0
    if c == 0.0:
        np.cumsum(dW, out=out[1:])
    else:
        from scipy.signal import lfilter
        decay = np.exp(-c / (b * n))
        out[1:] = lfilter([1.0], [1.0, -decay], dW)
    return out


def _fb_functional(J: np.ndarray, b: float, s1=None, s2=None) -> float:
    """Fixed-b statistic of one discretized path via prefix sums.

    s1/s2 are optional precomputed prefix sums of J and J^2 so several
    b values can share one path (the c = 0 table build).
    """
    n = J.shape[0] - 1
    m = int(round(b * n))
    if not 1 <= m <= n - 1:
        raise ValueError(f"grid {n} too coarse for b={b:g}")
    if s1 is None:
        s1 = np.concatenate(([0.0], np.cumsum(J)))
        s2 = np.concatenate(([0.0], np.cumsum(J * J)))
    # Left endpoints r = i/n, i = 0..n-m-1 for the outer integral.
    head = J[: n - m]
    diff = J[m:n] - head
    numerator = float(diff @ diff) / n - b * (1.0 - b)

    i = np.arange(n - m)
    inner = (s2[i + m] - s2[i]) - 2.0 * head * (s1[i + m] - s1[i]) + m * head * head
    d2 = b * float(inner.sum()) / (n * n)
    if d2 <= 0.0:
        warnings.warn(
            "fixed-b functional denominator vanished (zero-variance path); "
            "returning -inf",
            stacklevel=2,
        )
        return float("-inf")
    return numerator / (2.0 * np.sqrt(d2))


def simulate_fb_statistic(b: float, c: float, grid: int, rng: RngStream) -> float:
    """One draw of the fixed-b limit statistic.

    b in (0,1), c >= 0 (c = 0 is the null), grid >= 100 discretization
    points.  Deterministic given the stream.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"b must lie in (0,1), got {b}")
    if c < 0.0:
        raise ValueError(f"c must be nonnegative, got {c}")
    grid = int(grid)
    if grid < 100:
        raise ValueError(f"grid must be at least 100, got {grid}")
    g = rng.generator()
    dW = g.standard_normal(grid) / np.sqrt(grid)
    J = _ou_path(dW, b, c)
    return _fb_functional(J, b)


def _crit_chunk(seed: int, b_grid, grid: int, lo: int, hi: int) -> np.ndarray:
    """Statistics for replications lo..hi-1; one shared W path per rep."""
    b_grid = np.asarray(b_grid)
    out = np.empty((hi - lo, b_grid.shape[0]))
    sqrt_grid = np.sqrt(grid)
    for k in range(lo, hi):
        g = RngStream(seed, k).generator()
        W = _ou_path(g.standard_normal(grid) / sqrt_grid, b_grid[0], 0.0)
        s1 = np.concatenate(([0.0], np.cumsum(W)))
        s2 = np.concatenate(([0.0], np.cumsum(W * W)))
        for ib, b in enumerate(b_grid):
            out[k - lo, ib] = _fb_functional(W, b, s1, s2)
    return out


def build_crit_table(
    b_grid=DEFAULT_B_GRID,
    alpha_grid=DEFAULT_ALPHA_GRID,
    grid: int = 5000,
    reps: int = 20000,
    seed: int = 0,
    threads: int = 1,
) -> CritTable:
    """Simulate the null fixed-b table: empirical lower-tail quantiles.

    Replication k draws its path from stream (seed, k), so the assembled
    sample -- and therefore every quantile -- is byte-identical for any
    thread count.  Because c = 0 makes the path independent of b, one
    path per replication serves the whole b grid; the per-(b, alpha)
    marginals match per-call simulate_fb_statistic draws exactly.
    """
    if reps < 1000:
        raise ValueError(f"reps must be at least 1000, got {reps}")
    b_arr = np.asarray(sorted(b_grid), dtype=np.float64)
    a_arr = np.asarray(sorted(alpha_grid, reverse=True), dtype=np.float64)
    grid = int(grid)

    stats = chunked_map(_crit_chunk, reps, threads, seed, b_arr, grid)

    quantiles = np.empty((b_arr.shape[0], a_arr.shape[0]))
    for ib in range(b_arr.shape[0]):
        quantiles[ib] = np.quantile(stats[:, ib], a_arr)
    return CritTable(
        b_grid=b_arr,
        alpha_grid=a_arr,
        quantiles=quantiles,
        grid=grid,
        reps=reps,
        seed=seed,
    )


def simulate_sb_local_power(
    c: float,
    variance_fn=None,
    alpha: float = 0.05,
    reps: int | None = None,
    rng: RngStream | None = None,
) -> float:
    """Asymptotic small-b rejection probability at local parameter c.

    The limit statistic is normal with unit variance and mean
    -(c*sqrt(3)/2) * (int sigma^2) / sqrt(int sigma^4), so the rejection
    probability is Phi(Phi^{-1}(alpha) + drift) with the integrals
    evaluated by adaptive quadrature of ``variance_fn`` (sigma^2 as a
    function of r; None means homoskedastic).  Passing reps and rng
    switches to a Monte Carlo cross-check that draws the limit normal
    directly and counts rejections.
    """
    if c < 0.0:
        raise ValueError(f"c must be nonnegative, got {c}")
    if variance_fn is None:
        drift = c * np.sqrt(3.0) / 2.0
    else:
        from scipy.integrate import quad
        i2, _ = quad(variance_fn, 0.0, 1.0, limit=200)
        i4, _ = quad(lambda r: variance_fn(r) ** 2, 0.0, 1.0, limit=200)
        drift = c * np.sqrt(3.0) / 2.0 * i2 / np.sqrt(i4)
    crit = statistics.NormalDist().inv_cdf(alpha)
    if reps is not None and rng is not None:
        z = rng.generator().standard_normal(int(reps)) - drift
        return float(np.mean(z < crit))
    return normal_cdf(crit + drift)


# (URBLOCK_TABLE_DIR at load time, table): a changed override reloads.
_default_table_cache: tuple[str | None, CritTable] | None = None


def default_crit_table() -> CritTable:
    """The packaged fixed-b table, or the URBLOCK_TABLE_DIR override."""
    global _default_table_cache
    override = table_dir()
    if _default_table_cache is not None and _default_table_cache[0] == override:
        return _default_table_cache[1]
    candidate = override and os.path.join(override, _EMBEDDED_TABLE_FILE)
    if candidate and os.path.isfile(candidate):
        table = CritTable.load(candidate)
    else:
        ref = importlib.resources.files("urblock.data").joinpath(_EMBEDDED_TABLE_FILE)
        with ref.open("r") as fh:
            table = CritTable.load(fh)
    _default_table_cache = (override, table)
    return table
