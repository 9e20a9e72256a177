"""Assembled unit root test statistics and decisions.

Two variants share the pooled block statistics Y1, Y2:

    small-b:  Y1 / (kappa * v * sqrt(Y2))   -> standard normal null
    fixed-b:  Y1~ / (sigma * sqrt(Y2~))     -> simulated fixed-b table,

where the fixed-b variant evaluates the block statistics on the
time-transformed series while sigma comes from the original series'
residuals.  Both reject for statistics below the lower-tail critical
value.  run_test adds optional pre-whitening in two halves: ``whiten``
resolves the lag order (fixed / BIC / BIC capped by the T^{1/4} rule)
and whitens the series; ``evaluate`` resolves the blocklength against
the effective length and dispatches.  run_test is a battery of one; the
Monte Carlo harness whitens each draw once per lag rule.  Lag order 0
reproduces the unwhitened statistics bit-for-bit.
"""

from __future__ import annotations

import operator
import statistics
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    BlockScheme,
    DegenerateResiduals,
    DegenerateSeries,
    as_series,
)
from .limits import CritTable, default_crit_table, normal_cdf
from .nuisance import kappa2_hat, sigma2_hat, time_transform, variance_profile
from .pooled import PrefixSums, block_stats, pooled_fit, prefix_sums
from .prewhiten import fit_prewhiten, schwert_pmax, select_lag_bic

__all__ = [
    "LagSpec",
    "TestSpec",
    "TestOutcome",
    "v_factor",
    "tau_sb",
    "tau_fb",
    "Whitened",
    "whiten",
    "evaluate",
    "run_test",
]


@dataclass(frozen=True)
class LagSpec:
    """Lag-order rule: fixed p, BIC up to p_max, or Schwert-capped BIC."""

    kind: str
    value: int = 0

    @classmethod
    def fixed(cls, p: int) -> "LagSpec":
        return cls("fixed", int(p))

    @classmethod
    def bic(cls, p_max: int) -> "LagSpec":
        return cls("bic", int(p_max))

    @classmethod
    def schwert(cls) -> "LagSpec":
        return cls("schwert")

    @classmethod
    def coerce(cls, lag) -> "LagSpec":
        """A LagSpec as given, or a plain integer as the fixed lag order."""
        return lag if isinstance(lag, cls) else cls.fixed(operator.index(lag))

    def resolve(self, series) -> int:
        if self.kind == "fixed":
            return self.value
        if self.kind == "bic":
            return select_lag_bic(series, self.value)
        if self.kind == "schwert":
            return select_lag_bic(series, schwert_pmax(len(series)))
        raise ValueError(f"unknown lag rule {self.kind!r}")

    def label(self) -> str:
        if self.kind == "fixed":
            return str(self.value)
        if self.kind == "bic":
            return f"bic{self.value}"
        return "schwert"


@dataclass(frozen=True)
class TestSpec:
    """Configuration of one pooled-block test."""

    variant: str  # "small-b" or "fixed-b"
    scheme: BlockScheme
    lag: LagSpec = LagSpec.fixed(0)
    alpha: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "lag", LagSpec.coerce(self.lag))
        if self.variant not in ("small-b", "fixed-b"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")

    def label(self) -> str:
        base = "tau-sb" if self.variant == "small-b" else "tau-fb"
        return f"{base}[B={self.scheme.label()},p={self.lag.label()}]"


@dataclass
class TestOutcome:
    """Statistic, critical value, decision, and diagnostics of one test."""

    statistic: float
    critical_value: float
    reject: bool
    p_value: float | None = None
    diagnostics: dict = field(default_factory=dict)


def v_factor(B: int, T: int) -> float:
    """Finite-sample scaling sqrt(((T-B)(2B-1) - 2(B-2)) / (3B(T-B))).

    Normalizes the small-b statistic's variance to one; tends to
    sqrt(2/3) as B and T grow.
    """
    B = int(B)
    T = int(T)
    if not 2 <= B < T:
        raise ValueError(f"need 2 <= B < T, got B={B}, T={T}")
    v2 = ((T - B) * (2 * B - 1) - 2 * (B - 2)) / (3.0 * B * (T - B))
    return float(np.sqrt(v2))


def tau_sb(series, B: int, alpha: float = 0.05, sums=None) -> TestOutcome:
    """Small-b test: heteroskedasticity-robust, standard normal null.

    statistic = Y1 / (kappa * v * sqrt(Y2)); p-value is the lower-tail
    normal probability.  ``sums`` are the series' prefix sums, if built.
    """
    y = as_series(series)
    T = y.shape[0]
    fit = pooled_fit(y, B, sums)
    kappa2 = kappa2_hat(fit.centered_residuals, B)
    if kappa2 <= 0.0:
        raise DegenerateResiduals("kappa2 estimate is zero")
    v = v_factor(B, T)
    stat = fit.stats.y1 / (np.sqrt(kappa2) * v * np.sqrt(fit.stats.y2))
    crit = statistics.NormalDist().inv_cdf(alpha)
    return TestOutcome(
        statistic=float(stat),
        critical_value=crit,
        reject=bool(stat < crit),
        p_value=normal_cdf(stat),
        diagnostics={
            "variant": "small-b",
            "B": B,
            "T": T,
            "alpha": alpha,
            "kappa2_hat": kappa2,
            "v_T": v,
            "rho_hat": fit.rho_hat,
        },
    )


def tau_fb(
    series, B: int, alpha: float = 0.05, table: CritTable | None = None, sums=None
) -> TestOutcome:
    """Fixed-b test on the variance-time-transformed series.

    sigma comes from the original series' residuals (the transform never
    re-estimates it); the critical value is read from the fixed-b table
    at b = B / T, linear in b; a b up to 1/T outside the table (as B =
    floor(bT) can give) reads its nearest edge.  No p-value is defined.
    ``sums`` are the original series' prefix sums, if built.
    """
    y = as_series(series)
    T = y.shape[0]
    fit = pooled_fit(y, B, sums)
    sigma2 = sigma2_hat(fit.centered_residuals)
    profile = variance_profile(fit.centered_residuals)
    transformed = time_transform(y, profile)
    T_aux = transformed.shape[0]
    # T_aux is a multiple of T, so the resolved blocklength is exact.
    B_aux = (B * T_aux) // T
    tstats = block_stats(transformed, B_aux)
    if tstats.y2 <= 0.0:
        raise DegenerateSeries("transformed series is constant within blocks")
    # The auxiliary series repeats each observation ~T_aux/T times, so
    # one original innovation of variance sigma2 is spread over that many
    # auxiliary steps; the per-step innovation variance matching the
    # auxiliary normalization is sigma2 * T / T_aux.
    sigma2_aux = sigma2 * T / T_aux
    stat = tstats.y1 / (np.sqrt(sigma2_aux) * np.sqrt(tstats.y2))

    if table is None:
        table = default_crit_table()
    b = B / T
    crit = table.critical_value(b, alpha, slack=1.0 / T)
    return TestOutcome(
        statistic=float(stat),
        critical_value=crit,
        reject=bool(stat < crit),
        p_value=None,
        diagnostics={
            "variant": "fixed-b",
            "B": B,
            "T": T,
            "alpha": alpha,
            "b": b,
            "T_tilde": T_aux,
            "B_tilde": B_aux,
            "sigma2_hat": sigma2,
            "rho_hat": fit.rho_hat,
        },
    )


class Whitened(NamedTuple):
    """A series of length T whitened at lag order p: the whitened series
    (length T - p) and its prefix sums, shared by every blocklength."""

    p: int
    series: np.ndarray
    sums: PrefixSums


def whiten(series, lag: LagSpec) -> Whitened:
    """Resolve the lag order of a series and pre-whiten it."""
    y = as_series(series)
    p = lag.resolve(y)
    whitened = fit_prewhiten(y, p).whitened
    return Whitened(p, whitened, prefix_sums(whitened))


def evaluate(
    w: Whitened, spec: TestSpec, table: CritTable | None = None
) -> TestOutcome:
    """Run tau_sb or tau_fb on ``w = whiten(series, spec.lag)``.

    The block scheme is resolved against the effective length, so a
    fixed-b critical value is looked up at b = B_effective / T_effective.
    """
    warnings_list = []
    if (spec.variant == "small-b" and spec.scheme.kind == "fraction") or (
        spec.variant == "fixed-b" and spec.scheme.kind == "power"
    ):
        warnings_list.append(
            f"variant {spec.variant} paired with {spec.scheme.kind} "
            "blocklength scheme; asymptotics assume the natural pairing"
        )
    T_eff = w.series.shape[0]
    if T_eff < 30:
        warnings_list.append(
            f"effective sample length {T_eff} after {w.p} lags is below 30"
        )
    B = spec.scheme.resolve(T_eff)

    if spec.variant == "small-b":
        outcome = tau_sb(w.series, B, spec.alpha, sums=w.sums)
    else:
        outcome = tau_fb(w.series, B, spec.alpha, table, sums=w.sums)
    outcome.diagnostics.update(
        {
            "p": w.p,
            "lag_rule": spec.lag.label(),
            "T_original": T_eff + w.p,
            "T_effective": T_eff,
        }
    )
    if warnings_list:
        outcome.diagnostics["warnings"] = warnings_list
    return outcome


def run_test(series, spec: TestSpec, table: CritTable | None = None) -> TestOutcome:
    """Resolve lags, pre-whiten, and dispatch to tau_sb or tau_fb.

    p = 0 reduces exactly to the unwhitened statistics.
    """
    return evaluate(whiten(series, spec.lag), spec, table)
