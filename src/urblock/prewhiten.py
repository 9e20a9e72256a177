"""Pre-whitening of serially correlated errors before block testing.

The augmented regression of dy_t on (y_{t-1}, dy_{t-1}, ..., dy_{t-p})
is fitted over t = p+2..T (the earliest t for which every lagged
difference exists).  The lag coefficients theta filter the levels:

    ystar_t = y_t - sum_i theta_i * y_{t-i},   t = p+1..T,

re-indexed to start at 1 with effective length T - p; at p = 0 nothing
is fitted and ystar = y.  Lag order comes either fixed, from the BIC on
a common estimation sample, or from the BIC capped by the T^{1/4} rule
of thumb.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DegenerateSeries, LagTooLarge, as_series, check_bic_rows
from .core import lagged_design, ols, select_lag_bic_batch

__all__ = ["PrewhitenFit", "fit_prewhiten", "select_lag_bic", "schwert_pmax"]


@dataclass
class PrewhitenFit:
    """Lag coefficients and the whitened series.

    theta_hat are the coefficients on the lagged differences (length p);
    whitened has length T - p.  At p = 0 no regression is fitted:
    theta_hat is empty and whitened is the original series.
    """

    p: int
    theta_hat: np.ndarray
    whitened: np.ndarray


def fit_prewhiten(series, p: int) -> PrewhitenFit:
    """Fit the augmented regression with p lags and whiten the series.

    p = 0 makes the same checks (lag bound, constant series), then
    returns the series unchanged.  At p >= 1 a design column that is
    identically zero raises DegenerateSeries.
    """
    y = as_series(series)
    T = y.shape[0]
    p = int(p)
    if p < 0:
        raise ValueError(f"lag order must be nonnegative, got {p}")
    if p > T - 10:
        raise LagTooLarge(
            f"p={p} leaves fewer than 10 effective observations at T={T}"
        )
    d = np.diff(y)
    if not np.any(d):
        raise DegenerateSeries("series is constant; regression undefined")
    if p == 0:
        return PrewhitenFit(p=0, theta_hat=np.empty(0), whitened=y)
    theta = ols(*lagged_design(y, d, d, (), p, p)).coefficients[1:].copy()
    whitened = y[p:].copy()
    for k in range(1, p + 1):
        whitened -= theta[k - 1] * y[p - k : T - k]
    return PrewhitenFit(p=p, theta_hat=theta, whitened=whitened)


def select_lag_bic(series, p_max: int) -> int:
    """BIC lag order over p = 0..p_max on a common estimation sample.

    All candidates are fitted over t = p_max+2..T (n = T - p_max - 1
    observations) so their sums of squared residuals are comparable;
    BIC(p) = n*ln(SSR/n) + (p+1)*ln(n).  Ties break toward smaller p.
    Every candidate is a column prefix of the p_max design, so one fit
    of that design scores them all.  A design column that is
    identically zero raises DegenerateSeries.
    """
    y = as_series(series)
    T = y.shape[0]
    p_max = int(p_max)
    if p_max < 0:
        raise ValueError(f"p_max must be nonnegative, got {p_max}")
    check_bic_rows(T, p_max)
    d = np.diff(y)
    if not np.any(d):
        raise DegenerateSeries("series is constant; lag selection undefined")
    return int(select_lag_bic_batch(*lagged_design(y, d, d, (), p_max, p_max), 1))


def schwert_pmax(T: int) -> int:
    """Rule-of-thumb lag cap floor(12 * (T/100)^{1/4})."""
    if T < 20:
        raise ValueError(f"need T >= 20, got {T}")
    return int(np.floor(12.0 * (T / 100.0) ** 0.25))
