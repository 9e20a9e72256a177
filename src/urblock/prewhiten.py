"""Pre-whitening of serially correlated errors before block testing.

The augmented regression of dy_t on (y_{t-1}, dy_{t-1}, ..., dy_{t-p})
is fitted over t = p+2..T (the earliest t for which every lagged
difference exists).  The lag coefficients theta filter the levels:

    ystar_t = y_t - sum_i theta_i * y_{t-i},   t = p+1..T,

re-indexed to start at 1 with effective length T - p.  Lag order comes
either fixed, from the BIC on a common estimation sample, or from the
BIC capped by the T^{1/4} rule of thumb.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DegenerateSeries, LagTooLarge, OlsFit, as_series, lagged_design
from .core import ols, select_lag_bic_batch

__all__ = ["PrewhitenFit", "fit_prewhiten", "select_lag_bic", "schwert_pmax"]


@dataclass
class PrewhitenFit:
    """Augmented-regression fit and the whitened series.

    theta_hat are the coefficients on the lagged differences (length p);
    varphi_hat is the coefficient on the level y_{t-1}, exposed for
    diagnostics only.  whitened has length T - p; p = 0 returns the
    original series unchanged.
    """

    p: int
    theta_hat: np.ndarray
    varphi_hat: float
    whitened: np.ndarray
    regression: OlsFit


def fit_prewhiten(series, p: int) -> PrewhitenFit:
    """Fit the augmented regression with p lags and whiten the series."""
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
    design, response = lagged_design(y, d, d, (), p, p)
    fit = ols(design, response)
    varphi = float(fit.coefficients[0])
    theta = fit.coefficients[1:].copy()

    if p == 0:
        whitened = y
    else:
        whitened = y[p:].copy()
        for k in range(1, p + 1):
            whitened -= theta[k - 1] * y[p - k : T - k]
    return PrewhitenFit(
        p=p,
        theta_hat=theta,
        varphi_hat=varphi,
        whitened=whitened,
        regression=fit,
    )


def select_lag_bic(series, p_max: int) -> int:
    """BIC lag order over p = 0..p_max on a common estimation sample.

    All candidates are fitted over t = p_max+2..T (n = T - p_max - 1
    observations) so their sums of squared residuals are comparable;
    BIC(p) = n*ln(SSR/n) + (p+1)*ln(n).  Ties break toward smaller p.
    Every candidate is a column prefix of the p_max design, so one QR
    of that design scores them all.
    """
    y = as_series(series)
    T = y.shape[0]
    p_max = int(p_max)
    if p_max < 0:
        raise ValueError(f"p_max must be nonnegative, got {p_max}")
    if T - p_max < 20:
        raise LagTooLarge(f"p_max={p_max} leaves fewer than 20 rows at T={T}")
    d = np.diff(y)
    if not np.any(d):
        raise DegenerateSeries("series is constant; lag selection undefined")
    design, response = lagged_design(y, d, d, (), p_max, p_max)
    return int(select_lag_bic_batch(design[None], response[None], 1)[0])


def schwert_pmax(T: int) -> int:
    """Rule-of-thumb lag cap floor(12 * (T/100)^{1/4})."""
    if T < 20:
        raise ValueError(f"need T >= 20, got {T}")
    return int(np.floor(12.0 * (T / 100.0) ** 0.25))
