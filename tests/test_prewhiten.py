import numpy as np
import pytest

from oracles import select_lag_bic_loop
from urblock.core import DegenerateSeries, LagTooLarge, RngStream
from urblock.mc import DgpSpec, ErrorSpec, simulate_dgp
from urblock.prewhiten import fit_prewhiten, schwert_pmax, select_lag_bic


def ar1_walk(stream, T, coef=0.5):
    spec = DgpSpec(T=T, rho=1.0, errors=ErrorSpec(kind="ar1", coef=coef))
    return simulate_dgp(spec, RngStream(808, stream))


class TestFitPrewhiten:
    def test_p0_identity(self):
        g = RngStream(809, 0).generator()
        y = np.cumsum(g.standard_normal(50))
        fit = fit_prewhiten(y, 0)
        assert fit.p == 0
        assert fit.theta_hat.shape == (0,)
        assert np.array_equal(fit.whitened, y)

    def test_ar1_coefficient_recovery(self):
        y = ar1_walk(0, 100_000)
        fit = fit_prewhiten(y, 1)
        assert 0.48 <= fit.theta_hat[0] <= 0.52

    def test_ar2_coefficient_recovery(self):
        # AR(2) error filter with roots well inside the unit circle;
        # a long sample pins both coefficients to about two decimals.
        T = 200_000
        g = RngStream(810, 0).generator()
        eps = g.standard_normal(T + 500)
        u = np.empty(T + 500)
        u[0] = eps[0]
        u[1] = 0.4 * u[0] + eps[1]
        for t in range(2, T + 500):
            u[t] = 0.4 * u[t - 1] + 0.3 * u[t - 2] + eps[t]
        y = np.cumsum(u[500:])
        fit = fit_prewhiten(y, 2)
        assert fit.theta_hat == pytest.approx([0.4, 0.3], abs=1e-2)

    def test_whitened_series_invariant(self):
        y = ar1_walk(1, 400)
        for p in (1, 2, 3):
            fit = fit_prewhiten(y, p)
            T = y.shape[0]
            assert fit.whitened.shape == (T - p,)
            for t in (0, 5, T - p - 1):
                expected = y[t + p] - sum(
                    fit.theta_hat[i - 1] * y[t + p - i] for i in range(1, p + 1)
                )
                assert fit.whitened[t] == pytest.approx(expected, rel=1e-12)

    def test_p0_fits_nothing_but_keeps_checks(self):
        # A jump at the end makes the p = 0 regression singular; p = 0
        # fits nothing, so the series passes through unchanged.
        y = np.zeros(100)
        y[-1] = 1.0
        fit = fit_prewhiten(y, 0)
        assert fit.whitened is y
        assert fit.theta_hat.shape == (0,)
        with pytest.raises(DegenerateSeries):
            fit_prewhiten(np.full(50, 2.0), 0)
        with pytest.raises(LagTooLarge):
            fit_prewhiten(np.arange(9.0), 0)

    @pytest.mark.parametrize("shift", [0.0, 5.0])
    def test_jump_at_end_is_degenerate_at_p_ge_1(self, shift):
        # Every lag column is zero (and the level column too at shift 0),
        # so no fit exists: a degenerate series, not a singular design.
        y = np.zeros(100) + shift
        y[-1] += 1.0
        for p in (1, 2):
            with pytest.raises(DegenerateSeries):
                fit_prewhiten(y, p)
        with pytest.raises(DegenerateSeries):
            select_lag_bic(y, 5)

    def test_lag_too_large(self):
        y = ar1_walk(3, 30)
        with pytest.raises(LagTooLarge):
            fit_prewhiten(y, 21)
        with pytest.raises(ValueError):
            fit_prewhiten(y, -1)
        # p = 13 keeps the design overdetermined (16 rows, 14 columns)
        fit = fit_prewhiten(y, 13)
        assert fit.whitened.shape == (30 - 13,)

    def test_deterministic(self):
        y = ar1_walk(4, 300)
        a = fit_prewhiten(y, 2)
        b = fit_prewhiten(y, 2)
        assert np.array_equal(a.whitened, b.whitened)
        assert np.array_equal(a.theta_hat, b.theta_hat)


class TestSelectLagBic:
    def test_white_noise_prefers_zero(self):
        hits = 0
        reps = 500
        for k in range(reps):
            g = RngStream(811, k).generator()
            y = np.cumsum(g.standard_normal(2000))
            hits += select_lag_bic(y, 5) == 0
        assert hits >= 0.9 * reps, f"selected 0 lags in only {hits}/{reps}"

    def test_ar1_prefers_one(self):
        hits = 0
        reps = 500
        for k in range(reps):
            y = simulate_dgp(
                DgpSpec(T=2000, rho=1.0, errors=ErrorSpec("ar1", 0.5)),
                RngStream(812, k),
            )
            hits += select_lag_bic(y, 5) == 1
        assert hits >= 0.8 * reps, f"selected 1 lag in only {hits}/{reps}"

    def test_pmax_zero(self):
        y = ar1_walk(5, 100)
        assert select_lag_bic(y, 0) == 0

    def test_sample_size_guard(self):
        y = ar1_walk(6, 24)
        with pytest.raises(LagTooLarge):
            select_lag_bic(y, 5)
        with pytest.raises(ValueError):
            select_lag_bic(ar1_walk(6, 60), -1)

    def test_deterministic(self):
        y = ar1_walk(7, 500)
        assert select_lag_bic(y, 5) == select_lag_bic(y, 5)


    @pytest.mark.parametrize("T", [60, 100, 300])
    def test_matches_candidate_loop(self, bic_panels, T):
        got = [select_lag_bic(y, 5) for y in bic_panels[T]]
        want = [select_lag_bic_loop(y, 5) for y in bic_panels[T]]
        assert got == want
        assert len(set(got)) >= 3


class TestSchwert:
    def test_examples(self):
        assert schwert_pmax(100) == 12
        assert schwert_pmax(300) == 15
        assert schwert_pmax(25) == 8

    def test_monotone(self):
        vals = [schwert_pmax(T) for T in range(20, 2000, 7)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
