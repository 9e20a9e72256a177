import numpy as np
import pytest

from oracles import design_bic_loop
from urblock.core import (
    BlockScheme,
    OlsFit,
    RankDeficient,
    RngStream,
    SchemeInfeasible,
    as_series,
    chunked_map,
    ols,
    select_lag_bic_batch,
)
from urblock.limits import _crit_chunk


class TestAsSeries:
    def test_list_becomes_float64(self):
        y = as_series([1, 2, 3, 4])
        assert y.dtype == np.float64
        assert y.shape == (4,)

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            as_series([1.0, 2.0, 3.0])

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_series([1.0, np.nan, 3.0, 4.0])
        with pytest.raises(ValueError, match="non-finite"):
            as_series([1.0, 2.0, np.inf, 4.0])

    def test_two_dimensional(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            as_series(np.ones((4, 2)))

    def test_custom_minimum(self):
        with pytest.raises(ValueError, match="minimum 30"):
            as_series(np.arange(20.0), min_length=30)


class TestBlockScheme:
    def test_power_rule_example(self):
        assert BlockScheme.power_rule(0.7).resolve(100) == 25

    def test_fixed_fraction_example(self):
        assert BlockScheme.fixed_fraction(0.2).resolve(300) == 60

    def test_explicit_too_small(self):
        with pytest.raises(SchemeInfeasible):
            BlockScheme.explicit(1).resolve(10)

    def test_explicit_too_large(self):
        with pytest.raises(SchemeInfeasible):
            BlockScheme.explicit(10).resolve(10)
        assert BlockScheme.explicit(9).resolve(10) == 9

    def test_lower_clamp(self):
        # floor(10^0.1) = 1 clamps up to the minimum blocklength 2
        assert BlockScheme.power_rule(0.1).resolve(10) == 2

    def test_param_validation(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError):
                BlockScheme.power_rule(bad)
            with pytest.raises(ValueError):
                BlockScheme.fixed_fraction(bad)

    def test_monotone_in_t(self):
        for scheme in (
            BlockScheme.power_rule(0.6),
            BlockScheme.fixed_fraction(0.3),
        ):
            prev = 0
            for T in range(4, 400):
                B = scheme.resolve(T)
                assert 2 <= B < T
                assert B >= prev
                prev = B

    def test_labels(self):
        assert BlockScheme.power_rule(0.7).label() == "T^0.7"
        assert BlockScheme.fixed_fraction(0.2).label() == "0.2T"
        assert BlockScheme.explicit(16).label() == "B=16"

    def test_tiny_sample_rejected(self):
        with pytest.raises(SchemeInfeasible):
            BlockScheme.power_rule(0.5).resolve(3)


class TestOls:
    def test_mean_fit(self):
        fit = ols([[1.0], [1.0], [1.0]], [2.0, 4.0, 6.0])
        assert fit.coefficients == pytest.approx([4.0], abs=1e-12)
        assert fit.ssr == pytest.approx(8.0, abs=1e-10)
        # No columns: the SSR is the response's sum of squares.
        assert fit.prefix_ssr == pytest.approx([56.0, 8.0], rel=1e-12)

    def test_exact_line(self):
        fit = ols([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]], [1.0, 2.0, 3.0])
        assert fit.coefficients == pytest.approx([0.0, 1.0], abs=1e-12)
        assert fit.ssr == pytest.approx(0.0, abs=1e-20)

    def test_collinear(self):
        with pytest.raises(RankDeficient):
            ols([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], [1.0, 1.0, 2.0])
        # An all-zero column is singular, whatever the other columns.
        with pytest.raises(RankDeficient):
            ols([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], [1.0, 1.0, 2.0])
        with pytest.raises(RankDeficient):
            ols(np.zeros((3, 1)), [1.0, 1.0, 2.0])

    def test_column_scale_does_not_trip_rank_check(self):
        # Raw R has condition ratio ~1e-24 here; the equilibrated check
        # sees the well-conditioned design beneath the units.
        g = RngStream(7, 0).generator()
        X = g.standard_normal((40, 3))
        y = g.standard_normal(40)
        Xs = X * [1e12, 1.0, 1e-12]
        fit, scaled = ols(X, y), ols(Xs, y)
        assert scaled.coefficients * [1e12, 1.0, 1e-12] == pytest.approx(
            fit.coefficients, rel=1e-10
        )
        assert scaled.tstat0 == pytest.approx(fit.tstat0, rel=1e-10)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ols([[1.0], [1.0]], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            ols(np.ones((2, 3)), [1.0, 2.0])
        with pytest.raises(ValueError):
            ols(np.ones((4, 10, 2)), np.ones((3, 10)))

    @staticmethod
    def _lstsq(X, y):
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        resid = y - X @ beta
        return beta, float(resid @ resid)

    def test_matches_lstsq(self):
        g = RngStream(5, 0).generator()
        for k in range(20):
            n = int(g.integers(10, 60))
            p = int(g.integers(1, 6))
            X = g.standard_normal((n, p))
            y = X @ g.standard_normal(p) + g.standard_normal(n)
            fit = ols(X, y)
            beta, ssr = self._lstsq(X, y)
            assert np.allclose(fit.coefficients, beta, rtol=1e-12, atol=0)
            assert fit.ssr == pytest.approx(ssr, rel=1e-12)
        X = g.standard_normal((30, 40, 4))
        y = X[:, :, 0] + g.standard_normal((30, 40))
        fit = ols(X, y)
        assert fit.coefficients.shape == (30, 4) and fit.ssr.shape == (30,)
        for i in range(30):
            beta, ssr = self._lstsq(X[i], y[i])
            assert np.allclose(fit.coefficients[i], beta, rtol=1e-12, atol=0)
            assert fit.ssr[i] == pytest.approx(ssr, rel=1e-12)

    def test_stack_rows_match_single_fits(self):
        g = RngStream(6, 0).generator()
        X = g.standard_normal((25, 50, 5))
        y = X[:, :, 1] + g.standard_normal((25, 50))
        stack = ols(X, y)
        for i in range(25):
            one = ols(X[i], y[i])
            assert np.array_equal(stack.coefficients[i], one.coefficients)
            assert stack.ssr[i] == one.ssr
            assert stack.tstat0[i] == one.tstat0
            assert np.array_equal(stack.prefix_ssr[i], one.prefix_ssr)

    def test_tstat_known_case(self):
        fit = ols([[1.0]] * 4, [1.0, 2.0, 3.0, 4.0])
        # coef 2.5, ssr 5, s2 = 5/3, var(beta) = s2/4, t = 2.5/sqrt(5/12)
        assert fit.tstat0 == pytest.approx(2.5 / np.sqrt(5.0 / 12.0), rel=1e-12)

    def test_saturated_fit_has_nan_stderr(self):
        # No residual degrees of freedom: the coefficients are exact, the
        # standard error and so the t-ratio are undefined.
        fit = ols([[1.0, 0.0], [0.0, 1.0]], [3.0, 4.0])
        assert fit.coefficients == pytest.approx([3.0, 4.0], abs=1e-12)
        assert fit.ssr == 0.0
        assert np.isnan(fit.tstat0)

    def test_olsfit_dataclass_fields(self):
        fit = ols([[1.0], [1.0], [1.0]], [1.0, 2.0, 3.0])
        assert isinstance(fit, OlsFit)
        assert fit.coefficients.shape == (1,)
        assert fit.prefix_ssr.shape == (2,)
        assert fit.prefix_ssr[-1] == fit.ssr


class TestBatchedKernels:
    """The stacked BIC selector and t-ratio against per-regression fits."""

    @pytest.mark.parametrize("k0", [1, 2, 4])
    def test_selector_matches_candidate_loop(self, k0):
        g = RngStream(150, k0).generator()
        m, n, K = 400, 40, k0 + 5
        X = g.standard_normal((m, n, K))
        # Responses loading on a random number of the lag columns, so
        # that every p in 0..5 gets picked.
        load = (np.arange(K - k0) < g.integers(0, K - k0 + 1, (m, 1))) * 0.6
        y = X[:, :, :k0].sum(axis=2) + np.einsum("mnk,mk->mn", X[:, :, k0:], load)
        y += g.standard_normal((m, n))
        got = select_lag_bic_batch(X, y, k0)
        assert np.array_equal(got, design_bic_loop(X, y, k0))
        assert len(set(got)) == K - k0 + 1

    def test_exact_tie_resolves_to_smaller_lag(self):
        # Unit-vector columns factor exactly; the response lies in the span
        # of the first two columns, so p = 1, 2, 3 all fit with SSR = 0 and
        # tie at BIC = -inf.
        n, K = 30, 4
        X = np.zeros((1, n, K))
        X[0, np.arange(K), np.arange(K)] = 1.0
        y = np.zeros((1, n))
        y[0, :2] = 1.0
        assert design_bic_loop(X, y, 1)[0] == 1
        assert select_lag_bic_batch(X, y, 1)[0] == 1

    def test_rank_deficient_row_raises(self):
        g = RngStream(151, 0).generator()
        X = g.standard_normal((6, 30, 4))
        y = g.standard_normal((6, 30))
        X[3, :, 3] = X[3, :, 1]
        with pytest.raises(RankDeficient):
            select_lag_bic_batch(X, y, 1)
        with pytest.raises(RankDeficient, match="3 of the stack"):
            ols(X, y)
        with pytest.raises(RankDeficient):
            ols(X[3], y[3])
        select_lag_bic_batch(np.delete(X, 3, axis=0), np.delete(y, 3, axis=0), 1)

    def test_tstat_matches_ols(self):
        # The stacked t-ratio against the textbook formula
        # beta_0 / sqrt(s^2 [(X'X)^-1]_00), fitted by lstsq.
        g = RngStream(152, 0).generator()
        X = g.standard_normal((50, 35, 4))
        y = X[:, :, 1] + g.standard_normal((50, 35))
        got = ols(X, y).tstat0
        for t, Xi, yi in zip(got, X, y):
            beta, ssr = TestOls._lstsq(Xi, yi)
            want = beta[0] / np.sqrt(ssr / (35 - 4) * np.linalg.inv(Xi.T @ Xi)[0, 0])
            assert abs(t - want) <= 1e-12 * max(1.0, abs(want))


class TestRngStream:
    def test_same_key_bit_identical(self):
        a = RngStream(123, 7).generator().standard_normal(64)
        b = RngStream(123, 7).generator().standard_normal(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 7).generator().standard_normal(64)
        b = RngStream(123, 8).generator().standard_normal(64)
        c = RngStream(124, 7).generator().standard_normal(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_generator_is_fresh_each_call(self):
        s = RngStream(11, 0)
        a = s.generator().standard_normal(16)
        b = s.generator().standard_normal(16)
        assert np.array_equal(a, b)


class TestChunkedMap:
    def test_collapsed_chunks_match_serial(self):
        # n=3 over 4*2 chunk bounds leaves three one-row chunks.
        b = np.array([0.2, 0.5])
        one = chunked_map(_crit_chunk, 3, 1, 7, b, 200)
        two = chunked_map(_crit_chunk, 3, 2, 7, b, 200)
        assert one.shape == (3, 2)
        assert np.array_equal(one, two)
