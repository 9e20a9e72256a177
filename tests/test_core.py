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
    ols_tstat_batch,
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
        assert fit.n_obs == 3 and fit.n_params == 1

    def test_exact_line(self):
        fit = ols([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]], [1.0, 2.0, 3.0])
        assert fit.coefficients == pytest.approx([0.0, 1.0], abs=1e-12)
        assert fit.ssr == pytest.approx(0.0, abs=1e-20)

    def test_collinear(self):
        with pytest.raises(RankDeficient):
            ols([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], [1.0, 1.0, 2.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ols([[1.0], [1.0]], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            ols(np.ones((2, 3)), [1.0, 2.0])

    def test_residuals_and_ssr_consistent(self):
        g = RngStream(5, 0).generator()
        X = g.standard_normal((40, 3))
        y = g.standard_normal(40)
        fit = ols(X, y)
        assert fit.residuals.shape == (fit.n_obs,)
        assert fit.ssr == pytest.approx(float(fit.residuals @ fit.residuals), rel=1e-10)
        assert np.allclose(X @ fit.coefficients + fit.residuals, y, atol=1e-10)

    def test_residual_orthogonality(self):
        for k in range(20):
            g = RngStream(6, k).generator()
            n = int(g.integers(10, 60))
            p = int(g.integers(1, 5))
            X = g.standard_normal((n, p))
            y = g.standard_normal(n)
            fit = ols(X, y)
            bound = 1e-8 * np.linalg.norm(X) * np.linalg.norm(y)
            assert np.max(np.abs(X.T @ fit.residuals)) < bound

    def test_tstat_known_case(self):
        fit = ols([[1.0]] * 4, [1.0, 2.0, 3.0, 4.0])
        # coef 2.5, ssr 5, s2 = 5/3, var(beta) = s2/4, t = 2.5/sqrt(5/12)
        assert fit.tstat(0) == pytest.approx(2.5 / np.sqrt(5.0 / 12.0), rel=1e-12)

    def test_saturated_fit_has_nan_stderr(self):
        fit = ols([[1.0, 0.0], [0.0, 1.0]], [3.0, 4.0])
        assert np.all(np.isnan(fit.stderr))

    def test_olsfit_dataclass_fields(self):
        fit = ols([[1.0], [1.0], [1.0]], [1.0, 2.0, 3.0])
        assert isinstance(fit, OlsFit)
        assert fit.stderr.shape == (1,)


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
        with pytest.raises(RankDeficient):
            ols_tstat_batch(X, y)
        with pytest.raises(RankDeficient):
            ols(X[3], y[3])
        select_lag_bic_batch(np.delete(X, 3, axis=0), np.delete(y, 3, axis=0), 1)

    def test_tstat_matches_ols(self):
        g = RngStream(152, 0).generator()
        X = g.standard_normal((50, 35, 4))
        y = X[:, :, 1] + g.standard_normal((50, 35))
        got = ols_tstat_batch(X, y)
        for t, Xi, yi in zip(got, X, y):
            want = ols(Xi, yi).tstat(0)
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
