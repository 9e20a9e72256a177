import numpy as np
import pytest

from oracles import (
    block_stats_bruteforce,
    phi_hat_bruteforce,
    rel_err,
    window_sums_index,
)
from urblock.core import BadBlocklength, DegenerateSeries, RngStream
from urblock.mc import DgpSpec, TrendSpec, simulate_dgp
from urblock.pooled import _window_sums, block_stats, pooled_fit, prefix_sums


def dyadic_series(stream, T, scale=10):
    """Random series on the grid 2^-scale * Z so shifts by dyadic
    constants are exact in floating point."""
    g = RngStream(8080, stream).generator()
    steps = g.integers(-(2**scale), 2**scale, size=T)
    return np.cumsum(steps).astype(np.float64) / 2.0**scale


class TestBlockStats:
    def test_constant_series(self):
        stats = block_stats(np.full(12, 5.0), 4)
        assert stats.y1 == 0.0
        assert stats.y2 == 0.0

    def test_linear_series_hand_values(self):
        y = np.arange(1.0, 6.0)
        stats = block_stats(y, 3)
        assert stats.y1 == pytest.approx(6.0 / (3**1.5 * np.sqrt(5.0)), rel=1e-12)
        assert stats.y2 == pytest.approx(10.0 / 45.0, rel=1e-12)
        assert stats.B == 3 and stats.T == 5

    def test_blocklength_validation(self):
        y = np.arange(10.0)
        with pytest.raises(BadBlocklength):
            block_stats(y, 1)
        with pytest.raises(BadBlocklength):
            block_stats(y, 10)

    def test_random_walk_matches_bruteforce(self):
        g = RngStream(50, 0).generator()
        y = np.cumsum(g.standard_normal(50))
        stats = block_stats(y, 7)
        y1, y2 = block_stats_bruteforce(y, 7)
        assert rel_err(stats.y1, y1) < 1e-10
        assert rel_err(stats.y2, y2) < 1e-10

    def test_oracle_equivalence_random_instances(self):
        for k in range(40):
            g = RngStream(51, k).generator()
            T = int(g.integers(8, 61))
            B = int(g.integers(2, min(12, T - 1) + 1))
            kind = k % 3
            if kind == 0:
                y = np.cumsum(g.standard_normal(T))
            elif kind == 1:
                y = g.standard_normal(T)
            else:
                y = np.cumsum(g.standard_normal(T)) + np.linspace(0.0, 5.0, T)
            stats = block_stats(y, B)
            y1, y2 = block_stats_bruteforce(y, B)
            assert rel_err(stats.y1, y1) < 1e-10, (T, B, kind)
            assert rel_err(stats.y2, y2) < 1e-10, (T, B, kind)

    def test_window_sums_equal_index_formulation(self):
        # The slices read exactly the prefix-sum entries the index arrays
        # did, so the raw sums agree bit for bit.
        for k in range(300):
            g = RngStream(52, k).generator()
            T = int(g.integers(4, 400)) if k < 290 else 10_000
            B = int(g.integers(2, T))
            y = np.cumsum(g.standard_normal(T)) + g.normal() * np.arange(T)
            assert _window_sums(prefix_sums(y), B)[1:3] == window_sums_index(y, B), (T, B)

    def test_shift_invariance_exact_on_dyadic_grid(self):
        y = dyadic_series(0, 80)
        base = block_stats(y, 9)
        for c in (1.0, -7.25, 513.0 / 64.0, 4096.5):
            shifted = block_stats(y + c, 9)
            assert shifted.y1 == base.y1
            assert shifted.y2 == base.y2

    def test_shift_invariance_float_tolerance(self):
        g = RngStream(52, 0).generator()
        y = np.cumsum(g.standard_normal(120))
        base = block_stats(y, 15)
        shifted = block_stats(y + np.pi, 15)
        assert rel_err(shifted.y1, base.y1) < 1e-10
        assert rel_err(shifted.y2, base.y2) < 1e-10

    def test_scale_equivariance(self):
        g = RngStream(53, 0).generator()
        y = np.cumsum(g.standard_normal(90))
        base = block_stats(y, 11)
        doubled = block_stats(2.0 * y, 11)
        assert doubled.y1 == 4.0 * base.y1
        assert doubled.y2 == 4.0 * base.y2
        scaled = block_stats(1.7 * y, 11)
        assert scaled.y1 == pytest.approx(1.7**2 * base.y1, rel=1e-12)
        assert scaled.y2 == pytest.approx(1.7**2 * base.y2, rel=1e-12)

    def test_slowly_varying_trend_is_filtered_asymptotically(self):
        # A Lipschitz trend contributes O(sqrt(B)/T^{3/2}) to the pooled
        # numerator, so with B = T^0.7 the pure-trend statistics must
        # decay as T grows.  Deterministic: no noise involved.
        def pure_trend_stats(T, shape):
            r = np.arange(1, T + 1) / T
            if shape == "triangular":
                d = 6.0 * np.where(r <= 0.5, 2.0 * r, 2.0 * (1.0 - r))
            else:
                d = 6.0 / (1.0 + np.exp(20.0 * (r - 0.75)))
            return block_stats(d + 1.0, int(T**0.7))

        for shape in ("triangular", "lstar"):
            vals = [pure_trend_stats(T, shape) for T in (256, 1024, 4096)]
            y1s = [abs(v.y1) for v in vals]
            y2s = [v.y2 for v in vals]
            assert y1s[0] > y1s[1] > y1s[2], (shape, y1s)
            assert y2s[0] > y2s[1] > y2s[2], (shape, y2s)
            # and the decay is substantial, not a numerical accident
            assert y1s[2] < 0.25 * y1s[0]


class TestPooledFit:
    def test_linear_series_hand_values(self):
        fit = pooled_fit(np.arange(1.0, 6.0), 3)
        assert fit.phi_hat == pytest.approx(0.6, rel=1e-12)
        assert fit.rho_hat == pytest.approx(1.6, rel=1e-12)
        # scaling identity between the normalized ratio and the slope
        lhs = np.sqrt(3.0 * 5.0) * (fit.rho_hat - 1.0)
        assert lhs == pytest.approx(fit.stats.y1 / fit.stats.y2, rel=1e-12)

    def test_residual_convention(self):
        y = np.arange(1.0, 6.0)
        fit = pooled_fit(y, 3)
        assert fit.centered_residuals[0] == 0.0
        u = y[1:] - fit.rho_hat * y[:-1]
        assert np.allclose(fit.centered_residuals[1:], u - u.mean(), atol=1e-12)

    def test_centered_residuals_convention(self):
        g = RngStream(55, 0).generator()
        y = np.cumsum(g.standard_normal(60))
        fit = pooled_fit(y, 8)
        assert fit.centered_residuals[0] == 0.0
        d = np.diff(y)
        pl = (y - y[0])[:-1]
        expected = (d - d.mean()) - fit.phi_hat * (pl - pl.mean())
        assert np.allclose(fit.centered_residuals[1:], expected, atol=1e-10)

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeries):
            pooled_fit(np.full(10, 3.0), 4)

    def test_shared_prefix_sums_give_the_same_fit(self):
        # One set of prefix sums serves every blocklength, exactly.
        for k in range(20):
            g = RngStream(58, k).generator()
            T = int(g.integers(10, 400))
            y = np.cumsum(g.standard_normal(T)) + g.normal() * np.arange(T)
            sums = prefix_sums(y)
            for B in {2, max(2, int(T**0.5)), max(2, int(0.2 * T)), T - 1}:
                alone, shared = pooled_fit(y, B), pooled_fit(y, B, sums)
                assert (alone.rho_hat, alone.phi_hat, alone.stats) == (
                    shared.rho_hat, shared.phi_hat, shared.stats
                )
                assert np.array_equal(
                    alone.centered_residuals, shared.centered_residuals
                )

    def test_random_walk_matches_bruteforce(self):
        spec = DgpSpec(T=200, rho=1.0)
        y = simulate_dgp(spec, RngStream(56, 0))
        fit = pooled_fit(y, 20)
        assert rel_err(fit.phi_hat, phi_hat_bruteforce(y, 20)) < 1e-10

    def test_rho_invariant_under_scaling(self):
        g = RngStream(57, 0).generator()
        y = np.cumsum(g.standard_normal(100))
        a = pooled_fit(y, 10).rho_hat
        b = pooled_fit(3.7 * y, 10).rho_hat
        assert a == pytest.approx(b, rel=1e-12)
