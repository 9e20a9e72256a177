import numpy as np
import pytest

from oracles import (
    eta_bruteforce,
    kappa2_bruteforce,
    kappa2_index,
    rel_err,
    sigma2_bruteforce,
    time_transform_loop,
)
from urblock.core import BadBlocklength, DegenerateResiduals, ProfileDegenerate, RngStream
from urblock.nuisance import (
    MIN_PROFILE_SLOPE,
    VarianceProfile,
    kappa2_hat,
    sigma2_hat,
    time_transform,
    variance_profile,
)
from urblock.pooled import block_stats, pooled_fit
from urblock.testkit import tau_fb

STEP_LAMBDA = 3.0


def step_noise(stream, T, lam=STEP_LAMBDA):
    """Mean-zero noise whose variance is 1 + lam on the first two thirds
    of the sample and 1 afterwards; first entry zeroed by convention."""
    g = RngStream(700, stream).generator()
    r = np.arange(1, T + 1) / T
    u = g.standard_normal(T) * np.sqrt(1.0 + lam * (r <= 2.0 / 3.0))
    u[0] = 0.0
    return u


def iid_noise(stream, T):
    u = RngStream(701, stream).generator().standard_normal(T)
    u[0] = 0.0
    return u


class TestSigma2:
    def test_hand_example(self):
        assert sigma2_hat([0.0, 1.0, -1.0, 1.0, -1.0]) == pytest.approx(
            4.0 / 3.0, rel=1e-14
        )

    def test_constant_tail_degenerate(self):
        with pytest.raises(DegenerateResiduals):
            sigma2_hat([0.0, 3.0, 3.0, 3.0])

    def test_iid_consistency(self):
        u = iid_noise(0, 100_000)
        assert 0.98 <= sigma2_hat(u) <= 1.02

    def test_matches_bruteforce(self):
        u = iid_noise(1, 500)
        assert rel_err(sigma2_hat(u), sigma2_bruteforce(u)) < 1e-12

    def test_sign_flip_invariant(self):
        u = iid_noise(2, 200)
        assert sigma2_hat(-u) == sigma2_hat(u)

    def test_quadratic_scaling(self):
        u = iid_noise(3, 200)
        assert sigma2_hat(2.0 * u) == 4.0 * sigma2_hat(u)
        assert sigma2_hat(1.3 * u) == pytest.approx(
            1.3**2 * sigma2_hat(u), rel=1e-12
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sigma2_hat([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            sigma2_hat([0.0, 1.0, np.nan, 2.0])


class TestKappa2:
    def test_bruteforce_equality(self):
        for k in range(30):
            g = RngStream(702, k).generator()
            T = int(g.integers(10, 81))
            B = int(g.integers(2, min(14, T - 1) + 1))
            u = g.standard_normal(T)
            u[0] = 0.0
            assert rel_err(kappa2_hat(u, B), kappa2_bruteforce(u, B)) < 1e-10

    def test_bruteforce_equality_on_fit_residuals(self):
        g = RngStream(703, 0).generator()
        y = np.cumsum(g.standard_normal(60))
        u = pooled_fit(y, 8).centered_residuals
        assert rel_err(kappa2_hat(u, 8), kappa2_bruteforce(u, 8)) < 1e-10

    def test_equals_index_formulation(self):
        for k in range(300):
            g = RngStream(708, k).generator()
            T = int(g.integers(4, 400)) if k < 290 else 10_000
            B = int(g.integers(2, T))
            u = g.standard_normal(T) * (1.0 + 3.0 * (np.arange(T) < T // 3))
            u[0] = 0.0
            assert kappa2_hat(u, B) == kappa2_index(u, B), (T, B)

    def test_homoskedastic_exact_value(self):
        # Tail alternates mean +/- d with even blocks, so every block has
        # mean 0.5 and common squared deviation d^2; the ratio collapses
        # to d^2 exactly.
        T, B, m, d = 41, 4, 0.5, 1.5
        u = np.empty(T)
        u[0] = 0.0
        u[1::2] = m + d
        u[2::2] = m - d
        assert kappa2_hat(u, B) == pytest.approx(d * d, rel=1e-12)

    def test_iid_consistency(self):
        T = 100_000
        u = iid_noise(4, T)
        B = int(T**0.6)
        assert 0.95 <= kappa2_hat(u, B) <= 1.05

    def test_step_variance_consistency(self):
        T = 100_000
        u = step_noise(5, T)
        B = int(T**0.6)
        target = 11.0 / 3.0
        assert abs(kappa2_hat(u, B) - target) <= 0.05 * target

    def test_sign_flip_invariant(self):
        u = iid_noise(6, 300)
        assert kappa2_hat(-u, 12) == kappa2_hat(u, 12)

    def test_quadratic_scaling(self):
        u = iid_noise(7, 300)
        assert kappa2_hat(2.0 * u, 12) == 4.0 * kappa2_hat(u, 12)
        assert kappa2_hat(1.3 * u, 12) == pytest.approx(
            1.3**2 * kappa2_hat(u, 12), rel=1e-12
        )

    def test_blocklength_validation(self):
        u = iid_noise(8, 50)
        with pytest.raises(BadBlocklength):
            kappa2_hat(u, 1)
        with pytest.raises(BadBlocklength):
            kappa2_hat(u, 50)

    def test_degenerate_blocks(self):
        with pytest.raises(DegenerateResiduals):
            kappa2_hat([5.0, 2.0, 2.0, 2.0, 2.0], 2)


class TestVarianceProfile:
    def test_endpoints_and_monotonicity(self):
        for k in range(10):
            u = iid_noise(9 + k, 150)
            prof = variance_profile(u)
            assert prof.values[0] == 0.0
            assert prof.values[-1] == 1.0
            assert np.all(np.diff(prof.values) > 0.0)
            assert prof.breakpoints[0] == 0.0 and prof.breakpoints[-1] == 1.0

    def test_grid_values_match_direct_formula(self):
        u = iid_noise(20, 80)
        prof = variance_profile(u)
        T = u.shape[0]
        for i in (2, 3, 17, 40, 79, 80):
            assert prof.values[i] == pytest.approx(
                eta_bruteforce(u, i), abs=1e-9
            )

    def test_homoskedastic_sup_norm(self):
        u = iid_noise(21, 100_000)
        prof = variance_profile(u)
        assert np.max(np.abs(prof.values - prof.breakpoints)) <= 0.02

    def test_step_variance_level(self):
        u = step_noise(22, 100_000)
        prof = variance_profile(u)
        assert prof.value(2.0 / 3.0) == pytest.approx(8.0 / 9.0, abs=0.02)

    def test_degenerate(self):
        with pytest.raises(DegenerateResiduals):
            variance_profile([0.0, 1.0, 1.0, 1.0, 1.0])

    def test_monotonization_of_flat_stretch(self):
        # A long run of zero increments still yields a strictly
        # increasing profile after the epsilon blend.
        u = np.array([0.0, 1.0, -1.0] + [0.0] * 20 + [1.0, -1.0, 1.0])
        prof = variance_profile(u)
        assert np.all(np.diff(prof.values) > 0.0)


class TestTimeTransform:
    def test_identity_profile_is_identity(self):
        g = RngStream(705, 0).generator()
        y = np.cumsum(g.standard_normal(64))
        grid = np.arange(65) / 64.0
        prof = VarianceProfile(breakpoints=grid, values=grid.copy())
        out = time_transform(y, prof)
        assert np.array_equal(out, y)

    def test_output_length_multiple_of_t(self):
        for k in range(8):
            y = np.cumsum(step_noise(25 + k, 200))
            prof = variance_profile(pooled_fit(y, 20).centered_residuals)
            out = time_transform(y, prof)
            assert out.shape[0] % 200 == 0
            assert out.shape[0] <= 10 * 200

    def test_auxiliary_grid_alternating_series(self):
        # An alternating series is the plainest input whose profile is
        # covered by a k > 1 grid: the transform doubles the length.
        y = np.cumsum((-1.0) ** np.arange(200))
        out = tau_fb(y, 20)
        assert out.diagnostics["T_tilde"] == 400
        assert out.diagnostics["B_tilde"] == 40
        assert out.statistic == -18.853746496780442
        # Hand assembly: block statistics of the transformed series at
        # B~ = 40, normalized by sigma2 * T / T~.
        fit = pooled_fit(y, 20)
        sigma2 = sigma2_hat(fit.centered_residuals)
        prof = variance_profile(fit.centered_residuals)
        ty = time_transform(y, prof)
        assert ty.shape == (400,)
        assert np.array_equal(ty, time_transform_loop(y, prof))
        st = block_stats(ty, 40)
        hand = st.y1 / (np.sqrt(sigma2 * 200 / 400) * np.sqrt(st.y2))
        assert out.statistic == hand

    @pytest.mark.parametrize("T", [30, 40, 60, 300])
    def test_equals_map_by_map_search(self, T):
        # The closed-form choice of k against building every index map in
        # turn, on pooled-fit profiles with and without a variance step.
        B = 6 if T == 30 else int(T**0.7)
        for rep in range(2500):
            y = np.cumsum(step_noise(rep, T, lam=3.0 * (rep % 2)))
            prof = variance_profile(pooled_fit(y, B).centered_residuals)
            assert np.array_equal(
                time_transform(y, prof), time_transform_loop(y, prof)
            ), rep

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("offset", [-1e-10, -1e-13, 0.0, 1e-13, 1e-10])
    def test_breakpoint_near_grid_point(self, k, offset):
        # One breakpoint put within 1e-10 of the grid point that alone
        # covers its segment on grid k*T: whether that point lands in the
        # segment decides between k and k + 1.  The map's 1e-9 floor
        # nudge pulls a point just below the breakpoint across it.
        T = 30
        v = np.arange(T + 1) / T
        v[10] = (10.0 + (k - 1) / k) / T + offset
        prof = VarianceProfile(breakpoints=np.arange(T + 1) / T, values=v)
        y = np.cumsum(iid_noise(34, T))
        out = time_transform(y, prof)
        assert np.array_equal(out, time_transform_loop(y, prof))
        assert out.shape[0] == (k if offset < 1e-10 else k + 1) * T

    def test_profile_length_validated(self):
        y = np.cumsum(iid_noise(33, 50))
        grid = np.arange(41) / 40.0
        prof = VarianceProfile(breakpoints=grid, values=grid.copy())
        with pytest.raises(ValueError):
            time_transform(y, prof)

    def test_tiny_third_increment_is_not_degenerate(self):
        # The first two profile segments are flat by construction; a
        # near-tie between the second and third residuals adds a third
        # near-flat segment, which must not count as a degenerate run.
        u = RngStream(707, 0).generator().standard_normal(300)
        u[2] = u[1] + 1e-6
        prof = variance_profile(u)
        assert np.diff(prof.values)[2] * 300 < MIN_PROFILE_SLOPE
        out = time_transform(np.cumsum(u), prof)
        assert np.all(np.isfinite(out))

        # The same near-tie in the pooled residuals of a random walk.
        y = np.cumsum(RngStream(707, 1).generator().standard_normal(300))
        for _ in range(4):
            rho = pooled_fit(y, 60).rho_hat
            y[2] = y[1] + rho * (y[1] - y[0]) + 1e-6
        cr = pooled_fit(y, 60).centered_residuals
        assert abs(cr[2] - cr[1] - 1e-6) < 1e-9
        assert np.isfinite(tau_fb(y, 60).statistic)

    def test_flat_stretch_still_degenerate(self):
        # Zero residuals keep the running mean at zero, so the Welford
        # increments vanish over the whole stretch.
        u = RngStream(707, 2).generator().standard_normal(300)
        u[:41] = 0.0
        with pytest.raises(ProfileDegenerate):
            time_transform(np.cumsum(u), variance_profile(u))

    def test_transform_moves_profile_toward_identity(self):
        # Under a one-break variance path the transformed series'
        # recomputed profile must beat the original's sup-distance from
        # the identity in at least 90% of replications.
        T = 2000
        wins = 0
        reps = 1000
        for k in range(reps):
            g = RngStream(706, k).generator()
            r = np.arange(1, T + 1) / T
            u = g.standard_normal(T) * np.sqrt(1.0 + STEP_LAMBDA * (r <= 2.0 / 3.0))
            y = np.cumsum(u)
            fit = pooled_fit(y, int(T**0.7))
            prof = variance_profile(fit.centered_residuals)
            before = np.max(np.abs(prof.values - prof.breakpoints))
            ty = time_transform(y, prof)
            tfit = pooled_fit(ty, int(ty.shape[0] ** 0.7))
            tprof = variance_profile(tfit.centered_residuals)
            after = np.max(np.abs(tprof.values - tprof.breakpoints))
            wins += after < before
        assert wins >= 0.9 * reps, f"transform improved only {wins}/{reps}"

