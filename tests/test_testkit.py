from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import norm

from oracles import rel_err
from urblock.core import BlockScheme, RngStream
from urblock.limits import default_crit_table, normal_cdf
from urblock.mc import DgpSpec, ErrorSpec, run_experiment, simulate_dgp
from urblock.nuisance import kappa2_hat
from urblock.pooled import pooled_fit
from urblock.testkit import (
    LagSpec,
    TestSpec,
    evaluate,
    run_test,
    tau_fb,
    tau_sb,
    v_factor,
    whiten,
)

from test_pooled import dyadic_series


def walk(stream, T):
    return simulate_dgp(DgpSpec(T=T, rho=1.0), RngStream(900, stream))


class TestVFactor:
    def test_hand_values(self):
        assert v_factor(2, 10) == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert v_factor(3, 10) == pytest.approx(np.sqrt(33.0 / 63.0), rel=1e-12)

    def test_large_sample_limit(self):
        assert abs(v_factor(100, 10_000) ** 2 - 2.0 / 3.0) < 0.005


class TestTauSb:
    def test_component_assembly(self):
        y = walk(0, 150)
        B = 17
        out = tau_sb(y, B)
        fit = pooled_fit(y, B)
        kappa = np.sqrt(kappa2_hat(fit.centered_residuals, B))
        manual = fit.stats.y1 / (kappa * v_factor(B, 150) * np.sqrt(fit.stats.y2))
        assert out.statistic == pytest.approx(manual, abs=1e-12)

    def test_decision_contract(self):
        y = walk(1, 200)
        out = tau_sb(y, 30, alpha=0.05)
        assert out.critical_value == pytest.approx(norm.ppf(0.05), rel=1e-12)
        assert out.p_value == pytest.approx(norm.cdf(out.statistic), rel=1e-12)
        assert out.reject == (out.statistic < out.critical_value)

    @pytest.mark.parametrize("alpha", [0.2, 0.1, 0.05, 0.025, 0.01, 0.001])
    def test_critical_value_is_stdlib_normal_quantile(self, alpha):
        crit = tau_sb(walk(1, 200), 30, alpha=alpha).critical_value
        assert crit == NormalDist().inv_cdf(alpha)
        assert crit == pytest.approx(norm.ppf(alpha), rel=1e-15)

    def test_p_value_matches_scipy_deep_in_the_tails(self):
        out = tau_sb(walk(1, 200), 30)
        assert out.p_value == normal_cdf(out.statistic)
        x = np.linspace(-37.0, 8.0, 4501)
        got = np.array([normal_cdf(v) for v in x])
        assert np.all(np.abs(got - norm.cdf(x)) <= 1e-12 * norm.cdf(x))

    def test_scale_invariance(self):
        y = walk(2, 180)
        base = tau_sb(y, 20).statistic
        assert tau_sb(2.0 * y, 20).statistic == base
        assert tau_sb(0.37 * y, 20).statistic == pytest.approx(base, abs=1e-11)

    def test_shift_invariance(self):
        y = dyadic_series(1, 160)
        base = tau_sb(y, 20).statistic
        assert tau_sb(y + 129.5, 20).statistic == base

    def test_diagnostics(self):
        out = tau_sb(walk(3, 100), 12)
        for key in ("B", "T", "kappa2_hat", "v_T", "rho_hat", "variant"):
            assert key in out.diagnostics

    def test_null_rejection_rate_large_t(self):
        # Unit root, no trend, homoskedastic innovations: the rejection
        # rate at the 5% level stays near nominal for B = T^0.6.
        T = 10_000
        B = int(T**0.6)
        reps = 10_000
        hits = 0
        for k in range(reps):
            g = RngStream(901, k).generator()
            y = np.cumsum(g.standard_normal(T))
            hits += tau_sb(y, B).reject
        rate = hits / reps
        assert 0.04 <= rate <= 0.07, f"size {rate:.4f}"


class TestTauFb:
    def test_table_lookup(self):
        assert default_crit_table().critical_value(0.2, 0.05) == pytest.approx(-1.375)
        out = tau_fb(walk(4, 300), 60)
        assert out.critical_value == pytest.approx(-1.375)
        assert out.p_value is None

    def test_interpolation_between_grid_points(self):
        tab = default_crit_table()
        mid = tab.critical_value(0.25, 0.05)
        assert mid == pytest.approx((-1.375 + -1.327) / 2.0, abs=1e-9)

    def test_b_outside_range(self):
        tab = default_crit_table()
        with pytest.raises(ValueError, match="outside"):
            tab.critical_value(0.05, 0.05)

    def test_b_within_one_step_of_table_edge(self):
        # floor(0.1 * 299) = 29 puts b = 29/299 below the table's 0.1 by
        # less than 1/T: the edge row is read.  A b further out raises.
        y = walk(4, 299)
        edge = default_crit_table().critical_value(0.1, 0.05)
        assert tau_fb(y, 29).critical_value == edge
        with pytest.raises(ValueError, match="outside"):
            tau_fb(y, 28)

    def test_scale_invariance(self):
        y = walk(5, 250)
        base = tau_fb(y, 50).statistic
        assert tau_fb(2.0 * y, 50).statistic == base
        assert tau_fb(1.7 * y, 50).statistic == pytest.approx(base, abs=1e-10)

    def test_shift_invariance(self):
        y = dyadic_series(2, 240)
        base = tau_fb(y, 48).statistic
        assert tau_fb(y + 65.25, 48).statistic == base

    def test_diagnostics(self):
        out = tau_fb(walk(6, 200), 40)
        for key in ("B", "T", "B_tilde", "T_tilde", "b", "sigma2_hat", "variant"):
            assert key in out.diagnostics
        assert out.diagnostics["T_tilde"] % 200 == 0

    def test_reject_contract(self):
        out = tau_fb(walk(7, 200), 40)
        assert out.reject == (out.statistic < out.critical_value)


class TestRunTest:
    def test_fixed0_reduces_to_tau_sb(self):
        y = walk(8, 200)
        spec = TestSpec(
            variant="small-b", scheme=BlockScheme.power_rule(0.7), lag=LagSpec.fixed(0)
        )
        direct = tau_sb(y, BlockScheme.power_rule(0.7).resolve(200))
        out = run_test(y, spec)
        assert out.statistic == direct.statistic
        assert out.reject == direct.reject

    def test_fixed0_reduces_to_tau_fb(self):
        y = walk(9, 200)
        spec = TestSpec(
            variant="fixed-b",
            scheme=BlockScheme.fixed_fraction(0.2),
            lag=LagSpec.fixed(0),
        )
        out = run_test(y, spec)
        direct = tau_fb(y, 40)
        assert out.statistic == direct.statistic

    def test_integer_lag_is_fixed_lag(self):
        y = walk(12, 200)
        scheme = BlockScheme.power_rule(0.7)
        spec = TestSpec("small-b", scheme, lag=2)
        assert spec == TestSpec("small-b", scheme, lag=LagSpec.fixed(2))
        out = run_test(y, spec)
        want = run_test(y, TestSpec("small-b", scheme, LagSpec.fixed(2)))
        assert out.statistic == want.statistic
        assert out.diagnostics["p"] == 2
        with pytest.raises(TypeError):
            TestSpec("small-b", scheme, lag="2")

    def test_lag_reduces_effective_length(self):
        y = walk(10, 200)
        spec = TestSpec(
            variant="small-b", scheme=BlockScheme.power_rule(0.7), lag=LagSpec.fixed(3)
        )
        out = run_test(y, spec)
        assert out.diagnostics["T_original"] == 200
        assert out.diagnostics["T_effective"] == 197
        assert out.diagnostics["p"] == 3
        assert out.diagnostics["B"] == int(197**0.7)

    def test_bic_lag_recorded(self):
        y = simulate_dgp(
            DgpSpec(T=300, rho=1.0, errors=ErrorSpec("ar1", 0.5)), RngStream(902, 0)
        )
        spec = TestSpec(
            variant="small-b", scheme=BlockScheme.power_rule(0.7), lag=LagSpec.bic(5)
        )
        out = run_test(y, spec)
        assert out.diagnostics["lag_rule"] == "bic5"
        assert 0 <= out.diagnostics["p"] <= 5

    @pytest.mark.parametrize("variant", ["small-b", "fixed-b"])
    def test_bic_lag_at_large_offset(self, variant):
        # Raw R of the lag design has condition ratio ~1e-12 here; the
        # equilibrated rank check does not mistake the offset for
        # collinearity.
        y = walk(13, 200) + 1e12
        spec = TestSpec(variant, BlockScheme.fixed_fraction(0.2), lag=LagSpec.bic(5))
        assert np.isfinite(run_test(y, spec).statistic)

    def test_schwert_rule(self):
        y = walk(11, 300)
        spec = TestSpec(
            variant="small-b", scheme=BlockScheme.power_rule(0.7), lag=LagSpec.schwert()
        )
        out = run_test(y, spec)
        assert out.diagnostics["lag_rule"] == "schwert"
        assert 0 <= out.diagnostics["p"] <= 15

    def test_mismatch_warning(self):
        y = walk(12, 200)
        out = run_test(
            y,
            TestSpec(
                variant="small-b",
                scheme=BlockScheme.fixed_fraction(0.2),
                lag=LagSpec.fixed(0),
            ),
        )
        assert any("pairing" in w for w in out.diagnostics["warnings"])

    def test_short_effective_sample_warning(self):
        y = walk(13, 36)
        out = run_test(
            y,
            TestSpec(
                variant="small-b",
                scheme=BlockScheme.power_rule(0.7),
                lag=LagSpec.fixed(8),
            ),
        )
        assert any("effective" in w.lower() for w in out.diagnostics["warnings"])

    def test_reject_monotone_in_alpha(self):
        levels = (0.001, 0.01, 0.02, 0.03, 0.04, 0.05, 0.1, 0.2)
        for variant, scheme in (
            ("small-b", BlockScheme.power_rule(0.7)),
            ("fixed-b", BlockScheme.fixed_fraction(0.2)),
        ):
            for k in range(12):
                y = walk(20 + k, 150)
                decisions = [
                    run_test(
                        y,
                        TestSpec(
                            variant=variant,
                            scheme=scheme,
                            lag=LagSpec.fixed(0),
                            alpha=a,
                        ),
                    ).reject
                    for a in levels
                ]
                # once rejecting at a small level, must reject at larger ones
                for lo, hi in zip(decisions, decisions[1:]):
                    assert (not lo) or hi

    def test_deterministic(self):
        y = walk(14, 200)
        spec = TestSpec(
            variant="fixed-b",
            scheme=BlockScheme.fixed_fraction(0.4),
            lag=LagSpec.bic(5),
        )
        assert run_test(y, spec).statistic == run_test(y, spec).statistic

    def test_prewhitened_fb_power_ar_errors(self):
        # AR(1) errors, local alternative: b = 0.4 with BIC lags keeps
        # high power at T = 300.
        dgp = DgpSpec(T=300, rho=0.9, errors=ErrorSpec("ar1", 0.5), init_sd=0.0)
        spec = TestSpec(
            variant="fixed-b",
            scheme=BlockScheme.fixed_fraction(0.4),
            lag=LagSpec.bic(5),
        )
        res = run_experiment(dgp, [spec], reps=10_000, alpha=0.05, seed=903, threads=4)
        rate = float(res.rates[0])
        assert abs(rate - 0.956) <= 0.015, f"power {rate:.4f}"


MISMATCH_SB = (
    "variant small-b paired with fraction blocklength scheme; "
    "asymptotics assume the natural pairing"
)
MISMATCH_FB = (
    "variant fixed-b paired with power blocklength scheme; "
    "asymptotics assume the natural pairing"
)
SHORT_29 = "effective sample length 29 after 2 lags is below 30"

# run_test outcomes recorded before run_test was split into whiten and
# evaluate: (series, variant, lag, statistic, reject, p, T_effective,
# warnings).  The p >= 1 statistics were re-recorded when the lag
# regressions moved to the one-triangle QR kernel; each moved by under
# 2e-15 relative.  The "swapped" series pairs each variant with the
# other's blocklength scheme.
FROZEN_RUN_TEST = [
    ("ar1-T200", "small-b", "0", 1.3692749766560846, False, 0, 200, ()),
    ("ar1-T200", "small-b", "2", -0.1798015434216319, False, 2, 198, ()),
    ("ar1-T200", "small-b", "bic5", -0.2035802013214221, False, 1, 199, ()),
    ("ar1-T200", "small-b", "schwert", -0.2035802013214221, False, 1, 199, ()),
    ("ar1-T200", "fixed-b", "0", 1.3085588092097045, False, 0, 200, ()),
    ("ar1-T200", "fixed-b", "2", 0.32296658721432725, False, 2, 198, ()),
    ("ar1-T200", "fixed-b", "bic5", 0.2569013603179892, False, 1, 199, ()),
    ("ar1-T200", "fixed-b", "schwert", 0.2569013603179892, False, 1, 199, ()),
    ("stationary-T150", "small-b", "0", -2.40061132970364, True, 0, 150, ()),
    ("stationary-T150", "small-b", "2", -3.2705040060305843, True, 2, 148, ()),
    ("stationary-T150", "small-b", "bic5", -3.3556009679866006, True, 1, 149, ()),
    ("stationary-T150", "small-b", "schwert", -3.3556009679866006, True, 1, 149, ()),
    ("stationary-T150", "fixed-b", "0", -1.892679486521189, True, 0, 150, ()),
    ("stationary-T150", "fixed-b", "2", -2.140728341379195, True, 2, 148, ()),
    ("stationary-T150", "fixed-b", "bic5", -2.301189090600954, True, 1, 149, ()),
    ("stationary-T150", "fixed-b", "schwert", -2.301189090600954, True, 1, 149, ()),
    ("walk-T31-swapped", "small-b", "0", 1.4198841013711918, False, 0, 31, (MISMATCH_SB,)),
    ("walk-T31-swapped", "small-b", "2", 1.79989682579967, False, 2, 29, (MISMATCH_SB, SHORT_29)),
    ("walk-T31-swapped", "small-b", "bic5", 1.4198841013711918, False, 0, 31, (MISMATCH_SB,)),
    ("walk-T31-swapped", "small-b", "schwert", 1.4198841013711918, False, 0, 31, (MISMATCH_SB,)),
    ("walk-T31-swapped", "fixed-b", "0", 1.4534664374698847, False, 0, 31, (MISMATCH_FB,)),
    ("walk-T31-swapped", "fixed-b", "2", 1.4160747814283088, False, 2, 29, (MISMATCH_FB, SHORT_29)),
    ("walk-T31-swapped", "fixed-b", "bic5", 1.4534664374698847, False, 0, 31, (MISMATCH_FB,)),
    ("walk-T31-swapped", "fixed-b", "schwert", 1.4534664374698847, False, 0, 31, (MISMATCH_FB,)),
]

FROZEN_LAGS = {
    "0": LagSpec.fixed(0),
    "2": LagSpec.fixed(2),
    "bic5": LagSpec.bic(5),
    "schwert": LagSpec.schwert(),
}


def frozen_series(name):
    dgp, stream = {
        "ar1-T200": (DgpSpec(T=200, errors=ErrorSpec("ar1", 0.5)), 0),
        "walk-T31-swapped": (DgpSpec(T=31), 1),
        "stationary-T150": (DgpSpec(T=150, rho=0.7, errors=ErrorSpec("ar1", 0.3)), 2),
    }[name]
    return simulate_dgp(dgp, RngStream(2201, stream))


@pytest.mark.parametrize("case", FROZEN_RUN_TEST, ids=lambda c: "-".join(c[:3]))
def test_run_test_matches_frozen_outcomes(case):
    name, variant, lag, stat, reject, p, T_eff, warnings = case
    schemes = [BlockScheme.power_rule(0.7), BlockScheme.fixed_fraction(0.2)]
    if name.endswith("swapped"):
        schemes.reverse()
    scheme = schemes[0] if variant == "small-b" else schemes[1]
    y = frozen_series(name)
    spec = TestSpec(variant, scheme, FROZEN_LAGS[lag])
    out = run_test(y, spec)
    assert out.statistic == stat
    assert out.reject is reject
    d = out.diagnostics
    assert (d["p"], d["lag_rule"], d["T_original"], d["T_effective"]) == (
        p, lag, y.shape[0], T_eff
    )
    assert tuple(d.get("warnings", ())) == warnings
    # The two halves run_test is built from give the same outcome.
    again = evaluate(whiten(y, spec.lag), spec)
    assert (again.statistic, again.reject, again.diagnostics) == (stat, reject, d)


def test_rel_err_helper():
    assert rel_err(1.0, 1.0) == 0.0
    assert rel_err(0.0, 1e-12) <= 1e-12
