import numpy as np
import pytest

from oracles import baseline_lag_bic_loop, rel_err
from urblock import baselines
from urblock.baselines import (
    BASELINE_KINDS,
    NULL_TABLE_REPS,
    NULL_TABLE_SEED,
    BaselineSpec,
    _batch_bic_stats,
    _batched_tstat,
    _cache_path,
    _regression_parts,
    _stat,
    adf,
    baseline_critical_value,
    df_gls,
    enders_lee,
    run_baseline,
)
from urblock.core import DegenerateSeries, LagTooLarge, RngStream, lagged_design
from urblock.mc import DgpSpec, ErrorSpec, TrendSpec, run_experiment
from urblock.testkit import LagSpec


def walk(stream, T, seed=4040):
    return np.cumsum(RngStream(seed, stream).generator().standard_normal(T))


class TestStatRoutes:
    """The vectorized (reps, T) route used for table building must agree
    with the one-series route used on user data."""

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    @pytest.mark.parametrize("p", [0, 2])
    def test_batch_equals_single(self, kind, p):
        # Both routes detrend with the same builder; only the fixed-lag
        # tables' t-ratio fit (normal equations, not QR) differs.
        g = RngStream(4100, 0).generator()
        Y = np.cumsum(g.standard_normal((12, 60)), axis=1)
        batch = _batched_tstat(*lagged_design(*_regression_parts(kind, Y), p, p))
        single = np.array([_stat(kind, row, p) for row in Y])
        assert batch.shape == (12,)
        for a, b in zip(batch, single):
            assert rel_err(a, b) < 1e-12, kind

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    @pytest.mark.parametrize("T", [60, 100, 300])
    def test_bic_route_matches_candidate_loop(self, bic_panels, kind, T):
        # A series' BIC test and the BIC table pick the candidate loop's
        # lag; both give the fixed-lag statistic at that lag.
        Y = bic_panels[T]
        want = [baseline_lag_bic_loop(kind, y, 5) for y in Y]
        spec = BaselineSpec(kind, LagSpec.bic(5))
        outs = [run_baseline(y, spec, critical_value=0.0) for y in Y]
        assert [out.diagnostics["p"] for out in outs] == want
        stats, chosen = _batch_bic_stats(kind, Y, 5)
        assert chosen.tolist() == want
        assert len(set(want)) >= 3
        single = np.array([_stat(kind, y, p) for y, p in zip(Y, want)])
        assert np.all(np.abs(stats - single) <= 1e-12 * np.maximum(1.0, np.abs(single)))
        assert [out.statistic for out in outs] == pytest.approx(single, rel=1e-12)

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_shift_and_scale_invariance(self, kind):
        for k in range(5):
            y = walk(k, 80)
            base = _stat(kind, y, 1)
            assert rel_err(_stat(kind, y + 100.0, 1), base) < 1e-8
            assert rel_err(_stat(kind, 3.0 * y, 1), base) < 1e-8
            assert rel_err(_stat(kind, 0.02 * y - 7.0, 1), base) < 1e-8

    def test_large_scale_and_offset_pass_rank_check(self):
        # The rank check equilibrates the design's columns, so neither
        # the units of y nor a level offset reads as collinearity.
        y = walk(0, 200)
        for kind in ("adf", "el"):
            base = _stat(kind, y, 1)
            assert rel_err(_stat(kind, y * 1e12, 1), base) < 1e-12
            assert rel_err(_stat(kind, y + 1e8, 1), base) < 1e-8

    def test_gls_detrend_exact_line_degenerate(self):
        t = np.arange(1.0, 41.0)
        with pytest.raises(DegenerateSeries, match="deterministic"):
            df_gls(0.5 + 0.3 * t, trend=True)

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_constant_series_degenerate(self, kind):
        spec = BaselineSpec(kind, LagSpec.fixed(0))
        for c in (0.0, 0.1, 5.0):
            with pytest.raises(DegenerateSeries):
                run_baseline(np.full(60, c), spec, critical_value=0.0)

    @pytest.mark.parametrize("kind", ["df-gls", "df-gls-trend"])
    def test_gls_degeneracy_test_is_scale_free(self, kind):
        # The detrended series is compared with the series' own spread,
        # so a tiny unit is not mistaken for an exact deterministic fit.
        y = walk(0, 200)
        spec = BaselineSpec(kind, LagSpec.fixed(1))
        base = run_baseline(y, spec, critical_value=0.0).statistic
        tiny = run_baseline(y * 1e-12, spec, critical_value=0.0).statistic
        assert rel_err(tiny, base) < 1e-12

    def test_bic_lag_cap_too_large(self):
        # T - p_max < 20 is the bound of every BIC lag search.
        with pytest.raises(LagTooLarge, match="fewer than 20 rows"):
            adf(walk(0, 40), LagSpec.bic(30))

    def test_min_length_guards(self):
        y24, y29 = walk(0, 24), walk(0, 29)
        with pytest.raises(ValueError, match="too short"):
            adf(y24)
        with pytest.raises(ValueError, match="too short"):
            enders_lee(y29)
        # el needs 30 points, adf only 25
        assert np.isfinite(adf(walk(1, 29)).statistic)


class TestFourierTrendAbsorption:
    """A trend of the form lam/2 * cos(2 pi t / T) lies in the span of
    the Fourier regressors, so the statistic cannot depend on lam."""

    def test_statistic_level(self):
        T = 100
        t = np.arange(1, T + 1, dtype=np.float64)
        cos_term = 0.5 * np.cos(2.0 * np.pi * t / T)
        for k in range(30):
            x = walk(k, T, seed=4200)
            base = _stat("el", x, 0)
            for lam in (3.0, 6.0, 9.0):
                shifted = _stat("el", x + lam * cos_term, 0)
                assert rel_err(shifted, base) < 1e-8, (k, lam)

    def test_rate_level(self):
        spec = BaselineSpec("el", LagSpec.fixed(0))
        rates = []
        for lam in (3.0, 6.0, 9.0):
            dgp = DgpSpec(T=100, rho=1.0, trend=TrendSpec("fourier", lam))
            res = run_experiment(dgp, [spec], reps=2000, alpha=0.05, seed=4300)
            rates.append(res.rates[0])
        assert max(rates) - min(rates) <= 0.01, rates


class TestOutcomeContract:
    def test_fields_and_reject_rule(self):
        y = walk(3, 120)
        out = adf(y, lag=LagSpec.fixed(2), alpha=0.1)
        assert out.reject == (out.statistic < out.critical_value)
        assert out.p_value is None
        d = out.diagnostics
        assert d["variant"] == "adf"
        assert d["T"] == 120 and d["p"] == 2
        assert d["lag_rule"] == "2"
        assert f"reps={NULL_TABLE_REPS}" in d["critical_values"]
        assert f"seed={NULL_TABLE_SEED}" in d["critical_values"]

    def test_run_baseline_dispatch(self):
        y = walk(4, 90)
        spec = BaselineSpec("df-gls-trend", LagSpec.fixed(1))
        via_spec = run_baseline(y, spec)
        direct = df_gls(y, lag=LagSpec.fixed(1), trend=True)
        assert via_spec.statistic == direct.statistic
        assert via_spec.critical_value == direct.critical_value

    def test_bic_lag_selection_bounds(self):
        y = walk(5, 60, seed=4400)
        out = run_baseline(y, BaselineSpec("adf", LagSpec.bic(5)))
        p = out.diagnostics["p"]
        assert 0 <= p <= 5
        assert p == baseline_lag_bic_loop("adf", y, 5)
        assert out.diagnostics["lag_rule"] == "bic5"
        assert out.statistic == _stat("adf", y, p)
        assert out.reject == (out.statistic < out.critical_value)
        assert BaselineSpec("df-gls", LagSpec.bic(4)).lag.label() == "bic4"

    @pytest.mark.parametrize(
        "run",
        [
            lambda y, lag: adf(y, lag),
            lambda y, lag: df_gls(y, lag, trend=True),
            lambda y, lag: enders_lee(y, lag),
            lambda y, lag: run_baseline(y, BaselineSpec("df-gls", lag)),
        ],
        ids=["adf", "df_gls", "enders_lee", "BaselineSpec"],
    )
    def test_integer_lag_is_fixed_lag(self, run):
        y = walk(6, 90)
        by_int, by_spec = run(y, 1), run(y, LagSpec.fixed(1))
        assert by_int.statistic == by_spec.statistic
        assert by_int.critical_value == by_spec.critical_value
        assert by_int.diagnostics["lag_rule"] == "1"
        with pytest.raises(TypeError):
            run(y, 1.5)

    def test_alpha_not_tabulated(self):
        with pytest.raises(ValueError, match="not tabulated"):
            baseline_critical_value("adf", 50, LagSpec.fixed(0), 0.123)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown baseline kind"):
            BaselineSpec("kpss", LagSpec.fixed(0))
        with pytest.raises(ValueError, match="lag rules"):
            BaselineSpec("adf", LagSpec.schwert())


class TestCacheFile:
    def test_format_and_reload(self):
        # Force a small table into the session cache dir, then inspect it.
        baseline_critical_value("adf", 40, LagSpec.fixed(0), 0.05)
        path = _cache_path()
        lines = open(path).read().splitlines()
        assert lines[0].startswith("# urblock ")
        assert lines[1] == (
            f"urblock-basetable v1 reps={NULL_TABLE_REPS} seed={NULL_TABLE_SEED}"
        )
        assert lines[2] == "kind,T,p,alpha,quantile"
        rows = [ln.split(",") for ln in lines[3:]]
        assert any(r[0] == "adf" and r[1] == "40" and r[2] == "0" for r in rows)
        # every stored fixed-lag quantile round-trips through the lookup;
        # fresh quantiles are rounded to the file's six decimals before
        # they are served, so the lookup returns exactly the stored value
        for kind, T, p, alpha, q in rows:
            if not p.isdigit():
                continue
            got = baseline_critical_value(kind, int(T), LagSpec.fixed(int(p)), float(alpha))
            assert got == float(q)

    def test_cold_and_warm_lookups_agree(self, tmp_path, monkeypatch):
        monkeypatch.setenv("URBLOCK_TABLE_DIR", str(tmp_path))
        cold = baseline_critical_value("adf", 80, LagSpec.fixed(1), 0.05)
        # Forget the in-memory table, so the next lookup reads the file.
        monkeypatch.setattr(baselines, "_cache_loaded_from", None)
        warm = baseline_critical_value("adf", 80, LagSpec.fixed(1), 0.05)
        assert cold == warm == -2.901706

    def test_quantiles_ordered(self):
        baseline_critical_value("df-gls", 40, LagSpec.fixed(0), 0.05)
        q20 = baseline_critical_value("df-gls", 40, LagSpec.fixed(0), 0.2)
        q05 = baseline_critical_value("df-gls", 40, LagSpec.fixed(0), 0.05)
        q01 = baseline_critical_value("df-gls", 40, LagSpec.fixed(0), 0.01)
        assert q20 > q05 > q01


class TestRejectionRates:
    """Finite-sample size and power of the baselines under the simulated
    null tables, checked against reference rates at reps = 10^4."""

    def test_df_gls_size(self):
        res = run_experiment(
            DgpSpec(T=300),
            [BaselineSpec("df-gls", LagSpec.fixed(0))],
            reps=10_000,
            alpha=0.05,
            seed=4501,
            threads=4,
        )
        assert abs(res.rates[0] - 0.058) <= 0.015, res.rates

    def test_el_size(self):
        res = run_experiment(
            DgpSpec(T=300),
            [BaselineSpec("el", LagSpec.fixed(0))],
            reps=10_000,
            alpha=0.05,
            seed=4502,
            threads=4,
        )
        assert abs(res.rates[0] - 0.054) <= 0.015, res.rates

    def test_adf_power(self):
        res = run_experiment(
            DgpSpec(T=300, rho=0.9, init_sd=0.0),
            [BaselineSpec("adf", LagSpec.fixed(0))],
            reps=10_000,
            alpha=0.05,
            seed=4503,
            threads=4,
        )
        assert abs(res.rates[0] - 0.996) <= 0.015, res.rates

    def test_df_gls_power_small_t(self):
        # At T=100 the asymptotic DF-GLS critical value over-rejects under
        # the null (size near 0.08), which inflates unadjusted power figures
        # toward 0.79.  This package draws critical values from simulated
        # finite-sample null tables, so size is pinned at the nominal level
        # and power lands lower; the reference below is the size-correct rate.
        res = run_experiment(
            DgpSpec(T=100, rho=0.9, init_sd=0.0),
            [BaselineSpec("df-gls", LagSpec.fixed(0))],
            reps=10_000,
            alpha=0.05,
            seed=4504,
            threads=4,
        )
        assert abs(res.rates[0] - 0.666) <= 0.02, res.rates

    def test_lag_augmentation_recentres_adf_stat(self):
        # Omitted positive AR(1) correlation makes the long-run variance
        # exceed the innovation variance, which shifts the unaugmented
        # statistic upward (toward zero); one lag of augmentation removes
        # the shift, so the augmented mean sits strictly below.
        stats0, stats1 = [], []
        for k in range(400):
            y = np.cumsum(
                simulate_ar1(RngStream(4506, k), 200, 0.5)
            )
            stats0.append(_stat("adf", y, 0))
            stats1.append(_stat("adf", y, 1))
        assert np.mean(stats0) > np.mean(stats1)


def simulate_ar1(stream: RngStream, T: int, a: float) -> np.ndarray:
    g = stream.generator()
    eps = g.standard_normal(T + 100)
    u = np.empty(T + 100)
    u[0] = eps[0] / np.sqrt(1.0 - a * a)
    for i in range(1, T + 100):
        u[i] = a * u[i - 1] + eps[i]
    return u[100:]
