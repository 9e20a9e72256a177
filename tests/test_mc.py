import csv
import io
import os

import numpy as np
import pytest

import urblock.baselines
import urblock.testkit
from oracles import experiment_chunk_per_test
from urblock.baselines import BaselineSpec, warm_baseline_tables
from urblock.core import BlockScheme, RngStream, UrblockError
from urblock.mc import (
    RESULT_COLUMNS,
    _experiment_chunk,
    DgpSpec,
    ErrorSpec,
    TrendSpec,
    VarianceSpec,
    emit_table,
    parse_config,
    parse_test_id,
    run_config,
    run_experiment,
    simulate_dgp,
    trend_value,
)
from urblock.testkit import LagSpec, TestSpec

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class TestTrendValue:
    def test_reference_points(self):
        assert trend_value(TrendSpec("sharp-break", 3.0), 0.5) == 3.0
        assert trend_value(TrendSpec("sharp-break", 3.0), 0.7) == 0.0
        assert trend_value(TrendSpec("fourier", 3.0), 0.0) == pytest.approx(1.5)
        assert trend_value(TrendSpec("triangular", 3.0), 0.5) == pytest.approx(3.0)
        assert trend_value(TrendSpec("triangular", 3.0), 0.75) == pytest.approx(1.5)
        assert trend_value(TrendSpec("zero"), 0.3) == 0.0
        assert trend_value(TrendSpec("u-shaped-break", 2.0), 0.2) == 2.0
        assert trend_value(TrendSpec("u-shaped-break", 2.0), 0.5) == 0.0
        assert trend_value(TrendSpec("continuous-break", 3.0), 1.0) == pytest.approx(4.0)

    def test_vectorized(self):
        r = np.linspace(0.0, 1.0, 11)
        out = trend_value(TrendSpec("triangular", 2.0), r)
        assert out.shape == r.shape
        assert out.max() == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown trend kind"):
            TrendSpec("ramp", 1.0)
        with pytest.raises(ValueError, match="lambda"):
            TrendSpec("sharp-break", -1.0)


class TestSimulateDgp:
    FULL = DgpSpec(
        T=80,
        rho=0.95,
        trend=TrendSpec("lstar", 3.0),
        errors=ErrorSpec("ar1", 0.5),
        variance=VarianceSpec("step-break", 2.0),
        init_sd=1.0,
    )

    def test_deterministic(self):
        a = simulate_dgp(self.FULL, RngStream(7, 3))
        b = simulate_dgp(self.FULL, RngStream(7, 3))
        assert np.array_equal(a, b)
        c = simulate_dgp(self.FULL, RngStream(7, 4))
        assert not np.array_equal(a, c)

    def test_random_walk_mean(self):
        T, n = 50, 2000
        spec = DgpSpec(T=T)
        last = np.array(
            [simulate_dgp(spec, RngStream(5100, k))[-1] for k in range(n)]
        )
        assert abs(last.mean()) < 3.0 * np.sqrt(T / n)
        assert last.std() == pytest.approx(np.sqrt(T), rel=0.1)

    def test_step_variance_ratio(self):
        spec = DgpSpec(T=100_000, variance=VarianceSpec("step-break", 3.0))
        d = np.diff(simulate_dgp(spec, RngStream(5101, 0)))
        early = np.var(d[: 60_000])
        late = np.var(d[70_000:])
        assert early / late == pytest.approx(4.0, rel=0.1)

    def test_trend_enters_additively(self):
        base = DgpSpec(T=200)
        with_trend = DgpSpec(T=200, trend=TrendSpec("sharp-break", 6.0))
        x = simulate_dgp(base, RngStream(5102, 0))
        y = simulate_dgp(with_trend, RngStream(5102, 0))
        r = np.arange(1, 201) / 200.0
        assert np.allclose(y - x, trend_value(TrendSpec("sharp-break", 6.0), r))


class TestParseTestId:
    def test_pooled_defaults(self):
        sb = parse_test_id("tau-sb")
        assert sb.variant == "small-b"
        assert sb.scheme == BlockScheme.power_rule(0.7)
        assert sb.lag == LagSpec.fixed(0)
        fb = parse_test_id("tau-fb")
        assert fb.variant == "fixed-b"
        assert fb.scheme == BlockScheme.fixed_fraction(0.2)

    def test_full_form(self):
        spec = parse_test_id("tau-sb:gamma=0.6:p=bic5")
        assert spec.scheme == BlockScheme.power_rule(0.6)
        assert spec.lag == LagSpec.bic(5)
        spec = parse_test_id("tau-fb:b=0.4:p=2")
        assert spec.scheme == BlockScheme.fixed_fraction(0.4)
        assert spec.lag == LagSpec.fixed(2)
        spec = parse_test_id("tau-sb:B=16")
        assert spec.scheme == BlockScheme.explicit(16)
        assert parse_test_id("tau-sb:p=bic").lag == LagSpec.bic(5)
        assert parse_test_id("tau-sb:p=schwert").lag == LagSpec.schwert()

    def test_baselines(self):
        spec = parse_test_id("adf:p=2")
        assert isinstance(spec, BaselineSpec)
        assert spec.kind == "adf" and spec.lag == LagSpec.fixed(2)
        assert parse_test_id("df-gls-trend").kind == "df-gls-trend"

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="conflicting"):
            parse_test_id("tau-sb:gamma=0.7:b=0.2")
        with pytest.raises(ValueError, match="unknown test options"):
            parse_test_id("tau-sb:q=3")
        with pytest.raises(ValueError, match="unknown test options"):
            parse_test_id("adf:gamma=0.7")
        with pytest.raises(ValueError, match="unknown test kind"):
            parse_test_id("kpss")
        with pytest.raises(ValueError, match="malformed"):
            parse_test_id("tau-sb:gamma")
        with pytest.raises(ValueError, match="duplicate"):
            parse_test_id("tau-sb:gamma=0.7:gamma=0.8")
        with pytest.raises(ValueError, match="empty"):
            parse_test_id("  ")


VALID_CONFIG = """\
[size-iid]
T = 60
reps = 40
tests = tau-sb:gamma=0.7, adf
alpha = 0.05

[power-ar]
T = 60
rho = 0.9
errors = ar1 0.5
variance = step-break 2
trend = sharp-break 3
reps = 40
tests = tau-fb:b=0.3:p=1
seed = 99
"""


class TestParseConfig:
    def test_valid_two_sections(self):
        exps = parse_config(VALID_CONFIG)
        assert [e[0] for e in exps] == ["size-iid", "power-ar"]
        name, dgp, tests, reps, alpha, seed = exps[0]
        assert dgp.T == 60 and dgp.rho == 1.0
        assert len(tests) == 2 and isinstance(tests[1], BaselineSpec)
        assert reps == 40 and alpha == 0.05 and seed is None
        _, dgp2, tests2, _, _, seed2 = exps[1]
        assert dgp2.errors == ErrorSpec("ar1", 0.5)
        assert dgp2.variance == VarianceSpec("step-break", 2.0)
        assert dgp2.trend == TrendSpec("sharp-break", 3.0)
        assert seed2 == 99
        assert tests2[0].variant == "fixed-b"

    def test_unknown_key(self):
        bad = "[a]\nT = 50\nreps = 10\ntests = adf\nburn = 7\n"
        with pytest.raises(ValueError, match="unknown keys"):
            parse_config(bad)

    def test_missing_required(self):
        for missing in ("T = 50", "reps = 10", "tests = adf"):
            text = "[a]\n" + "\n".join(
                ln for ln in ("T = 50", "reps = 10", "tests = adf") if ln != missing
            )
            with pytest.raises(ValueError, match="must set"):
                parse_config(text + "\n")

    def test_empty_tests(self):
        with pytest.raises(ValueError, match="empty tests"):
            parse_config("[a]\nT = 50\nreps = 10\ntests = ,\n")

    def test_no_sections(self):
        with pytest.raises(ValueError, match="no experiments"):
            parse_config("# just a comment\n")

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            parse_config("/nonexistent/path.cfg")

    def test_seed_override_through_run_config(self):
        results = run_config(io.StringIO(VALID_CONFIG), seed=5)
        assert results[0][1].seed == 5
        assert results[1][1].seed == 99


class TestRunExperiment:
    def test_rates_stable_under_test_subset(self):
        dgp = DgpSpec(T=60)
        both = run_experiment(
            dgp,
            [parse_test_id("tau-sb:gamma=0.7"), parse_test_id("adf")],
            reps=300,
            seed=5200,
        )
        solo = run_experiment(dgp, [parse_test_id("tau-sb:gamma=0.7")], reps=300, seed=5200)
        assert both.rates[0] == solo.rates[0]
        assert both.test_labels[0] == solo.test_labels[0]

    def test_failure_abort(self):
        spec = TestSpec(variant="small-b", scheme=BlockScheme.explicit(40), lag=LagSpec.fixed(0))
        with pytest.raises(UrblockError, match="failed on"):
            run_experiment(DgpSpec(T=30), [spec], reps=50, seed=1)

    def test_fb_cell_at_table_edge_completes(self):
        # AR(1) errors make BIC pick p >= 1; whitening then leaves T - p
        # points, so b = 0.1 resolves to a B/T just below the table's
        # first row.
        res = run_experiment(
            DgpSpec(T=300, errors=ErrorSpec("ar1", 0.5)),
            [parse_test_id("tau-fb:b=0.1:p=bic5")],
            reps=50,
            seed=5203,
        )
        assert np.array_equal(res.failures, [0])

    def test_input_validation(self):
        dgp = DgpSpec(T=60)
        ok = [parse_test_id("tau-sb")]
        with pytest.raises(ValueError, match="reps"):
            run_experiment(dgp, ok, reps=0, seed=1)
        with pytest.raises(ValueError, match="no tests"):
            run_experiment(dgp, [], reps=10, seed=1)
        with pytest.raises(TypeError, match="unsupported"):
            run_experiment(dgp, ["tau-sb"], reps=10, seed=1)

    def test_no_failures_recorded_on_clean_run(self):
        res = run_experiment(DgpSpec(T=60), [parse_test_id("tau-sb")], reps=50, seed=5201)
        assert np.array_equal(res.failures, [0])
        assert res.ses[0] == pytest.approx(
            np.sqrt(res.rates[0] * (1 - res.rates[0]) / 50)
        )

    def test_power_increases_with_blocklength_exponent(self):
        res = run_experiment(
            DgpSpec(T=300, rho=0.9),
            [parse_test_id("tau-sb:gamma=0.8"), parse_test_id("tau-sb:gamma=0.5")],
            reps=4000,
            seed=5202,
            threads=4,
        )
        assert res.rates[0] > res.rates[1] + 0.02, res.rates


    def test_parent_imports_dgp_filter_before_forking(self, run_child):
        # Forked workers inherit the parent's modules; without this import
        # each worker would pay for scipy.signal on its first draw.
        script = (
            "import sys\n"
            "from urblock.mc import DgpSpec, parse_test_id, run_experiment\n"
            "assert 'scipy.signal' not in sys.modules\n"
            "run_experiment(DgpSpec(T=60), [parse_test_id('tau-sb')], reps=8, seed=1, threads=2)\n"
            "print('scipy.signal' in sys.modules)\n"
        )
        assert run_child(["-c", script]).splitlines()[-1] == "True"


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


# Pooled tests over every lag rule, fixed-lag baselines last.
BATTERY = (
    "tau-sb:gamma=0.7, tau-fb:b=0.2, tau-sb:gamma=0.5:p=1, tau-fb:b=0.4:p=1, "
    "tau-sb:gamma=0.7:p=bic5, tau-sb:gamma=0.6:p=bic5, tau-fb:b=0.2:p=bic5, "
    "tau-sb:gamma=0.7:p=schwert, tau-fb:b=0.3:p=schwert, adf"
)
# The seven pooled tests of a tables_full.cfg cell, at p = bic5.
BIC5_POOLED = (
    "tau-sb:gamma=0.5:p=bic5, tau-sb:gamma=0.6:p=bic5, tau-sb:gamma=0.7:p=bic5, "
    "tau-sb:gamma=0.8:p=bic5, tau-fb:b=0.2:p=bic5, tau-fb:b=0.4:p=bic5, "
    "tau-fb:b=0.6:p=bic5"
)


def battery(text):
    return [parse_test_id(t) for t in text.split(",")]


class TestBatteryPerDraw:
    """The chunk whitens each draw once per lag rule and looks baseline
    critical values up once per cell; its decisions equal running every
    test on its own."""

    @pytest.mark.parametrize(
        "T, extra",
        [(30, ", df-gls:p=1"), (100, ", df-gls:p=1"), (300, "")],
    )
    def test_chunk_equals_per_test_loop(self, T, extra):
        dgp = DgpSpec(T=T, trend=TrendSpec("sharp-break", 3.0), errors=ErrorSpec("ar1", 0.5))
        tests = battery(BATTERY + extra)
        crits = warm_baseline_tables(tests, T, 0.05)
        got = _experiment_chunk(dgp, tests, crits, 0.05, 5400, 3, 43)
        want = experiment_chunk_per_test(dgp, tests, 0.05, 5400, 3, 43)
        assert got.dtype == want.dtype == np.int8
        assert np.array_equal(got, want)

    def test_lag_rule_failing_on_every_draw(self):
        # At T = 24 BIC(5) leaves fewer than 20 rows: every test of that
        # rule fails on every draw, while the others run.
        dgp = DgpSpec(T=24, rho=0.8)
        tests = battery(
            "tau-sb:gamma=0.7:p=bic5, tau-sb, tau-fb:b=0.2:p=bic5, tau-fb:b=0.2:p=1"
        )
        got = _experiment_chunk(dgp, tests, [None] * 4, 0.1, 5401, 0, 60)
        want = experiment_chunk_per_test(dgp, tests, 0.1, 5401, 0, 60)
        assert np.array_equal(got, want)
        assert (got[:, [0, 2]] == -1).all()
        assert (got[:, [1, 3]] >= 0).mean() > 0.9
        assert got[:, [1, 3]].max() == 1

    def test_one_lag_pick_and_fit_per_draw(self, monkeypatch):
        picks = counting(monkeypatch, urblock.testkit, "select_lag_bic")
        fits = counting(monkeypatch, urblock.testkit, "fit_prewhiten")
        dgp = DgpSpec(T=300, errors=ErrorSpec("ar1", 0.5))
        tests = battery(BIC5_POOLED)
        out = _experiment_chunk(dgp, tests, [None] * 7, 0.05, 5402, 0, 1)
        assert (out >= 0).all()
        assert (len(picks), len(fits)) == (1, 1)
        out = _experiment_chunk(dgp, tests + battery("tau-sb:p=2"), [None] * 8, 0.05, 5402, 0, 5)
        assert (len(picks), len(fits)) == (1 + 5, 1 + 5 * 2)

    def test_baseline_critical_value_once_per_cell(self, monkeypatch):
        lookups = counting(monkeypatch, urblock.baselines, "baseline_critical_value")
        tests = battery("adf, tau-sb, df-gls:p=1, adf:p=1")
        res = run_experiment(DgpSpec(T=60), tests, reps=30, seed=5403)
        assert np.array_equal(res.failures, [0, 0, 0, 0])
        assert [args[:3] for args in lookups] == [
            ("adf", 60, LagSpec.fixed(0)),
            ("df-gls", 60, LagSpec.fixed(1)),
            ("adf", 60, LagSpec.fixed(1)),
        ]


class TestEmitTable:
    def run_small(self, seed=5300):
        return run_experiment(
            DgpSpec(T=60), [parse_test_id("tau-sb"), parse_test_id("adf")], reps=40, seed=seed
        )

    def test_result_columns(self):
        assert RESULT_COLUMNS == (
            "T",
            "rho",
            "trend",
            "trend_lambda",
            "errors",
            "ar_coef",
            "variance",
            "var_lambda",
            "init_sd",
            "test",
            "alpha",
            "reps",
            "rate",
            "se",
            "seed",
        )

    def test_empty_results(self):
        text = emit_table([], fmt="csv", command="probe")
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("# urblock ")
        assert "command: probe" in lines[0]
        assert lines[1] == ",".join(RESULT_COLUMNS)

    def test_csv_rows(self):
        res = self.run_small()
        text = emit_table(res, fmt="csv", command="check")
        lines = text.splitlines()
        assert lines[1] == ",".join(RESULT_COLUMNS)
        assert len(lines) == 4
        # labels contain commas, so the writer must quote them: every data
        # row must parse back to exactly one field per column
        parsed = list(csv.reader(lines[1:]))
        assert all(len(r) == len(RESULT_COLUMNS) for r in parsed)
        row = parsed[1]
        assert row[0] == "60" and row[1] == "1"
        assert row[2] == "zero" and row[4] == "iid"
        assert row[9] == "tau-sb[B=T^0.7,p=0]"
        assert row[11] == "40"
        assert float(row[12]) == pytest.approx(res.rates[0], abs=1e-6)
        assert parsed[2][9] == "adf[p=0]"
        assert f"seed: {res.seed}" in lines[0]

    def test_text_alignment(self):
        res = self.run_small()
        text = emit_table(res, fmt="text")
        lines = text.splitlines()
        assert lines[1].split() == list(RESULT_COLUMNS)
        assert len(lines) == 4
        # columns line up: every header token starts at the same offset
        # as the corresponding value in each row
        start = lines[1].index("test")
        for ln in lines[2:]:
            assert ln[start : start + 6] in ("tau-sb", "adf[p="), ln
        assert all(ln == ln.rstrip() for ln in lines)

    def test_path_writing(self, tmp_path):
        res = self.run_small()
        p = tmp_path / "out.csv"
        text = emit_table(res, fmt="csv", path=p)
        assert p.read_text() == text

    def test_format_validation(self):
        with pytest.raises(ValueError, match="format"):
            emit_table(self.run_small(), fmt="json")


GOLDEN_CONFIG = """\
[null-iid]
T = 60
reps = 100
tests = tau-sb:gamma=0.7, adf
seed = 42

[power-break]
T = 60
rho = 0.9
trend = sharp-break 3
reps = 100
tests = tau-fb:b=0.3
seed = 43
"""


class TestPackagedConfigs:
    """The bundled experiment grids must always parse."""

    def load(self, name):
        import importlib.resources

        ref = importlib.resources.files("urblock.configs").joinpath(name)
        with ref.open("r") as fh:
            return parse_config(fh)

    def test_desk_grid(self):
        exps = self.load("table3_desk.cfg")
        assert len(exps) == 4
        for _name, dgp, tests, reps, alpha, seed in exps:
            assert dgp.T == 300 and reps == 10_000 and alpha == 0.05
            assert seed is not None
            assert tests

    def test_full_grid(self):
        exps = self.load("tables_full.cfg")
        assert len(exps) == 196
        seeds = [seed for *_rest, seed in exps]
        assert len(set(seeds)) == len(seeds)  # all sections independent
        for _name, dgp, tests, reps, _alpha, _seed in exps:
            assert dgp.T in (100, 300)
            assert reps == 100_000
            assert tests


class TestGoldenTable:
    def test_matches_frozen_output(self):
        results = run_config(io.StringIO(GOLDEN_CONFIG), seed=0)
        text = emit_table(results, fmt="csv", command="golden")
        golden_path = os.path.join(DATA_DIR, "golden_table.csv")
        with open(golden_path, "rb") as fh:
            assert fh.read() == text.encode()
