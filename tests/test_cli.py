import io
import json
import sys

import numpy as np
import pytest
from scipy.stats import norm

from urblock.cli import main, read_series
from urblock.core import RngStream
from urblock.limits import CritTable


def write_walk(path, T=120, seed=6001, header=None, transform=None):
    y = np.cumsum(RngStream(seed, 0).generator().standard_normal(T))
    if transform is not None:
        y = transform(y)
    lines = ([header] if header else []) + [f"{v:.10f}" for v in y]
    path.write_text("\n".join(lines) + "\n")
    return y


class TestReadSeries:
    def test_headerless_single_column(self, tmp_path):
        p = tmp_path / "plain.csv"
        y = write_walk(p, T=40)
        got = read_series(str(p))
        assert np.allclose(got, y, atol=1e-9)

    def test_header_autodetected(self, tmp_path):
        p = tmp_path / "headed.csv"
        y = write_walk(p, T=40, header="gdp")
        got = read_series(str(p))
        assert got.shape == (40,)
        assert np.allclose(got, y, atol=1e-9)

    def test_named_column(self, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text("date,value\n2001Q1,1.5\n2001Q2,2.5\n2001Q3,3.0\n")
        got = read_series(str(p), column="value")
        assert np.allclose(got, [1.5, 2.5, 3.0])
        with pytest.raises(ValueError, match="not found"):
            read_series(str(p), column="gdp")

    def test_multi_column_needs_selector(self, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="--column"):
            read_series(str(p))

    def test_non_numeric_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("value\n1.0\n2.0\noops\n")
        with pytest.raises(ValueError, match="row 4"):
            read_series(str(p), column="value")

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("1.0\n\n2.0\n\n\n3.0\n")
        assert np.allclose(read_series(str(p)), [1.0, 2.0, 3.0])

    def test_stdin(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1.0\n2.0\n3.0\n"))
        assert np.allclose(read_series("-"), [1.0, 2.0, 3.0])

    def test_missing_file(self):
        with pytest.raises(ValueError, match="cannot read"):
            read_series("/nonexistent/data.csv")


class TestTestCommand:
    def test_json_output(self, tmp_path, capsys):
        p = tmp_path / "y.csv"
        write_walk(p, T=150)
        rc = main(["test", str(p), "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {
            "statistic",
            "critical_value",
            "p_value",
            "reject",
            "diagnostics",
        }
        assert payload["p_value"] == pytest.approx(
            norm.cdf(payload["statistic"]), abs=1e-9
        )
        assert payload["reject"] == (payload["statistic"] < payload["critical_value"])
        assert payload["diagnostics"]["variant"] == "small-b"

    def test_text_output(self, tmp_path, capsys):
        p = tmp_path / "y.csv"
        write_walk(p, T=150)
        rc = main(["test", str(p), "--test", "tau-fb", "--b", "0.4", "--lags", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "statistic" in out and "critical value" in out
        assert "decision" in out and "diagnostics" in out

    def test_tau_fb_b_at_table_edge(self, tmp_path, capsys):
        # B = floor(0.1 * 299) = 29 gives b just below the table's 0.1.
        p = tmp_path / "y.csv"
        write_walk(p, T=299)
        rc = main(["test", str(p), "--test", "tau-fb", "--b", "0.1", "--lags", "0"])
        assert rc == 0, capsys.readouterr().err

    def test_csv_output(self, tmp_path, capsys):
        p = tmp_path / "y.csv"
        write_walk(p, T=150)
        rc = main(["test", str(p), "--test", "adf", "--lags", "1", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "statistic,critical_value,p_value,reject,alpha"
        fields = lines[1].split(",")
        assert fields[2] == ""  # simulated table: no p-value
        assert fields[4] == "0.05"

    def test_constant_column_degenerate(self, tmp_path, capsys):
        p = tmp_path / "flat.csv"
        p.write_text("\n".join(["5.0"] * 50) + "\n")
        rc = main(["test", str(p)])
        assert rc == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("test", ["tau-sb", "tau-fb"])
    def test_jump_at_end_degenerate(self, tmp_path, capsys, test):
        # Every block but the last is constant; with no lags nothing is
        # fitted before the pooled estimator, which finds the series
        # degenerate.
        p = tmp_path / "jump.csv"
        p.write_text("\n".join(["0"] * 99 + ["1"]) + "\n")
        rc = main(["test", str(p), "--test", test, "--lags", "0"])
        assert rc == 3
        assert "constant within every block" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "test,lags",
        [
            ("tau-sb", "bic"),
            ("tau-sb", "2"),
            ("tau-fb", "bic"),
            ("tau-fb", "2"),
            ("adf", "0"),
            ("adf", "2"),
            ("adf", "bic"),
            ("df-gls", "2"),
            ("df-gls", "bic"),
        ],
    )
    def test_jump_at_end_degenerate_with_lags(self, tmp_path, capsys, test, lags):
        # A column of the lag regression is all zero (the level before
        # the jump, or its lagged differences): lag selection, whitening
        # and the reference tests find the series degenerate rather than
        # singular.
        p = tmp_path / "jump.csv"
        p.write_text("\n".join(["0"] * 99 + ["1"]) + "\n")
        rc = main(["test", str(p), "--test", test, "--lags", lags])
        assert rc == 3
        assert "constant over the lag regression" in capsys.readouterr().err

    def test_too_short_aborts(self, tmp_path, capsys):
        p = tmp_path / "tiny.csv"
        write_walk(p, T=9)
        rc = main(["test", str(p)])
        assert rc == 2
        assert "too short" in capsys.readouterr().err

    def test_short_but_usable_warns(self, tmp_path, capsys):
        p = tmp_path / "short.csv"
        write_walk(p, T=20)
        rc = main(["test", str(p), "--lags", "0"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "warning" in captured.err
        assert "statistic" in captured.out

    def test_gamma_b_conflict(self, tmp_path, capsys):
        p = tmp_path / "y.csv"
        write_walk(p, T=100)
        rc = main(["test", str(p), "--gamma", "0.7", "--b", "0.2"])
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_blocklength_flags_rejected_for_baselines(self, tmp_path, capsys):
        p = tmp_path / "y.csv"
        write_walk(p, T=100)
        rc = main(["test", str(p), "--test", "adf", "--gamma", "0.7"])
        assert rc == 2
        assert "tau-sb" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, names",
        [
            ("", "fb_critical_values.txt"),
            ("urblock-crittable v1 grid=100 reps=1000\n0.2,0.05\n", "0.2,0.05"),
            (
                "urblock-crittable v1 grid=100 reps=1000\n0.2,0.05,abc\n",
                "0.2,0.05,abc",
            ),
        ],
        ids=["empty", "short-row", "non-numeric"],
    )
    def test_broken_table_override_is_usage_error(
        self, tmp_path, capsys, monkeypatch, body, names
    ):
        (tmp_path / "fb_critical_values.txt").write_text(body)
        monkeypatch.setenv("URBLOCK_TABLE_DIR", str(tmp_path))
        p = tmp_path / "y.csv"
        write_walk(p, T=100)
        rc = main(["test", str(p), "--test", "tau-fb", "--lags", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "fb_critical_values.txt" in err
        assert names in err

    def test_unknown_test_rejected_by_parser(self, tmp_path):
        p = tmp_path / "y.csv"
        write_walk(p, T=100)
        with pytest.raises(SystemExit) as exc:
            main(["test", str(p), "--test", "kpss"])
        assert exc.value.code == 2

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        y = np.cumsum(RngStream(6002, 0).generator().standard_normal(80))
        monkeypatch.setattr(
            sys, "stdin", io.StringIO("\n".join(f"{v:.8f}" for v in y) + "\n")
        )
        rc = main(["test", "-", "--lags", "0"])
        assert rc == 0
        assert "statistic" in capsys.readouterr().out


    def test_cold_test_command_loads_no_scipy(self, tmp_path, run_child):
        # scipy serves only the simulators; a one-shot test never loads it.
        p = tmp_path / "y.csv"
        write_walk(p, T=120)
        script = (
            "import sys\n"
            "import urblock.cli\n"
            f"path = {str(p)!r}\n"
            "for kind, lags in (('tau-sb', 'bic'), ('tau-fb', 'bic'), ('adf', '1')):\n"
            "    argv = ['test', path, '--test', kind, '--lags', lags]\n"
            "    assert urblock.cli.main(argv) == 0\n"
            "print('loaded:', *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = run_child(["-c", script])
        assert out.splitlines()[-1] == "loaded:"


class TestCritvalsCommand:
    ARGS = [
        "critvals",
        "--seed", "3",
        "--grid", "150",
        "--reps", "1000",
        "--b-grid", "0.2,0.5",
        "--alphas", "0.1,0.05",
    ]

    def test_reps_floor_is_usage_error(self, tmp_path, capsys):
        rc = main(
            ["critvals", "--seed", "1", "--reps", "500", "--grid", "150",
             "--out", str(tmp_path / "t.txt")]
        )
        assert rc == 2
        assert "reps" in capsys.readouterr().err

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        out = tmp_path / "table.txt"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        first = out.read_bytes()
        assert main(self.ARGS + ["--out", str(out)]) == 0
        assert out.read_bytes() == first
        assert "wrote" in capsys.readouterr().out

    def test_output_parses_and_headers(self, tmp_path):
        out = tmp_path / "table.txt"
        main(self.ARGS + ["--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# urblock ")
        assert "critvals --seed 3" in lines[0]
        assert lines[1] == "urblock-crittable v1 grid=150 reps=1000 seed=3"
        table = CritTable.load(out)
        assert list(table.b_grid) == [0.2, 0.5]
        assert table.critical_value(0.35, 0.05) == pytest.approx(
            0.5 * (table.critical_value(0.2, 0.05) + table.critical_value(0.5, 0.05))
        )

    def test_seed_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["critvals", "--reps", "1000"])
        assert exc.value.code == 2


SIM_CONFIG = """\
[cell-a]
T = 60
reps = 80
tests = tau-sb:gamma=0.7, tau-fb:b=0.3
seed = 12
"""


class TestSimulateCommand:
    def test_stdout_csv(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SIM_CONFIG)
        rc = main(["simulate", "--config", str(cfg), "--seed", "7"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# urblock ")
        assert lines[1].split(",")[0] == "T"
        assert len(lines) == 4

    def test_malformed_config_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[cell]\nT 60\nreps = 10\ntests = adf\n")
        rc = main(["simulate", "--config", str(cfg), "--seed", "7"])
        assert rc == 2
        assert "line" in capsys.readouterr().err

    def test_unknown_test_id(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[cell]\nT = 60\nreps = 10\ntests = kpss\n")
        rc = main(["simulate", "--config", str(cfg), "--seed", "7"])
        assert rc == 2
        assert "unknown test kind" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "none.cfg"), "--seed", "7"])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_thread_count_never_changes_output(self, tmp_path, run_child):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SIM_CONFIG)
        outputs = []
        for threads, sub in ((1, "one"), (4, "four")):
            cwd = tmp_path / sub
            cwd.mkdir()
            run_child(
                [
                    "-m", "urblock.cli", "simulate",
                    "--config", str(cfg),
                    "--seed", "7",
                    "--threads", str(threads),
                    "--out", "results.csv",
                ],
                cwd=cwd,
            )
            outputs.append((cwd / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]
