import gc
import sys
import warnings

import numpy as np
import pytest
from scipy.stats import norm

from oracles import fb_statistic_bruteforce, rel_err
from urblock.core import RngStream
from urblock.limits import (
    DEFAULT_ALPHA_GRID,
    CritTable,
    build_crit_table,
    default_crit_table,
    simulate_fb_statistic,
    simulate_sb_local_power,
)
from urblock import limits
from urblock.limits import _fb_functional


class TestSimulateFbStatistic:
    def test_matches_bruteforce(self):
        for b in (0.2, 0.5, 0.8):
            for c in (0.0, 5.0):
                for k in range(5):
                    rng = RngStream(321, k)
                    fast = simulate_fb_statistic(b, c, 120, RngStream(321, k))
                    slow = fb_statistic_bruteforce(b, c, 120, rng)
                    assert rel_err(fast, slow) < 1e-10, (b, c, k)

    def test_preconditions(self):
        rng = RngStream(1, 0)
        with pytest.raises(ValueError):
            simulate_fb_statistic(0.0, 0.0, 200, rng)
        with pytest.raises(ValueError):
            simulate_fb_statistic(1.0, 0.0, 200, rng)
        with pytest.raises(ValueError):
            simulate_fb_statistic(0.2, -1.0, 200, rng)
        with pytest.raises(ValueError):
            simulate_fb_statistic(0.2, 0.0, 99, rng)

    def test_zero_path_diagnosed(self):
        # A flat path makes the denominator vanish; the functional must
        # flag it loudly instead of returning a silent NaN.
        J = np.zeros(301)
        with pytest.warns(UserWarning, match="denominator"):
            out = _fb_functional(J, 0.2)
        assert out == float("-inf")
        assert not np.isnan(out)

    def test_null_median_location(self):
        tab = build_crit_table(
            b_grid=(0.2,), alpha_grid=(0.5,), grid=400, reps=20_000, seed=77
        )
        med = tab.quantiles[0, 0]
        assert -0.812 < med < 0.0

    def test_local_alternative_shifts_left(self):
        null_draws = np.array(
            [simulate_fb_statistic(0.2, 0.0, 150, RngStream(322, k)) for k in range(10_000)]
        )
        alt_draws = np.array(
            [simulate_fb_statistic(0.2, 10.0, 150, RngStream(323, k)) for k in range(10_000)]
        )
        assert np.median(alt_draws) < np.median(null_draws)

    def test_seed_relabeling_stability(self):
        # Two disjoint seed sets give 5% quantiles within 3 MC standard
        # errors of each other.
        qa = np.quantile(
            [simulate_fb_statistic(0.5, 0.0, 200, RngStream(324, k)) for k in range(4000)],
            0.05,
        )
        qb = np.quantile(
            [simulate_fb_statistic(0.5, 0.0, 200, RngStream(325, k)) for k in range(4000)],
            0.05,
        )
        assert abs(qa - qb) < 0.12


class TestBuildCritTable:
    def test_reps_floor(self):
        with pytest.raises(ValueError):
            build_crit_table(b_grid=(0.2,), grid=200, reps=500, seed=1)

    def test_quantiles_monotone_in_alpha(self):
        tab = build_crit_table(
            b_grid=(0.2, 0.5, 0.8),
            alpha_grid=DEFAULT_ALPHA_GRID,
            grid=300,
            reps=2000,
            seed=5,
        )
        # alpha grid is stored in decreasing order, so quantiles must
        # decrease along each row.
        assert np.all(np.diff(tab.quantiles, axis=1) <= 0.0)

    def test_singleton_matches_per_call_draws(self):
        grid, reps, seed, b = 200, 1000, 9, 0.3
        tab = build_crit_table(
            b_grid=(b,), alpha_grid=(0.1, 0.05), grid=grid, reps=reps, seed=seed
        )
        draws = np.array(
            [simulate_fb_statistic(b, 0.0, grid, RngStream(seed, k)) for k in range(reps)]
        )
        expected = np.quantile(draws, [0.1, 0.05])
        assert np.allclose(tab.quantiles[0], expected, atol=1e-12)

    def test_thread_count_invariance(self, tmp_path):
        kwargs = dict(b_grid=(0.2, 0.6), alpha_grid=(0.1, 0.05), grid=150, reps=1200, seed=11)
        one = build_crit_table(threads=1, **kwargs)
        three = build_crit_table(threads=3, **kwargs)
        assert np.array_equal(one.quantiles, three.quantiles)
        p1, p3 = tmp_path / "t1.txt", tmp_path / "t3.txt"
        one.save(p1, command="check")
        three.save(p3, command="check")
        assert p1.read_bytes() == p3.read_bytes()

    def test_riemann_convergence(self):
        coarse = build_crit_table(
            b_grid=(0.2,), alpha_grid=(0.05,), grid=1500, reps=20_000, seed=13
        ).quantiles[0, 0]
        fine = build_crit_table(
            b_grid=(0.2,), alpha_grid=(0.05,), grid=3000, reps=20_000, seed=13
        ).quantiles[0, 0]
        # Monte Carlo standard error of the 5% quantile by the
        # density-based delta method on the coarse sample.
        draws = np.array(
            [simulate_fb_statistic(0.2, 0.0, 1500, RngStream(13, k)) for k in range(4000)]
        )
        dens = (np.quantile(draws, 0.07) - np.quantile(draws, 0.03)) / 0.04
        se = dens * np.sqrt(0.05 * 0.95 / 20_000)
        assert abs(fine - coarse) < se, (coarse, fine, se)

    def test_save_load_roundtrip(self, tmp_path):
        tab = build_crit_table(
            b_grid=(0.2, 0.5), alpha_grid=(0.1, 0.05), grid=150, reps=1000, seed=3
        )
        path = tmp_path / "table.txt"
        tab.save(path, command="roundtrip-check")
        loaded = CritTable.load(path)
        assert np.array_equal(loaded.b_grid, tab.b_grid)
        assert np.array_equal(loaded.alpha_grid, tab.alpha_grid)
        assert np.allclose(loaded.quantiles, np.round(tab.quantiles, 6), atol=1e-12)
        assert (loaded.grid, loaded.reps, loaded.seed) == (150, 1000, 3)
        text = path.read_text().splitlines()
        assert text[0].startswith("# urblock ")
        assert "command: roundtrip-check" in text[0]
        assert text[1].startswith("urblock-crittable v1 grid=150 reps=1000 seed=3")
        assert text[2] == "b,alpha,quantile"

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\n0.2,0.05,-1.3\n")
        with pytest.raises(ValueError, match="crittable"):
            CritTable.load(path)


class TestDefaultTable:
    def test_embedded_reference_values(self):
        tab = default_crit_table()
        expected_05 = {
            0.1: -1.403, 0.2: -1.375, 0.3: -1.327, 0.4: -1.257, 0.5: -1.169,
            0.6: -1.067, 0.7: -0.939, 0.8: -0.781, 0.9: -0.573,
        }
        for b, q in expected_05.items():
            assert tab.critical_value(b, 0.05) == pytest.approx(q, abs=1e-9)
        assert tab.critical_value(0.2, 0.1) == pytest.approx(-1.128, abs=1e-9)
        assert tab.critical_value(0.5, 0.1) == pytest.approx(-0.987, abs=1e-9)
        assert tab.critical_value(0.8, 0.1) == pytest.approx(-0.664, abs=1e-9)

    def test_monotone_in_alpha(self):
        tab = default_crit_table()
        assert np.all(np.diff(tab.quantiles, axis=1) <= 0.0)

    def test_alpha_must_match_grid(self):
        with pytest.raises(ValueError, match="not tabulated"):
            default_crit_table().critical_value(0.2, 0.33)

    def test_follows_table_dir_override(self, tmp_path, monkeypatch):
        # Two override directories in one process give their own tables.
        for name, q in (("one", -2.0), ("two", -3.0)):
            d = tmp_path / name
            d.mkdir()
            CritTable(
                b_grid=np.array([0.1, 0.9]),
                alpha_grid=np.array([0.05]),
                quantiles=np.array([[q], [q]]),
                grid=100,
                reps=1000,
                seed=1,
            ).save(d / "fb_critical_values.txt")
        monkeypatch.setenv("URBLOCK_TABLE_DIR", str(tmp_path / "one"))
        assert default_crit_table().critical_value(0.2, 0.05) == -2.0
        monkeypatch.setenv("URBLOCK_TABLE_DIR", str(tmp_path / "two"))
        assert default_crit_table().critical_value(0.2, 0.05) == -3.0

    def test_packaged_table_file_is_closed(self, monkeypatch):
        monkeypatch.delenv("URBLOCK_TABLE_DIR")
        monkeypatch.setattr(limits, "_default_table_cache", None)
        # A ResourceWarning raised while an unclosed file is finalized
        # reaches sys.unraisablehook, not the caller.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            tab = default_crit_table()
            gc.collect()
        assert not unraisable
        assert tab.critical_value(0.2, 0.05) < 0


class TestSbLocalPower:
    def test_null_is_alpha(self):
        assert simulate_sb_local_power(0.0) == pytest.approx(0.05, abs=1e-12)
        assert simulate_sb_local_power(0.0, alpha=0.1) == pytest.approx(0.1, abs=1e-12)

    def test_homoskedastic_c2(self):
        val = simulate_sb_local_power(2.0, alpha=0.05)
        assert val == pytest.approx(0.5347, abs=5e-4)

    def test_heteroskedasticity_reduces_drift(self):
        def step(lam):
            return lambda r: 1.0 + lam * (r <= 2.0 / 3.0)

        powers = [
            simulate_sb_local_power(2.0, variance_fn=step(lam)) for lam in (0.0, 3.0, 6.0)
        ]
        assert powers[0] > powers[1] > powers[2]
        # analytic drift ratio for the lam = 3 step: 3/sqrt(11)
        expected = norm.cdf(norm.ppf(0.05) + 2.0 * np.sqrt(3.0) / 2.0 * 3.0 / np.sqrt(11.0))
        assert powers[1] == pytest.approx(expected, rel=1e-6)

    def test_monte_carlo_cross_check(self):
        analytic = simulate_sb_local_power(2.0)
        mc = simulate_sb_local_power(2.0, reps=400_000, rng=RngStream(326, 0))
        se = np.sqrt(analytic * (1 - analytic) / 400_000)
        assert abs(mc - analytic) < 4 * se

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError):
            simulate_sb_local_power(-1.0)
