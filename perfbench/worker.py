"""Set-up or measured run of one benchmark workload (started by run.py).

    python perfbench/worker.py setup   --workload W --seed N --dir D --out F --seconds S
    python perfbench/worker.py measure --workload W --seed N --dir D --out F --seconds S
                                       --trace 0|1 --spans DIR

``setup`` starts from the fresh, empty directory D (also the process's
URBLOCK_TABLE_DIR): it does the imports, writes the workload's inputs and
builds every table the timed part reads, and reports how long that took
from the start of the process.  ``measure`` runs the timed operations in a
closed loop against the directory a ``setup`` prepared, checks every
output, and writes its metrics to F as JSON.  With ``--trace 1`` it runs
a fixed list of operations twice, untraced and traced, checks that both
give the same outputs and reports per-layer metrics instead.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import urblock  # noqa: E402
from urblock import baselines, cli, limits, mc, testkit  # noqa: E402
from urblock.baselines import BaselineSpec  # noqa: E402
from urblock.core import BlockScheme, UrblockError  # noqa: E402
from urblock.testkit import LagSpec, TestSpec  # noqa: E402

from tracer import ENTRY_POINTS, Tracer, aggregate, read_spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = SRC / "urblock" / "configs"
NPROC = len(os.sched_getaffinity(0))

# Seed of the fixed-size runs whose outputs must match digests.json.
DEFAULT_SEED = 1
DIGESTS = json.loads((BENCH / "digests.json").read_text())


def derive_seed(*parts) -> int:
    """A 63-bit seed that depends on every part (benchmark seed first)."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def random_walk(T: int, *seed_parts) -> np.ndarray:
    g = np.random.default_rng(derive_seed(*seed_parts))
    return np.cumsum(g.standard_normal(T))


def write_series(path: Path, y: np.ndarray) -> None:
    # %.17g round-trips every float64, so the CLI reads back exactly y.
    np.savetxt(path, y, fmt="%.17g")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def data_lines(text: str) -> str:
    """A table file without its provenance comment lines."""
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))


def run_cli(argv, table_dir, spans_dir=None):
    """One cold CLI process; returns (returncode, stdout, stderr)."""
    if spans_dir is None:
        cmd = [sys.executable, "-m", "urblock.cli", *argv]
    else:
        spans = Path(spans_dir) / f"proc{len(os.listdir(spans_dir)):05d}.npz"
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC), URBLOCK_TABLE_DIR=str(table_dir))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def cli_in_process(argv):
    """The same command run through urblock.cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


@dataclass
class OpResult:
    output: object  # compared between the untraced and the traced pass
    reps: int  # replications the operation completed
    attempted: int  # operations attempted: processes, builds or Monte Carlo cells
    failed: int
    # Test replications that a completed Monte Carlo cell dropped from its
    # rates (ExperimentResult.failures); reported, not counted as failed.
    dropped: int = 0
    seconds: float = 0.0
    table_dir: Path | None = None


# ---------------------------------------------------------------------------
# cli_oneshot


class CliOneshot:
    """Cold `urblock test` processes, one after another, over a fixed mix."""

    name = "cli_oneshot"
    whole_rounds = False
    rounds = None
    trace_rounds = 1
    # Every operation is a child process; the measuring process only waits.
    rss_children_only = True
    # (T, test arguments, spec for the in-process cross-check)
    KINDS = (
        (300, ["--test", "tau-sb"], TestSpec("small-b", BlockScheme.power_rule(0.7), LagSpec.bic(5))),
        (300, ["--test", "tau-fb"], TestSpec("fixed-b", BlockScheme.fixed_fraction(0.2), LagSpec.bic(5))),
        (10_000, ["--test", "tau-sb", "--lags", "0"], TestSpec("small-b", BlockScheme.power_rule(0.7))),
        (10_000, ["--test", "tau-fb", "--lags", "0"], TestSpec("fixed-b", BlockScheme.fixed_fraction(0.2))),
        (300, ["--test", "adf", "--lags", "1"], BaselineSpec("adf", LagSpec.fixed(1))),
        (300, ["--test", "df-gls", "--lags", "1"], BaselineSpec("df-gls", LagSpec.fixed(1))),
    )
    FORMATS = ("text", "json", "csv")
    COMBOS = len(KINDS) * len(FORMATS)

    def setup(self, seed, d: Path) -> None:
        for k, (T, _args, _spec) in enumerate(self.KINDS):
            write_series(d / f"series{k}.csv", random_walk(T, seed, "cli", k))
        for kind in ("adf", "df-gls"):
            baselines.baseline_critical_value(kind, 300, LagSpec.fixed(1), 0.05)

    def argv(self, c, d: Path):
        k = c % len(self.KINDS)
        fmt = self.FORMATS[c // len(self.KINDS)]
        return ["test", str(d / f"series{k}.csv"), *self.KINDS[k][1], "--format", fmt]

    def round(self, r):
        return list(range(self.COMBOS))

    def run(self, c, seed, d, spans_dir) -> OpResult:
        code, out, _err = run_cli(self.argv(c, d), d, spans_dir)
        return OpResult((code, out), reps=1, attempted=1, failed=0)

    def check(self, seed, d, done):
        """Each process must exit 0 and print exactly what the in-process
        CLI prints; the statistic must equal run_test/run_baseline's."""
        expected = {}
        for c in sorted({op for op, _res in done}):
            argv = self.argv(c, d)
            spec = self.KINDS[c % len(self.KINDS)][2]
            y = cli.read_series(argv[1])
            if isinstance(spec, TestSpec):
                stat = testkit.run_test(y, spec).statistic
            else:
                stat = baselines.run_baseline(y, spec, alpha=0.05).statistic
            expected[c] = (cli_in_process(argv), stat, argv[-1])
        errors = []
        for op, res in done:
            (code, out), ((want_code, want_out), stat, fmt) = res.output, expected[op]
            if fmt == "json":
                stat_ok = code == 0 and json.loads(out)["statistic"] == stat
            else:
                stat_ok = f"{stat:.6f}" in out
            if code != 0 or want_code != 0 or out != want_out or not stat_ok:
                res.failed = 1
                errors.append(f"cli op {op} ({' '.join(self.argv(op, d)[2:])}): exit {code}, output differs")
        return errors



# ---------------------------------------------------------------------------
# mc_desk, mc_grid


class MonteCarlo:
    """Passes over cells of a shipped config at reduced reps; each cell of
    each pass has its own seed, derived from the benchmark seed.  An
    operation is a whole pass or, with ``per_cell``, one cell."""

    whole_rounds = True
    rounds = None
    rss_children_only = False

    def __init__(self, name, config, cells, reps, threads, per_cell, trace_rounds):
        self.name = name
        self.reps = reps
        self.threads = threads
        self.per_cell = per_cell
        self.trace_rounds = trace_rounds
        parsed = {e[0]: e for e in mc.parse_config(str(CONFIGS / config))}
        # (name, DgpSpec, tests, alpha); reps and seed are the benchmark's.
        self.cells = [(n, parsed[n][1], parsed[n][2], parsed[n][4]) for n in cells]

    def setup(self, seed, d) -> None:
        for _name, dgp, tests, alpha in self.cells:
            baselines.warm_baseline_tables(tests, dgp.T, alpha)
        limits.default_crit_table()

    def round(self, r):
        if self.per_cell:
            return [(r, j) for j in range(len(self.cells))]
        return [(r, None)]

    def run_cells(self, seed, r, cells, reps, threads) -> OpResult:
        results, failed, dropped = [], 0, 0
        for j in cells:
            name, dgp, tests, alpha = self.cells[j]
            try:
                res = mc.run_experiment(
                    dgp, tests, reps, alpha=alpha,
                    seed=derive_seed(seed, self.name, r, j), threads=threads,
                )
            except UrblockError as exc:
                # More than 1% of the replications failed: the cell aborts.
                failed += 1
                results.append((name, str(exc)))
                continue
            # At most 1% of a test's replications raised; run_experiment
            # completes, leaves them out of the rates and reports them.
            dropped += int(res.failures.sum())
            results.append((name, res))
        ok = [(n, res) for n, res in results if not isinstance(res, str)]
        text = mc.emit_table(ok, command="perfbench") if ok else ""
        aborted = [f"{n}: {res}" for n, res in results if isinstance(res, str)]
        return OpResult(
            (text, aborted), reps=reps * len(cells), attempted=len(cells), failed=failed, dropped=dropped
        )

    def run(self, op, seed, d, spans_dir) -> OpResult:
        r, j = op
        cells = range(len(self.cells)) if j is None else [j]
        return self.run_cells(seed, r, cells, self.reps, self.threads)

    def check(self, seed, d, done):
        """Aborted cells were counted by run(); here a fixed default-seed
        run must reproduce the recorded CSV digest."""
        errors = []
        ref = self.run_cells(DEFAULT_SEED, 0, range(len(self.cells)), 40, self.threads)
        got = sha256(ref.output[0])
        if got != DIGESTS[self.name]:
            errors.append(f"{self.name}: default-seed CSV digest {got} != recorded {DIGESTS[self.name]}")
        done.append(("digest", OpResult(None, 0, 1, int(got != DIGESTS[self.name]))))
        return errors



# ---------------------------------------------------------------------------
# cold_tables


class ColdTables:
    """Every table build behind a first use, each into a fresh directory."""

    name = "cold_tables"
    # One round of six builds in every run, whatever --seconds is: a faster
    # build must not add rounds and so change what the tail sample measures.
    rounds = 1
    trace_rounds = 1
    rss_children_only = False
    T = 100
    FIXED_KINDS = ("adf", "df-gls", "df-gls-trend", "el")
    FIXED_LAG = LagSpec.fixed(1)
    CRIT_REPS = 2000

    def __init__(self):
        self.table_dirs = []

    def setup(self, seed, d) -> None:
        write_series(d / "series_T100.csv", random_walk(self.T, seed, "cold"))

    def round(self, r):
        return [(r, "bic"), *((r, k) for k in self.FIXED_KINDS), (r, "critvals")]

    def bic_argv(self, d):
        return ["test", str(d / "series_T100.csv"), "--test", "adf"]

    def crit_argv(self, seed, out):
        return ["critvals", "--seed", str(seed), "--reps", str(self.CRIT_REPS), "--out", str(out)]

    def run(self, op, seed, d, spans_dir) -> OpResult:
        _r, what = op
        if what == "bic":
            # A fresh, empty table directory for the round.
            tdir = d / f"tables{len(self.table_dirs)}"
            tdir.mkdir()
            self.table_dirs.append(tdir)
            code, out, _err = run_cli(self.bic_argv(d), tdir, spans_dir)
            return OpResult((code, out), baselines.NULL_TABLE_REPS, 1, 0, table_dir=tdir)
        tdir = self.table_dirs[-1]
        if what == "critvals":
            out = tdir / "crit.txt"
            code, _out, _err = run_cli(self.crit_argv(seed, out), tdir, spans_dir)
            text = data_lines(out.read_text()) if code == 0 else ""
            return OpResult((code, text), self.CRIT_REPS, 1, 0)
        os.environ["URBLOCK_TABLE_DIR"] = str(tdir)
        q = baselines.baseline_critical_value(what, self.T, self.FIXED_LAG, 0.05)
        return OpResult(repr(q), baselines.NULL_TABLE_REPS, 1, 0)

    def table_digest(self, tdir, labels) -> str:
        text = (tdir / baselines._BASE_FILE).read_text()
        keep = [
            ln for ln in data_lines(text).splitlines()
            if ln.split(",")[1:3] in ([str(self.T), lab] for lab in labels)
        ]
        return sha256("\n".join(keep))

    def check(self, seed, d, done):
        """The BIC process must print what the in-process CLI prints from
        the table it cached; the cached quantiles must match the recorded
        digests; the critvals file must equal an in-process build with the
        same arguments, and the default-seed build its recorded digest."""
        errors = []
        want = DIGESTS[self.name]
        for (r, what), res in done:
            if what == "bic":
                tdir = res.table_dir
                os.environ["URBLOCK_TABLE_DIR"] = str(tdir)
                ok = res.output[0] == 0 and (0, res.output[1]) == cli_in_process(self.bic_argv(d))
                got = self.table_digest(tdir, ["bic5"])
                ok, note = ok and got == want["bic"], f"bic table digest {got}"
            elif what == "critvals":
                ok, note = res.output == (0, self.expected_crit(seed, d)), "critvals file"
            else:
                got = self.table_digest(tdir, ["1"])
                ok, note = got == want["fixed"], f"fixed tables digest {got}"
            if not ok:
                res.failed = 1
                errors.append(f"cold_tables round {r}: {what} output differs ({note})")
        got = sha256(self.expected_crit(DEFAULT_SEED, d))
        if got != want["critvals"]:
            errors.append(f"cold_tables: default-seed critvals digest {got} != recorded {want['critvals']}")
        done.append(("digest", OpResult(None, 0, 1, int(got != want["critvals"]))))
        return errors

    def expected_crit(self, seed, d) -> str:
        path = d / f"crit_expected_{seed}.txt"
        if not path.exists():
            limits.build_crit_table(reps=self.CRIT_REPS, seed=seed).save(path)
        return data_lines(path.read_text())

    def table_times(self, done):
        """bic_table_s, fixed_tables_s and critvals_s of the run's round."""
        secs = {op[1]: res.seconds for op, res in done if op != "digest"}
        return {
            "bic_table_s": secs["bic"],
            "fixed_tables_s": sum(secs[k] for k in self.FIXED_KINDS),
            "critvals_s": secs["critvals"],
        }


def make_workload(name: str, trace: bool):
    if name == "cli_oneshot":
        return CliOneshot()
    if name == "mc_desk":
        return MonteCarlo(
            "mc_desk", "table3_desk.cfg", ("size-null", "power", "ar-size", "ar-power"),
            reps=300, threads=1, per_cell=False, trace_rounds=10,
        )
    if name == "mc_grid":
        # Traced at threads=1, so that no span is lost in a pool worker.
        return MonteCarlo(
            "mc_grid", "tables_full.cfg",
            (
                "zero-trend-iid-p0-T300-size",
                "trend-sharp-break-l6-T100-power",
                "trend-ar1-lstar-l6-T300-size",
                "variance-break-l4-T300-size",
                "zero-trend-ar1-p1-T100-size",
            ),
            reps=300, threads=1 if trace else NPROC, per_cell=True, trace_rounds=3,
        )
    if name == "cold_tables":
        return ColdTables()
    raise SystemExit(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# measurement


def run_ops(wl, seed, d, seconds=None, rounds=None, spans_dir=None):
    """Closed loop: each operation starts when the previous one ended.

    Runs exactly ``rounds`` rounds of operations when that is given, else
    until ``seconds`` have passed; workloads whose rounds mix unequal
    operations stop only at a round's end, so that every operation is
    equally represented.
    """
    done = []
    t0 = time.perf_counter()
    r = 0
    while True:
        for op in wl.round(r):
            t = time.perf_counter()
            res = wl.run(op, seed, d, spans_dir)
            res.seconds = time.perf_counter() - t
            done.append((op, res))
            if rounds is None and not wl.whole_rounds and time.perf_counter() - t0 >= seconds:
                break
        r += 1
        if (r >= rounds) if rounds is not None else (time.perf_counter() - t0 >= seconds):
            break
    return done, time.perf_counter() - t0


def peak_rss_mb(children_only: bool) -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children_only:
        return children / 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, children) / 1024.0


def tail(samples):
    """The highest percentile with at least ten samples beyond it; the
    maximum when a run has ten samples or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, n
    return xs[n - 11], int(100 * (n - 10) / n), n


def end_to_end(done, rss):
    timed = [res for op, res in done if op != "digest"]
    secs = [res.seconds for res in timed]
    value, pct, n = tail(secs)
    return {
        "latency_p50_ms": {"value": 1e3 * statistics.median(secs), "unit": "ms"},
        "latency_tail_ms": {"value": 1e3 * value, "unit": "ms"},
        "reps_per_s": {"value": sum(r.reps for r in timed) / sum(secs), "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }, {"tail_percentile": pct, "samples": n}


# ---------------------------------------------------------------------------
# per-module probes (traced runs only)


def median_time(fn, k):
    times = []
    for _ in range(k):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def probes(seed, d) -> dict:
    code = (
        "import time; t0 = time.perf_counter(); import urblock; "
        "t1 = time.perf_counter(); urblock.default_crit_table(); "
        "print(t1 - t0, time.perf_counter() - t1)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), URBLOCK_TABLE_DIR=str(d))
    imports, loads = [], []
    for _ in range(5):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        imports.append(float(out[0]))
        loads.append(float(out[1]))
    m = {
        "cli.import_ms": (1e3 * statistics.median(imports), "ms"),
        "limits.default_crit_table.load_ms": (1e3 * statistics.median(loads), "ms"),
    }
    for T, k in ((300, 200), (10_000, 30)):
        y = random_walk(T, seed, "probe", T)
        B_sb = BlockScheme.power_rule(0.7).resolve(T)
        B_fb = BlockScheme.fixed_fraction(0.2).resolve(T)
        m[f"testkit.tau_sb.call_us.T{T}"] = (1e6 * median_time(lambda: testkit.tau_sb(y, B_sb), k), "us")
        m[f"testkit.tau_fb.call_us.T{T}"] = (1e6 * median_time(lambda: testkit.tau_fb(y, B_fb), k), "us")
    build = median_time(lambda: limits.build_crit_table(reps=1000, seed=seed), 3)
    m["limits.build_crit_table.reps_per_s"] = (1000 / build, "1/s")

    def pool():
        with ProcessPoolExecutor(max_workers=NPROC) as ex:
            list(ex.map(abs, range(NPROC)))

    m["mc.pool_startup_ms"] = (1e3 * median_time(pool, 5), "ms")
    return m


def per_layer(spans, traced_wall, untraced_wall, failures) -> dict:
    totals, results = aggregate(spans)
    m = {}
    for name in ENTRY_POINTS:
        calls, _total, own = totals[name]
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (own, "s")
        m[f"{name}.share"] = (own / traced_wall, "ratio")
    for name in ("prewhiten.select_lag_bic", "prewhiten.fit_prewhiten"):
        m[f"{name}.total_s"] = (totals[name][1], "s")
    tests = totals["testkit.run_test"][0] + totals["baselines.run_baseline"][0]
    m["core.as_series.calls_per_test"] = (totals["core.as_series"][0] / tests if tests else 0.0, "calls/test")
    chosen = results.get("prewhiten.select_lag_bic", [])
    for p in range(6):
        m[f"prewhiten.bic_p.hist.p{p}"] = (chosen.count(p), "count")
    builds, build_s = totals["baselines.simulate_null_stats"][:2]
    m["baselines.baseline_critical_value.builds"] = (builds, "count")
    m["baselines.baseline_critical_value.hits"] = (totals["baselines.baseline_critical_value"][0] - builds, "count")
    m["baselines.baseline_critical_value.build_s"] = (build_s, "s")
    m["mc.failures"] = (failures, "count")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return m


def measure(args) -> dict:
    wl = make_workload(args.workload, bool(args.trace))
    d = Path(args.dir)
    if not args.trace:
        done, _wall = run_ops(wl, args.seed, d, seconds=args.seconds, rounds=wl.rounds)
        rss = peak_rss_mb(wl.rss_children_only)
        errors = wl.check(args.seed, d, done)
        metrics, info = end_to_end(done, rss)
        if isinstance(wl, ColdTables):
            info.update(wl.table_times(done))
        if isinstance(wl, MonteCarlo):
            info["dropped_reps"] = sum(res.dropped for _op, res in done)
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in probes(args.seed, d).items()}
        plain, plain_wall = run_ops(wl, args.seed, d, rounds=wl.trace_rounds)
        spans_dir = Path(args.spans)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_ops(wl, args.seed, d, rounds=wl.trace_rounds, spans_dir=spans_dir)
        finally:
            tracer.uninstall()
        tracer.dump(spans_dir / "measure.npz")
        errors = []
        if [res.output for _op, res in plain] != [res.output for _op, res in traced]:
            errors.append("traced outputs differ from untraced outputs")
        spans = [read_spans(p) for p in sorted(spans_dir.glob("*.npz"))]
        failures = sum(res.dropped for _op, res in traced)
        layer = per_layer(spans, traced_wall, plain_wall, failures)
        metrics.update({name: {"value": v, "unit": u} for name, (v, u) in layer.items()})
        errors += wl.check(args.seed, d, traced)
        done = plain + traced
        info = {"untraced_s": plain_wall, "traced_s": traced_wall}
    attempted = sum(res.attempted for _op, res in done)
    failed = sum(res.failed for _op, res in done)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "errors": errors,
        "provenance": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "urblock": urblock.__version__,
            "nproc": NPROC,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.mode == "setup":
        make_workload(args.workload, False).setup(args.seed, Path(args.dir))
        result = {"setup_s": time.perf_counter() - T_START}
    else:
        result = measure(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
