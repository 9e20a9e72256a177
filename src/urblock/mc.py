"""Monte Carlo harness: trend shapes, DGPs, experiment runner, emitters.

Replications are deterministic and order-independent: replication ``k``
of an experiment draws from the dedicated stream ``RngStream(seed, k)``,
and results are assembled by replication index, so the same seed yields
byte-identical output for any ``threads`` setting.

Baseline critical values are looked up once per cell, in the parent.
Each draw is whitened once per lag rule; the pooled tests of that rule
share its lag order, whitened series and prefix sums, and a whitening
error counts against each of them, as if each had whitened alone.

Experiment configs use INI syntax (configparser)::

    [size-T300]
    T = 300
    rho = 1.0
    trend = zero            ; or: sharp-break 6
    errors = iid            ; or: ar1 0.5
    variance = const        ; or: step-break 2
    init_sd = 0
    reps = 10000
    alpha = 0.05
    tests = tau-sb:gamma=0.7, tau-fb:b=0.2, adf
    ; seed = 7              ; optional, overrides the run-level seed

Test ids are colon-separated: a kind (tau-sb, tau-fb, adf, df-gls,
df-gls-trend, el) followed by optional settings ``gamma=``/``b=``/``B=``
(blocklength scheme, pooled tests only) and ``p=`` (lag order: an
integer, ``bic`` / ``bicN`` for BIC with cap 5 / N, or ``schwert``).
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import io
from dataclasses import dataclass, field

import numpy as np

from .baselines import BASELINE_KINDS, BaselineSpec, run_baseline, warm_baseline_tables
from .core import BlockScheme, RngStream, UrblockError, chunked_map
from .limits import default_crit_table
from .testkit import LagSpec, TestOutcome, TestSpec, evaluate, run_test, whiten

__all__ = [
    "TREND_KINDS",
    "TrendSpec",
    "ErrorSpec",
    "VarianceSpec",
    "DgpSpec",
    "ExperimentResult",
    "trend_value",
    "simulate_dgp",
    "run_experiment",
    "parse_test_id",
    "parse_config",
    "run_config",
    "emit_table",
    "RESULT_COLUMNS",
]

TREND_KINDS = (
    "zero",
    "sharp-break",
    "u-shaped-break",
    "continuous-break",
    "u-shaped-intercept",
    "lstar",
    "offsetting-lstar",
    "triangular",
    "fourier",
)

POOLED_KINDS = ("tau-sb", "tau-fb")
TEST_KINDS = POOLED_KINDS + BASELINE_KINDS

AR_BURN_IN = 100
BIC_DEFAULT_PMAX = 5
MAX_FAILURE_SHARE = 0.01

RESULT_COLUMNS = (
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


@dataclass(frozen=True)
class TrendSpec:
    """A deterministic trend d(r) on [0,1], scaled by lam."""

    kind: str = "zero"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in TREND_KINDS:
            raise ValueError(f"unknown trend kind {self.kind!r}")
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")


@dataclass(frozen=True)
class ErrorSpec:
    kind: str = "iid"  # "iid" or "ar1"
    coef: float = 0.0

    def __post_init__(self):
        if self.kind not in ("iid", "ar1"):
            raise ValueError(f"unknown error model {self.kind!r}")
        if self.kind == "ar1" and not abs(self.coef) < 1.0:
            raise ValueError(f"AR(1) coefficient must satisfy |a| < 1, got {self.coef}")


@dataclass(frozen=True)
class VarianceSpec:
    """Innovation variance path sigma^2(r); the step form is
    1 + lam * 1{r <= 2/3}."""

    kind: str = "const"  # "const" or "step-break"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("const", "step-break"):
            raise ValueError(f"unknown variance model {self.kind!r}")
        if self.lam < 0:
            raise ValueError(f"variance lambda must be >= 0, got {self.lam}")

    def value(self, r):
        r = np.asarray(r, dtype=np.float64)
        if self.kind == "const":
            out = np.ones_like(r)
        else:
            out = 1.0 + self.lam * (r <= 2.0 / 3.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class DgpSpec:
    """y_t = d(t/T) + x_t with x_t = rho x_{t-1} + u_t."""

    T: int
    rho: float = 1.0
    trend: TrendSpec = field(default_factory=TrendSpec)
    errors: ErrorSpec = field(default_factory=ErrorSpec)
    variance: VarianceSpec = field(default_factory=VarianceSpec)
    init_sd: float = 0.0

    def __post_init__(self):
        if self.T < 4:
            raise ValueError(f"T must be >= 4, got {self.T}")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must lie in (0,1], got {self.rho}")
        if self.init_sd < 0:
            raise ValueError(f"init_sd must be >= 0, got {self.init_sd}")


def trend_value(spec: TrendSpec, r):
    """Evaluate the trend at fraction(s) r in [0,1]."""
    r = np.asarray(r, dtype=np.float64)
    lam = spec.lam
    kind = spec.kind
    if kind == "zero":
        out = np.zeros_like(r)
    elif kind == "sharp-break":
        out = lam * (r <= 2.0 / 3.0)
    elif kind == "u-shaped-break":
        out = lam * (r <= 0.25) + lam * (r > 0.75)
    elif kind == "continuous-break":
        out = lam * (4.0 * r - 8.0 / 3.0) * (r > 2.0 / 3.0)
    elif kind == "u-shaped-intercept":
        out = lam * (
            r * (r <= 0.25)
            + (r - 1.0) * ((r > 0.25) & (r <= 0.75))
            + r * (r > 0.75)
        )
    elif kind == "lstar":
        out = lam / (1.0 + np.exp(20.0 * (r - 0.75)))
    elif kind == "offsetting-lstar":
        out = lam / (1.0 + np.exp(20.0 * (r - 0.2))) - 0.5 * lam / (
            1.0 + np.exp(20.0 * (r - 0.75))
        )
    elif kind == "triangular":
        out = lam * (2.0 * r * (r <= 0.5) + 2.0 * (1.0 - r) * (r > 0.5))
    elif kind == "fourier":
        out = lam * 0.5 * np.cos(2.0 * np.pi * r)
    else:
        raise ValueError(f"unknown trend kind {kind!r}")
    return out if out.ndim else float(out)


def simulate_dgp(spec: DgpSpec, rng) -> np.ndarray:
    """Draw one series.

    The draw order is fixed (x0 first, then the AR(1) error burn-in if
    any, then the T sample innovations) so that a given stream always
    yields the same series.  AR(1) errors start from a stationary draw
    with the pre-sample variance sigma^2(0) and run through a burn-in of
    100 observations.
    """
    from scipy.signal import lfilter
    g = rng.generator() if isinstance(rng, RngStream) else rng
    T = spec.T

    x0 = spec.init_sd * g.standard_normal()

    u_init = 0.0
    if spec.errors.kind == "ar1":
        a = spec.errors.coef
        sig0 = float(np.sqrt(spec.variance.value(0.0)))
        u0 = g.standard_normal() * sig0 / np.sqrt(1.0 - a * a)
        eps_burn = g.standard_normal(AR_BURN_IN) * sig0
        u_burn, _ = lfilter([1.0], [1.0, -a], eps_burn, zi=np.array([a * u0]))
        u_init = float(u_burn[-1])

    r = np.arange(1, T + 1, dtype=np.float64) / T
    eps = g.standard_normal(T) * np.sqrt(spec.variance.value(r))

    if spec.errors.kind == "ar1":
        a = spec.errors.coef
        u, _ = lfilter([1.0], [1.0, -a], eps, zi=np.array([a * u_init]))
    else:
        u = eps

    if spec.rho == 1.0:
        x = x0 + np.cumsum(u)
    else:
        x, _ = lfilter([1.0], [1.0, -spec.rho], u, zi=np.array([spec.rho * x0]))

    return trend_value(spec.trend, r) + x


# ---------------------------------------------------------------------------
# experiment runner


@dataclass
class ExperimentResult:
    dgp: DgpSpec
    test_labels: tuple
    alpha: float
    reps: int
    seed: int
    rates: np.ndarray
    ses: np.ndarray
    failures: np.ndarray


_TEST_ERRORS = (UrblockError, np.linalg.LinAlgError)


def _apply_test(y, spec, alpha) -> TestOutcome:
    """One test on one series at level alpha, from scratch."""
    if isinstance(spec, BaselineSpec):
        return run_baseline(y, spec, alpha=alpha)
    return run_test(y, dataclasses.replace(spec, alpha=alpha))


def _whiten_or_error(y, lag):
    try:
        return whiten(y, lag)
    except _TEST_ERRORS as exc:
        return exc


def _experiment_chunk(dgp, tests, crits, alpha, seed, lo, hi) -> np.ndarray:
    """Decisions of draws lo..hi-1: 1 reject, 0 accept, -1 the test raised.
    ``crits`` holds each baseline's critical value (None for the others)."""
    tests = [
        s if isinstance(s, BaselineSpec) else dataclasses.replace(s, alpha=alpha)
        for s in tests
    ]
    out = np.full((hi - lo, len(tests)), -1, dtype=np.int8)
    for k in range(lo, hi):
        y = simulate_dgp(dgp, RngStream(seed, k))
        whitened = {}
        for j, spec in enumerate(tests):
            try:
                if isinstance(spec, BaselineSpec):
                    outcome = run_baseline(y, spec, alpha, critical_value=crits[j])
                else:
                    w = whitened.get(spec.lag)
                    if w is None:
                        w = whitened[spec.lag] = _whiten_or_error(y, spec.lag)
                    if isinstance(w, Exception):
                        continue
                    outcome = evaluate(w, spec)
            except _TEST_ERRORS:
                continue
            out[k - lo, j] = 1 if outcome.reject else 0
    return out


def run_experiment(
    dgp: DgpSpec,
    tests,
    reps: int,
    alpha: float = 0.05,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentResult:
    """Rejection rates of ``tests`` over ``reps`` series drawn from ``dgp``.

    Aborts if any test fails (raises) on more than 1% of replications;
    isolated failures are excluded from the rate.
    """
    tests = list(tests)
    if not tests:
        raise ValueError("no tests given")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    for spec in tests:
        if not isinstance(spec, (TestSpec, BaselineSpec)):
            raise TypeError(f"unsupported test spec {spec!r}")

    # Materialize lookup tables in the parent so workers only read.
    crits = warm_baseline_tables(tests, dgp.T, alpha)
    if any(isinstance(s, TestSpec) and s.variant == "fixed-b" for s in tests):
        default_crit_table()

    if threads > 1:
        import scipy.signal  # noqa: F401 -- workers inherit it from the fork
    rejections = chunked_map(
        _experiment_chunk, reps, threads, dgp, tests, crits, alpha, seed
    )

    labels, rates, ses, fails = [], [], [], []
    for j, spec in enumerate(tests):
        col = rejections[:, j]
        valid = col >= 0
        n_ok = int(valid.sum())
        n_bad = reps - n_ok
        if n_bad > MAX_FAILURE_SHARE * reps:
            raise UrblockError(
                f"test {spec.label()} failed on {n_bad}/{reps} replications"
            )
        rate = float(col[valid].mean()) if n_ok else float("nan")
        se = float(np.sqrt(rate * (1.0 - rate) / n_ok)) if n_ok else float("nan")
        labels.append(spec.label())
        rates.append(rate)
        ses.append(se)
        fails.append(n_bad)

    return ExperimentResult(
        dgp=dgp,
        test_labels=tuple(labels),
        alpha=alpha,
        reps=reps,
        seed=seed,
        rates=np.array(rates),
        ses=np.array(ses),
        failures=np.array(fails, dtype=int),
    )


# ---------------------------------------------------------------------------
# test-id and config grammars


def _parse_lag(token: str) -> LagSpec:
    if token == "schwert":
        return LagSpec.schwert()
    if token.startswith("bic"):
        tail = token[3:]
        p_max = int(tail) if tail else BIC_DEFAULT_PMAX
        return LagSpec.bic(p_max)
    return LagSpec.fixed(int(token))


def _spec_for(kind: str, lag: LagSpec, scheme: BlockScheme | None = None):
    """The spec of one test kind.  The pooled tests default to the
    blocklength T^0.7 (tau-sb) or 0.2T (tau-fb); baselines take none."""
    if kind in POOLED_KINDS:
        if scheme is None:
            scheme = (
                BlockScheme.power_rule(0.7)
                if kind == "tau-sb"
                else BlockScheme.fixed_fraction(0.2)
            )
        variant = "small-b" if kind == "tau-sb" else "fixed-b"
        return TestSpec(variant=variant, scheme=scheme, lag=lag)
    return BaselineSpec(kind=kind, lag=lag)


def parse_test_id(text: str):
    """Parse a test id like ``tau-sb:gamma=0.7:p=bic5`` into a spec."""
    parts = [p.strip() for p in text.strip().split(":") if p.strip()]
    if not parts:
        raise ValueError("empty test id")
    kind = parts[0]
    opts = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"malformed test option {part!r} in {text!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        if key in opts:
            raise ValueError(f"duplicate option {key!r} in {text!r}")
        opts[key] = val.strip()

    lag = _parse_lag(opts.pop("p", "0"))
    if kind not in TEST_KINDS:
        raise ValueError(f"unknown test kind {kind!r}")
    scheme = None
    if kind in POOLED_KINDS:
        if len([k for k in ("gamma", "b", "B") if k in opts]) > 1:
            raise ValueError(f"conflicting blocklength settings in {text!r}")
        if "gamma" in opts:
            scheme = BlockScheme.power_rule(float(opts.pop("gamma")))
        elif "b" in opts:
            scheme = BlockScheme.fixed_fraction(float(opts.pop("b")))
        elif "B" in opts:
            scheme = BlockScheme.explicit(int(opts.pop("B")))
    if opts:
        raise ValueError(f"unknown test options {sorted(opts)} in {text!r}")
    return _spec_for(kind, lag, scheme)


def _parse_trend(text: str) -> TrendSpec:
    parts = text.split()
    if parts[0] == "zero":
        if len(parts) > 1:
            raise ValueError("zero trend takes no lambda")
        return TrendSpec()
    if len(parts) != 2:
        raise ValueError(f"trend must be 'zero' or '<kind> <lambda>', got {text!r}")
    return TrendSpec(kind=parts[0], lam=float(parts[1]))


def _parse_errors(text: str) -> ErrorSpec:
    parts = text.split()
    if parts[0] == "iid":
        if len(parts) > 1:
            raise ValueError("iid errors take no coefficient")
        return ErrorSpec()
    if parts[0] == "ar1" and len(parts) == 2:
        return ErrorSpec(kind="ar1", coef=float(parts[1]))
    raise ValueError(f"errors must be 'iid' or 'ar1 <coef>', got {text!r}")


def _parse_variance(text: str) -> VarianceSpec:
    parts = text.split()
    if parts[0] == "const":
        if len(parts) > 1:
            raise ValueError("const variance takes no lambda")
        return VarianceSpec()
    if parts[0] == "step-break" and len(parts) == 2:
        return VarianceSpec(kind="step-break", lam=float(parts[1]))
    raise ValueError(f"variance must be 'const' or 'step-break <lam>', got {text!r}")


_CONFIG_KEYS = {
    "t",
    "rho",
    "trend",
    "errors",
    "variance",
    "init_sd",
    "reps",
    "alpha",
    "tests",
    "seed",
}


def parse_config(source) -> list:
    """Parse an experiment config (path, file object, or INI text).

    Returns a list of (name, DgpSpec, tests, reps, alpha, seed-or-None).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if hasattr(source, "read") and not isinstance(source, (str, bytes)):
        parser.read_file(source)
    elif isinstance(source, str) and "\n" in source:
        parser.read_string(source)
    else:
        read = parser.read(source)
        if not read:
            raise FileNotFoundError(f"config file not found: {source}")

    experiments = []
    for name in parser.sections():
        section = parser[name]
        unknown = set(section) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"[{name}] has unknown keys: {sorted(unknown)}")
        if "t" not in section or "reps" not in section or "tests" not in section:
            raise ValueError(f"[{name}] must set T, reps, and tests")
        dgp = DgpSpec(
            T=section.getint("t"),
            rho=section.getfloat("rho", 1.0),
            trend=_parse_trend(section.get("trend", "zero")),
            errors=_parse_errors(section.get("errors", "iid")),
            variance=_parse_variance(section.get("variance", "const")),
            init_sd=section.getfloat("init_sd", 0.0),
        )
        tests = [
            parse_test_id(tok)
            for tok in section.get("tests").split(",")
            if tok.strip()
        ]
        if not tests:
            raise ValueError(f"[{name}] has an empty tests list")
        seed = section.getint("seed") if "seed" in section else None
        experiments.append(
            (name, dgp, tests, section.getint("reps"), section.getfloat("alpha", 0.05), seed)
        )
    if not experiments:
        raise ValueError("config defines no experiments")
    return experiments


def run_config(source, seed: int, threads: int = 1) -> list:
    """Run every experiment in a config; returns [(name, ExperimentResult)].

    Experiments without their own ``seed`` key share the run-level seed,
    so cells that differ only in their test list reuse the same draws.
    """
    results = []
    for name, dgp, tests, reps, alpha, exp_seed in parse_config(source):
        use_seed = seed if exp_seed is None else exp_seed
        results.append(
            (name, run_experiment(dgp, tests, reps, alpha=alpha, seed=use_seed, threads=threads))
        )
    return results


# ---------------------------------------------------------------------------
# emitters


def _result_rows(result: ExperimentResult):
    d = result.dgp
    for label, rate, se in zip(result.test_labels, result.rates, result.ses):
        yield (
            str(d.T),
            f"{d.rho:g}",
            d.trend.kind,
            f"{d.trend.lam:g}",
            d.errors.kind,
            f"{d.errors.coef:g}",
            d.variance.kind,
            f"{d.variance.lam:g}",
            f"{d.init_sd:g}",
            label,
            f"{result.alpha:g}",
            str(result.reps),
            f"{rate:.6f}",
            f"{se:.6f}",
            str(result.seed),
        )


def emit_table(results, fmt: str = "csv", path=None, command: str = "api") -> str:
    """Render experiment results as CSV or an aligned text table.

    ``results`` is an ExperimentResult or a list of (name, result) pairs.
    The output starts with a provenance comment and is byte-stable for a
    given seed, independent of thread count.
    """
    from . import __version__

    if isinstance(results, ExperimentResult):
        results = [("experiment", results)]
    if fmt not in ("csv", "text"):
        raise ValueError(f"format must be 'csv' or 'text', got {fmt!r}")

    buf = io.StringIO()
    seeds = sorted({res.seed for _name, res in results})
    seed_txt = ",".join(str(s) for s in seeds)
    buf.write(f"# urblock {__version__} | command: {command} | seed: {seed_txt}\n")
    rows = []
    for _name, res in results:
        rows.extend(_result_rows(res))

    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        writer.writerows(rows)
    else:
        widths = [
            max(len(col), *(len(r[i]) for r in rows)) if rows else len(col)
            for i, col in enumerate(RESULT_COLUMNS)
        ]
        header = "  ".join(c.ljust(w) for c, w in zip(RESULT_COLUMNS, widths))
        buf.write(header.rstrip() + "\n")
        for row in rows:
            line = "  ".join(v.ljust(w) for v, w in zip(row, widths))
            buf.write(line.rstrip() + "\n")

    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
