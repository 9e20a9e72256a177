"""Command-line interface.

Three subcommands:

- ``urblock test FILE``      run a unit root test on a CSV column
- ``urblock critvals``       simulate a fixed-b critical-value table
- ``urblock simulate``       run Monte Carlo experiments from a config

Exit codes: 0 on success, 2 on input/usage errors, 3 when the series is
degenerate for the requested test.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import shlex
import sys

import numpy as np

from . import __version__
from .core import (
    BlockScheme,
    DegenerateResiduals,
    DegenerateSeries,
    ProfileDegenerate,
    UrblockError,
)
from .limits import DEFAULT_ALPHA_GRID, DEFAULT_B_GRID, build_crit_table
from .mc import POOLED_KINDS, TEST_KINDS, _apply_test, _parse_lag, _spec_for
from .mc import emit_table, run_config
from .prewhiten import schwert_pmax
from .testkit import LagSpec

MIN_T_ABORT = 10
MIN_T_WARN = 30


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def read_series(path: str, column: str | None = None) -> np.ndarray:
    """Read one numeric column from a CSV file ('-' for stdin).

    Blank lines are skipped and a header row is auto-detected; with
    multiple columns a --column selector is required.
    """
    if path == "-":
        rows = [r for r in csv.reader(sys.stdin) if any(c.strip() for c in r)]
    else:
        try:
            with open(path, newline="") as fh:
                rows = [r for r in csv.reader(fh) if any(c.strip() for c in r)]
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")

    first = rows[0]
    if column is not None:
        names = [c.strip() for c in first]
        if column not in names:
            raise ValueError(
                f"{path}: column {column!r} not found (header: {', '.join(names)})"
            )
        idx = names.index(column)
        data = rows[1:]
    elif max(len(r) for r in rows) == 1:
        idx = 0
        data = rows if _is_number(first[0].strip()) else rows[1:]
    else:
        raise ValueError(f"{path}: multiple columns; select one with --column")

    if not data:
        raise ValueError(f"{path}: no data rows below the header")
    values = []
    for i, row in enumerate(data):
        if idx >= len(row):
            raise ValueError(f"{path}: row {i + 2} has no column {idx + 1}")
        cell = row[idx].strip()
        if not _is_number(cell):
            raise ValueError(f"{path}: non-numeric value {cell!r} in row {i + 2}")
        values.append(float(cell))
    return np.asarray(values, dtype=np.float64)


def _float_list(text: str) -> list[float]:
    vals = [float(tok) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError(f"empty list {text!r}")
    return vals


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urblock",
        description="Pooled-block unit root tests for series with unknown "
        "slowly varying trends.",
    )
    parser.add_argument(
        "--version", action="version", version=f"urblock {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run a unit root test on a data file")
    p_test.add_argument("input", help="CSV file with the series ('-' for stdin)")
    p_test.add_argument("--column", help="column name when the file has several")
    p_test.add_argument(
        "--test", choices=TEST_KINDS, default="tau-sb", dest="test_kind"
    )
    p_test.add_argument(
        "--gamma", type=float, help="blocklength exponent, B = floor(T^gamma)"
    )
    p_test.add_argument(
        "--b", type=float, help="blocklength fraction, B = floor(b*T)"
    )
    p_test.add_argument(
        "--lags",
        default="bic",
        help="lag order: an integer, 'bic', 'bicN', or 'schwert' (default: bic)",
    )
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )

    p_crit = sub.add_parser(
        "critvals", help="simulate a fixed-b critical-value table"
    )
    p_crit.add_argument("--seed", type=int, required=True)
    p_crit.add_argument("--out", default="crittable.txt")
    p_crit.add_argument(
        "--b-grid",
        type=_float_list,
        default=list(DEFAULT_B_GRID),
        help="comma-separated b values (default 0.1..0.9)",
    )
    p_crit.add_argument(
        "--alphas",
        type=_float_list,
        default=list(DEFAULT_ALPHA_GRID),
        help="comma-separated significance levels",
    )
    p_crit.add_argument("--grid", type=int, default=5000, help="path resolution")
    p_crit.add_argument("--reps", type=int, default=20000)
    p_crit.add_argument("--threads", type=int, default=1)

    p_sim = sub.add_parser("simulate", help="run Monte Carlo experiments")
    p_sim.add_argument("--config", required=True, help="experiment INI file")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--threads", type=int, default=1)
    p_sim.add_argument("--out", help="write results here instead of stdout")
    p_sim.add_argument("--format", choices=("csv", "text"), default="csv")

    return parser


def _build_test_spec(args, T: int):
    if args.gamma is not None and args.b is not None:
        raise ValueError("--gamma and --b are mutually exclusive")
    lag = _parse_lag(args.lags)
    scheme = None
    if args.test_kind in POOLED_KINDS:
        if args.gamma is not None:
            scheme = BlockScheme.power_rule(args.gamma)
        elif args.b is not None:
            scheme = BlockScheme.fixed_fraction(args.b)
    elif args.gamma is not None or args.b is not None:
        raise ValueError("--gamma/--b apply only to tau-sb and tau-fb")
    elif lag.kind == "schwert":
        lag = LagSpec.bic(schwert_pmax(T))
    return _spec_for(args.test_kind, lag, scheme)


def _print_text_report(outcome, alpha: float) -> None:
    print(f"statistic        {outcome.statistic:.6f}")
    print(f"critical value   {outcome.critical_value:.6f}  (alpha={alpha:g})")
    if outcome.p_value is not None:
        print(f"p-value          {outcome.p_value:.6f}")
    else:
        print("p-value          n/a (simulated critical values)")
    decision = "reject" if outcome.reject else "fail to reject"
    print(f"decision         {decision} the unit root at alpha={alpha:g}")
    print("diagnostics")
    for key, val in outcome.diagnostics.items():
        if key == "warnings":
            continue
        if isinstance(val, float):
            print(f"  {key} = {val:.6g}")
        else:
            print(f"  {key} = {val}")


def cmd_test(args) -> int:
    y = read_series(args.input, args.column)
    T = y.shape[0]
    if T < MIN_T_ABORT:
        raise ValueError(f"series too short: T={T} (need at least {MIN_T_ABORT})")
    if T < MIN_T_WARN:
        print(
            f"warning: T={T} is small; finite-sample behavior may be poor",
            file=sys.stderr,
        )

    outcome = _apply_test(y, _build_test_spec(args, T), args.alpha)

    for note in outcome.diagnostics.get("warnings", []):
        print(f"warning: {note}", file=sys.stderr)

    if args.format == "json":
        payload = {
            "statistic": outcome.statistic,
            "critical_value": outcome.critical_value,
            "p_value": outcome.p_value,
            "reject": outcome.reject,
            "diagnostics": outcome.diagnostics,
        }
        print(json.dumps(payload, indent=2, default=str))
    elif args.format == "csv":
        pval = "" if outcome.p_value is None else f"{outcome.p_value:.6f}"
        print("statistic,critical_value,p_value,reject,alpha")
        print(
            f"{outcome.statistic:.6f},{outcome.critical_value:.6f},"
            f"{pval},{int(outcome.reject)},{args.alpha:g}"
        )
    else:
        _print_text_report(outcome, args.alpha)
    return 0


def cmd_critvals(args, cmdline: str) -> int:
    table = build_crit_table(
        b_grid=args.b_grid,
        alpha_grid=args.alphas,
        grid=args.grid,
        reps=args.reps,
        seed=args.seed,
        threads=args.threads,
    )
    table.save(args.out, command=cmdline)
    print(f"# urblock {__version__} | command: {cmdline} | seed: {args.seed}")
    print(f"wrote {args.out}")
    return 0


def cmd_simulate(args, cmdline: str) -> int:
    results = run_config(args.config, seed=args.seed, threads=args.threads)
    text = emit_table(results, fmt=args.format, path=args.out, command=cmdline)
    if args.out:
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _provenance_argv(argv):
    """Drop --threads from the recorded command line: the thread count
    never affects results, and recording it would break byte-identical
    output across worker counts."""
    out = []
    skip = False
    for tok in argv:
        if skip:
            skip = False
        elif tok == "--threads":
            skip = True
        elif not tok.startswith("--threads="):
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    cmdline = "urblock " + shlex.join(_provenance_argv(argv))
    try:
        if args.command == "test":
            return cmd_test(args)
        if args.command == "critvals":
            return cmd_critvals(args, cmdline)
        return cmd_simulate(args, cmdline)
    except (DegenerateSeries, DegenerateResiduals, ProfileDegenerate) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UrblockError, ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
