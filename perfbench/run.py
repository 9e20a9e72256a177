"""The urblock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see BENCHMARK.json):
cli_oneshot, mc_desk, mc_grid, cold_tables.  Each run works in its own
fresh directories under ``.perfbench/`` in the checkout (deleted at the
end, apart from the traces and the result files) and runs the workload in
fresh processes:

1. set-up processes, each from a fresh, empty table directory (three with
   ``--trace 0``, whose median is ``setup_s``; one with ``--trace 1``);
2. one measuring process against the tables and inputs the last set-up
   left, which loops over the workload's operations for ``--seconds``
   seconds and checks every output (see worker.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it report every metric by name and unit with the run's
provenance; the same report is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_oneshot", "mc_desk", "mc_grid", "cold_tables")
SETUPS = 3
# Generous per-process limit; a run normally ends in well under a minute.
PROCESS_TIMEOUT_S = 170


def src_lines() -> int:
    """Line count of the package's Python sources."""
    return sum(p.read_bytes().count(b"\n") for p in (SRC / "urblock").rglob("*.py"))


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def worker(mode: str, args, table_dir: Path, out: Path, extra=()) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--dir", str(table_dir), "--out", str(out), "--seconds", str(args.seconds), *extra,
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC), URBLOCK_TABLE_DIR=str(table_dir))
    proc = subprocess.run(cmd, env=env, timeout=PROCESS_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process for {args.workload} exited with {proc.returncode}")
    return json.loads(out.read_text())


def report(result: dict, setup: list[float]) -> list[str]:
    metrics, info = result["metrics"], result["info"]
    lines = []
    if "setup_s" in metrics:
        lines.append(f"setup_s            {metrics['setup_s']['value']:.4f} s   (median of {len(setup)} set-ups)")
        for name in ("latency_p50_ms", "latency_tail_ms", "reps_per_s", "peak_rss_mb"):
            m = metrics[name]
            note = ""
            if name == "latency_tail_ms":
                note = f"   (p{info['tail_percentile']} of {info['samples']} operations)"
            lines.append(f"{name:<18} {m['value']:.4f} {m['unit']}{note}")
        for name in ("bic_table_s", "fixed_tables_s", "critvals_s"):
            value = f"{info[name]:.4f} s" if name in info else "n/a (cold_tables only)"
            lines.append(f"{name:<18} {value}")
    else:
        for name, m in metrics.items():
            lines.append(f"{name:<48} {m['value']:.6g} {m['unit']}")
        lines.append(f"{'trace: untraced / traced pass':<48} {info['untraced_s']:.4f} s / {info['traced_s']:.4f} s")
    share = result["failed"] / result["attempted"]
    lines.append(f"{'failed_share':<18} {share:.6g} ratio   ({result['failed']} of {result['attempted']})")
    if "dropped_reps" in info:
        lines.append(f"{'dropped_reps':<18} {info['dropped_reps']} count   (test replications left out of the rates)")
    for err in result["errors"]:
        lines.append(f"check failed: {err}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "urblock" / "__init__.py").is_file():
        print(f"error: no urblock sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    state = ROOT / ".perfbench"
    work = state / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        work.mkdir(parents=True)
        setup = []
        for i in range(SETUPS if not args.trace else 1):
            table_dir = work / f"setup{i}"
            table_dir.mkdir()
            setup.append(worker("setup", args, table_dir, work / f"setup{i}.json")["setup_s"])
        extra = ["--trace", str(args.trace)]
        if args.trace:
            spans = state / "traces" / tag
            shutil.rmtree(spans, ignore_errors=True)
            spans.mkdir(parents=True)
            extra += ["--spans", str(spans)]
        result = worker("measure", args, table_dir, work / "measure.json", extra)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        for empty in (state / "work", state):
            if empty.is_dir() and not any(empty.iterdir()):
                empty.rmdir()

    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        result["info"]["setup_samples_s"] = setup
    result["provenance"].update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_commit": git_commit(),
            "src_lines": src_lines(),
            "command": " ".join([Path(sys.executable).name, *sys.argv]),
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
    )
    text = report(result, setup)
    text.append("provenance " + json.dumps(result["provenance"], sort_keys=True))
    results_dir = state / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("\n".join(text))
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
