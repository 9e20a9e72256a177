"""Span tracer for the urblock benchmark.

The tracer measures each layer from outside the package: it wraps the
public entry points of every module and rebinds the wrapped function under
every name that an ``urblock`` module imported it as (for example both
``urblock.testkit.pooled_fit`` and ``urblock.pooled.pooled_fit``), so calls
between modules pass through the wrapper.  Nothing under ``src/`` changes.

Each call records one span (name, start, end, parent) in flat in-memory
arrays; the spans are written out once, at the end of the traced run.  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

import numpy as np

# Span name -> (module, attribute).  "Class.method" wraps a method.
ENTRY_POINTS = {
    "cli.main": ("urblock.cli", "main"),
    "core.as_series": ("urblock.core", "as_series"),
    "core.ols": ("urblock.core", "ols"),
    "core.rng_generator": ("urblock.core", "RngStream.generator"),
    "pooled.pooled_fit": ("urblock.pooled", "pooled_fit"),
    "pooled.block_stats": ("urblock.pooled", "block_stats"),
    "nuisance.sigma2_hat": ("urblock.nuisance", "sigma2_hat"),
    "nuisance.kappa2_hat": ("urblock.nuisance", "kappa2_hat"),
    "nuisance.variance_profile": ("urblock.nuisance", "variance_profile"),
    "nuisance.time_transform": ("urblock.nuisance", "time_transform"),
    "prewhiten.select_lag_bic": ("urblock.prewhiten", "select_lag_bic"),
    "prewhiten.fit_prewhiten": ("urblock.prewhiten", "fit_prewhiten"),
    "testkit.tau_sb": ("urblock.testkit", "tau_sb"),
    "testkit.tau_fb": ("urblock.testkit", "tau_fb"),
    "testkit.run_test": ("urblock.testkit", "run_test"),
    "baselines.run_baseline": ("urblock.baselines", "run_baseline"),
    "baselines.baseline_critical_value": ("urblock.baselines", "baseline_critical_value"),
    # The null-table simulation behind a baseline cache miss.
    "baselines.simulate_null_stats": ("urblock.baselines", "_simulate_null_stats"),
    "limits.default_crit_table": ("urblock.limits", "default_crit_table"),
    "limits.build_crit_table": ("urblock.limits", "build_crit_table"),
    "mc.simulate_dgp": ("urblock.mc", "simulate_dgp"),
    "mc.run_experiment": ("urblock.mc", "run_experiment"),
}

# Spans whose return values are kept (the BIC-chosen lag order).
KEEP_RESULTS = ("prewhiten.select_lag_bic",)


class Tracer:
    """Records spans of wrapped urblock entry points in one process."""

    def __init__(self):
        self.names = list(ENTRY_POINTS)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.results = {name: [] for name in KEEP_RESULTS}
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        nid = self.names.index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        kept = self.results.get(name)

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if kept is not None:
                kept.append(out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every entry point and rebind it wherever urblock imported it."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "urblock"]
        for name, (modname, attr) in ENTRY_POINTS.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def dump(self, path) -> None:
        meta = {
            "names": self.names,
            "results": {k: [int(v) for v in vals] for k, vals in self.results.items()},
        }
        with open(path, "wb") as fh:
            np.savez(
                fh,
                meta=np.array(json.dumps(meta)),
                name_id=np.frombuffer(self.name_id, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
            )


def read_spans(path) -> dict:
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        return {
            "names": meta["names"],
            "results": meta["results"],
            "name_id": data["name_id"],
            "parent": data["parent"],
            "start": data["start"],
            "end": data["end"],
        }


def aggregate(span_sets) -> tuple[dict, dict]:
    """Per span name: calls, total seconds and self seconds, summed over
    every span set (one set per traced process); plus the kept results."""
    totals = {}
    results = {}
    for spans in span_sets:
        names = spans["names"]
        nid, parent = spans["name_id"], spans["parent"]
        dur = spans["end"] - spans["start"]
        n = dur.shape[0]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        calls = np.bincount(nid, minlength=len(names))
        total = np.bincount(nid, weights=dur, minlength=len(names))
        own = np.bincount(nid, weights=self_time, minlength=len(names))
        for i, name in enumerate(names):
            c, t, s = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (c + int(calls[i]), t + float(total[i]), s + float(own[i]))
        for key, vals in spans["results"].items():
            results.setdefault(key, []).extend(vals)
    return totals, results
