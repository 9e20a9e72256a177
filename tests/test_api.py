"""Every exported name exists, and so does every benchmark trace target.

The benchmark tracer wraps named entry points of the package; a rename or
deletion that drops one would only show up in a traced benchmark run, so
the pairs are checked here.
"""

import importlib
import importlib.util
import pathlib

import pytest

import urblock

MODULES = (
    "baselines",
    "cli",
    "core",
    "limits",
    "mc",
    "nuisance",
    "pooled",
    "prewhiten",
    "testkit",
)
TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_package_all_names_exist():
    missing = [n for n in urblock.__all__ if not hasattr(urblock, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"urblock.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_tracer_entry_points_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for span, (modname, attr) in tracer.ENTRY_POINTS.items():
        target = importlib.import_module(modname)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(span)
    assert not missing
