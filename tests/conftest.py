"""Shared test configuration.

Simulated lookup tables (baseline null quantiles, fixed-b tables) are
redirected to a per-session temporary directory so test runs never read
or pollute the user's cache, while still sharing tables across tests in
one session.  Acceptance checks register one summary line each, replayed
at the end of the run.  Lag-selection checks share one panel of series
per sample size.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.signal import lfilter

import urblock
from urblock.core import RngStream
from urblock.testkit import TestOutcome, TestSpec

# Library classes whose names look like test containers to the collector.
TestSpec.__test__ = False
TestOutcome.__test__ = False

ACCEPTANCE_LINES = []


def record_acceptance(name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {name} {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


@pytest.fixture(scope="session", autouse=True)
def hermetic_table_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables")
    old = os.environ.get("URBLOCK_TABLE_DIR")
    os.environ["URBLOCK_TABLE_DIR"] = str(path)
    yield str(path)
    if old is None:
        os.environ.pop("URBLOCK_TABLE_DIR", None)
    else:
        os.environ["URBLOCK_TABLE_DIR"] = old


@pytest.fixture
def run_child():
    """Run a fresh Python interpreter on ``args``; its standard output.

    The child may run in another directory, where a relative PYTHONPATH
    entry does not resolve: put the imported package's directory first.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(urblock.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)

    def run(args, cwd=None) -> str:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def bic_panels():
    """T -> (1000, T) series for lag-selection checks: 500 random walks,
    then 500 walks with AR(1) innovations (coefficient 0.5)."""
    panels = {}
    for T in (60, 100, 300):
        eps = RngStream(9100, T).generator().standard_normal((1000, T))
        eps[500:] = lfilter([1.0], [1.0, -0.5], eps[500:], axis=1)
        panels[T] = np.cumsum(eps, axis=1)
    return panels
