"""Shared test configuration.

Simulated lookup tables (baseline null quantiles, fixed-b tables) are
redirected to a per-session temporary directory so test runs never read
or pollute the user's cache, while still sharing tables across tests in
one session.  Acceptance checks register one summary line each, replayed
at the end of the run.  Lag-selection checks share one panel of series
per sample size.
"""

import os

import numpy as np
import pytest
from scipy.signal import lfilter

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
