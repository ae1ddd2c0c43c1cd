"""Shared fixtures for the benchmark suite (experiments E1-E8).

Benchmarks regenerate the paper's tables; the pytest-benchmark timings
measure the *host-side* cost of simulation, while the printed reports
carry the *simulated* cycle counts that correspond to the paper's
numbers.  Run with ``pytest benchmarks/ --benchmark-only -s`` to see the
regenerated tables.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

# some benchmark modules reuse helpers from the test suite; make the
# repository root importable even under a bare `pytest benchmarks/`
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from repro.csidh.parameters import csidh_512, csidh_mini
from repro.eval.table4 import measure_table4
from repro.kernels.registry import cached_kernels


@pytest.fixture(scope="session")
def params512():
    return csidh_512()


@pytest.fixture(scope="session")
def params_mini():
    return csidh_mini()


@pytest.fixture(scope="session")
def p512(params512):
    return params512.p


@pytest.fixture(scope="session")
def kernels(p512):
    return cached_kernels(p512)


@pytest.fixture(scope="session")
def table4(p512):
    """Measured Table 4 (shared across benchmark modules)."""
    return measure_table4(p512)


@pytest.fixture()
def rng():
    return random.Random(0xBE7C)
