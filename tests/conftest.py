"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings

# Radix/context fixtures parametrised into @given tests are immutable, so
# sharing them across generated examples is safe.
settings.register_profile(
    "repro",
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    deadline=None,
)
settings.load_profile("repro")

from repro.csidh.parameters import csidh_512, csidh_mini, csidh_toy
from repro.kernels.registry import cached_kernels, make_contexts


@pytest.fixture(scope="session")
def csidh512_params():
    return csidh_512()


@pytest.fixture(scope="session")
def toy_params():
    return csidh_toy()


@pytest.fixture(scope="session")
def mini_params():
    return csidh_mini()


@pytest.fixture(scope="session")
def p512(csidh512_params):
    return csidh512_params.p


@pytest.fixture(scope="session")
def kernels512(p512):
    """All generated kernels for the CSIDH-512 prime (built once)."""
    return cached_kernels(p512)


@pytest.fixture(scope="session")
def contexts512(p512):
    return make_contexts(p512)


@pytest.fixture()
def rng():
    """Fresh deterministic RNG per test."""
    return random.Random(0xD4C)


@pytest.fixture(scope="session")
def toy_kernels():
    """All kernels for the toy prime (tiny and fast to execute)."""
    from repro.csidh.parameters import csidh_toy

    return cached_kernels(csidh_toy().p)


_RUNNER_CACHE = {}


def _toy_runner_cache(kernel):
    """Session-wide KernelRunner cache for fuzzing tests."""
    from repro.kernels.runner import KernelRunner

    if kernel.name not in _RUNNER_CACHE:
        _RUNNER_CACHE[kernel.name] = KernelRunner(kernel)
    return _RUNNER_CACHE[kernel.name]
