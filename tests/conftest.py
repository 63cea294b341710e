"""Shared fixtures for the repro test suite.

``--iosan`` / ``--locksan`` run the whole session under the runtime
sanitizers (equivalent to ``REPRO_IOSAN=1`` / ``REPRO_LOCKSAN=1`` in the
environment, which is what CI uses so the setting reaches spawned worker
processes too).
"""

from __future__ import annotations

import pytest

from repro.models import AEMachine, CacheSim, CostCounter, MachineParams


def pytest_addoption(parser):
    parser.addoption("--iosan", action="store_true", default=False,
                     help="enable the uncharged-I/O runtime sanitizer")
    parser.addoption("--locksan", action="store_true", default=False,
                     help="enable the lock-order recorder")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a test that takes seconds rather than milliseconds"
    )
    if config.getoption("--iosan"):
        from repro.analysis import iosan

        iosan.enable()
    if config.getoption("--locksan"):
        from repro.analysis import locksan

        locksan.enable()


@pytest.fixture
def params() -> MachineParams:
    """The workhorse machine: M=64 records, B=8, omega=8."""
    return MachineParams(M=64, B=8, omega=8)


@pytest.fixture
def tiny_params() -> MachineParams:
    """A deliberately cramped machine to stress block boundaries."""
    return MachineParams(M=16, B=4, omega=4)


@pytest.fixture
def machine(params) -> AEMachine:
    return AEMachine(params)


@pytest.fixture
def cache(params) -> CacheSim:
    return CacheSim(params, policy="lru")


@pytest.fixture
def counter() -> CostCounter:
    return CostCounter()
