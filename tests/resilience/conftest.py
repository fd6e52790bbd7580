"""Chaos-suite fixtures: fault plans are always uninstalled afterwards."""

from __future__ import annotations

import pytest

import repro
from repro import resilience


@pytest.fixture
def fault_plan():
    """Install a fault plan for one test, restoring the previous one."""
    installed = []

    def _install(plan):
        installed.append(repro.configure(fault_plan=plan))
        return resilience.get_injector()

    yield _install
    for prev in reversed(installed):
        repro.configure(**prev)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """No chaos test may leak an active plan into the rest of the suite."""
    yield
    assert resilience.get_injector() is None, "test leaked an active fault plan"
