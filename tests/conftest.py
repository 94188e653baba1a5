"""Shared fixtures: one calibration and one report table for the session,
a record of the sweep fan-outs a test runs, and worker processes that die."""

import os
import time

import pytest

from oxpix import experiments
from oxpix.calibration import calibrate
from oxpix.experiments import ReadableWindow, table1_report


@pytest.fixture(scope="session")
def calibrated():
    result = calibrate()
    assert result.converged, f"calibration failed: {result.residuals}"
    return result


@pytest.fixture(scope="session")
def window():
    return ReadableWindow()


@pytest.fixture(scope="session")
def reports(calibrated, window):
    t0 = time.monotonic()
    table = table1_report(calibrated.oxram, calibrated.selector, window=window)
    elapsed = time.monotonic() - t0
    return table, elapsed


@pytest.fixture
def recorded_fan_outs(monkeypatch):
    """A list of the process count and the jobs of each sweep fan-out run,
    and a list of the pids of every process forked, filled as they are."""
    fan_outs, forks = [], []
    fork, fan_out = os.fork, experiments._fan_out

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def recorded(run, jobs, processes):
        # A test starts a few real processes at most.
        assert processes <= 4
        fan_outs.append((processes, list(jobs)))
        return fan_out(run, jobs, processes)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(experiments, "_fan_out", recorded)
    return fan_outs, forks


@pytest.fixture
def die_in_workers(monkeypatch):
    """Patches ``module.name`` to end at once any process but this one, as a
    worker process that dies would."""
    parent = os.getpid()

    def patch(module, name):
        original = getattr(module, name)

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return original(*args)

        monkeypatch.setattr(module, name, dying)
    return patch
