"""Shared fixtures: one calibration and one report table for the session,
a record of the worker pools a test builds, and pool workers that die."""

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
def recorded_pools(monkeypatch):
    """Lists of the keyword arguments of each worker pool built and of the
    jobs mapped onto them, filled as the pools are used."""
    built, jobs = [], []

    class RecordingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            # A test starts a few real processes at most.
            assert kwargs["max_workers"] <= 4
            super().__init__(*args, **kwargs)

        def map(self, fn, job_list, **kwargs):
            jobs.extend(job_list)
            return super().map(fn, job_list, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    return built, jobs


@pytest.fixture
def die_in_workers(monkeypatch):
    """Patches ``module.name`` to end at once any process but this one, as a
    pool worker that dies would."""
    parent = os.getpid()

    def patch(module, name):
        original = getattr(module, name)

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return original(*args)

        monkeypatch.setattr(module, name, dying)
    return patch
