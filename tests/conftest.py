"""Fixtures shared by the test modules."""

import os

import pytest

from breatherlab import spectral as sp


@pytest.fixture
def one_core(monkeypatch):
    """One usable core: spies count calls in this process, and on one core
    every sweep sample runs here."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture
def one_blas_thread(monkeypatch):
    """BLAS known to run one thread, as under the package's pin: the phase
    sweep pools only then, whatever loaded numpy first in the test process."""
    monkeypatch.setattr(sp, "_ONE_BLAS_THREAD", True)
