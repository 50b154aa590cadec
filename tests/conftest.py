"""Fixtures for the worker processes that read text sample files."""

import os
import subprocess

import pytest

from tailtest import harness


@pytest.fixture
def workers(monkeypatch):
    """Every process started during the test, in start order."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


@pytest.fixture
def split(monkeypatch):
    """split(cores, values): that many usable cores, and one more share per
    16 * ``values`` bytes read instead of per 16 * ``harness._SPLIT``."""
    def use(cores, values=None):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        if values is not None:
            monkeypatch.setattr(harness, "_SPLIT", values)
    return use
