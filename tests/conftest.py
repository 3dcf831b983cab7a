"""Shared fixtures."""

import os

import pytest

from qkdsim import session


@pytest.fixture
def forking(monkeypatch):
    """Make the engine fork at any batch of two or more blocks (one pulse
    a worker is enough) and yield the list of child pids `os.fork` gave
    the engine. Afterwards no child of this process may be left, reaped
    or not. Skips on a process with one CPU, so that no test starts more
    processes than the machine has CPUs."""
    if session._cpus() < 2:
        pytest.skip("forking needs a process with two CPUs")
    forks = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(session, "PARALLEL_MIN", 1)
    yield forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
