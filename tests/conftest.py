"""Fixtures shared by the test modules."""

import signal

import pytest


@pytest.fixture
def deadline():
    """Fail a test that runs longer than a few seconds (POSIX only)."""
    if not hasattr(signal, "SIGALRM"):
        pytest.skip("needs signal.SIGALRM")

    def expire(signum, frame):
        raise TimeoutError("ran out of its time budget")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
