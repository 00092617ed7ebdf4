"""Shared fixtures."""

import os
from concurrent.futures import Future

import pytest


@pytest.fixture
def fake_pool(monkeypatch):
    """Swap a module's ProcessPoolExecutor for an inline recorder.

    Calling the fixture with a module patches it, pins os.cpu_count() to 4
    and returns the list that collects each pool's max_workers, so pool
    sizing is tested without starting a process.
    """
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    def install(module):
        monkeypatch.setattr(module, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        return sizes

    return install
