"""Shared fixtures."""

import concurrent.futures
import os

import pytest

from cemoments import wick


@pytest.fixture
def fake_pool(monkeypatch):
    """Swap concurrent.futures.ProcessPoolExecutor for an inline recorder.

    The engine imports the executor only where it starts a pool, so the
    patch goes on concurrent.futures itself. The fixture pins the CPUs
    the process may run on (os.sched_getaffinity, and os.cpu_count() where
    that is missing) to 4 and wick.POOL_START_S to 0, so every missing
    stratum goes to the pool, and is the list that collects each pool's
    max_workers, so pool sizing is tested without starting a process.
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
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(wick, "POOL_START_S", 0)
    return sizes
