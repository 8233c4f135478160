import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from pmtc import experiments, tensor


@pytest.fixture
def pool_recorder(monkeypatch):
    """Replace ``run_experiment``'s process pool with one that runs the jobs in
    this process, so no worker starts; return the ``max_workers`` of every
    pool asked for."""
    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recorder)
    return started


class _SubmitRecorder:
    """Stands in for this process's kernel thread: records the half of the
    result each split hands it, the thread that split and how many threads
    were fitting then, and computes the half on a one-worker pool."""

    def __init__(self, pool):
        self.pool, self.halves, self.threads, self.fitting = pool, [], [], []

    def submit(self, fn, *args):
        self.halves.append(args[2].shape)
        self.threads.append(threading.current_thread())
        self.fitting.append(len(tensor._fitting))
        return self.pool.submit(fn, *args)


@pytest.fixture
def kernel_pool(monkeypatch):
    """Two usable cores, and a recorder in place of the kernel thread."""
    monkeypatch.setattr(tensor, "usable_cores", lambda: 2)
    with ThreadPoolExecutor(1) as pool:
        recorder = _SubmitRecorder(pool)
        monkeypatch.setitem(tensor._kernel_pools, os.getpid(), recorder)
        yield recorder
