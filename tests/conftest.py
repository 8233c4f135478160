import concurrent.futures
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from pmtc import tensor


@pytest.fixture(autouse=True)
def nothing_left_running():
    """Fail a test that leaves a thread or a child process running.  Only the
    main thread and this process's kernel thread (``tensor``'s), idle, may
    outlive a test; idle means it runs a no-op at once, not after work left
    behind."""
    yield
    kernel = tensor._kernel_pools.get(os.getpid())
    if kernel is not None:
        kernel.submit(lambda: None).result(timeout=10)
    left = [t.name for t in threading.enumerate()
            if t is not threading.main_thread() and not t.name.startswith("pmtc-kernel")]
    assert not left, f"threads left running: {left}"
    children = multiprocessing.active_children()
    assert not children, f"child processes left running: {children}"


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
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
    """Two usable cores, one BLAS thread (else the one GEMM of mode 0 and of
    the last mode stays whole), and a recorder in place of the kernel thread."""
    monkeypatch.setattr(tensor, "usable_cores", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    with ThreadPoolExecutor(1) as pool:
        recorder = _SubmitRecorder(pool)
        monkeypatch.setitem(tensor._kernel_pools, os.getpid(), recorder)
        yield recorder
