import pytest

from clogsim import montecarlo


@pytest.fixture
def serial_pool(monkeypatch):
    """A 3-core machine whose process pool runs tasks in this process.

    Returns the list of pool sizes that sweeps ask for; no worker process
    is started, so a test may request any number of workers.
    """
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(montecarlo.multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
    return sizes
