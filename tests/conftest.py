import pytest

from psthresh._workers import WorkerPool


@pytest.fixture(scope="session")
def worker_pool():
    """Three Monte Carlo worker processes, whatever the machine's CPU
    count, so that tests can split a level three ways."""
    pool = WorkerPool(3)
    yield pool
    pool.close()
