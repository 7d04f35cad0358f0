import concurrent.futures

import pytest
from oracles import bulk_omega_oracle

from omegalab import omega_profile

ORACLE_LIMIT = 10**6 + 1


@pytest.fixture(scope="session")
def omega_to_1e6():
    """Trial-division Omega(n) for 1 <= n <= ORACLE_LIMIT, at index n - 1."""
    return bulk_omega_oracle(1, ORACLE_LIMIT + 1)


@pytest.fixture(scope="session")
def profile_1e4():
    return omega_profile(10**4)


@pytest.fixture(scope="session")
def profile_1e6():
    return omega_profile(10**6, workers=4)


@pytest.fixture(scope="session")
def profile_1e8():
    return omega_profile(10**8, workers=8)


@pytest.fixture
def serial_pool(monkeypatch):
    """ProcessPoolExecutor replaced by a pool that maps in this process.

    Returns the list of max_workers each pool was asked for; no process starts.
    """
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes
