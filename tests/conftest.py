import concurrent.futures

import pytest
from oracles import bulk_omega_oracle

from omegalab import omega_profile, sieve

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


@pytest.fixture
def prime_segment(monkeypatch):
    """Set the odd numbers per segment of sieve._prime_segments.

    base_primes' cache is emptied after each setting and at the end, so no
    array sieved at another length is read.
    """

    def set_length(length):
        monkeypatch.setattr(sieve, "_PRIME_SEGMENT", length)
        sieve.base_primes.cache_clear()

    yield set_length
    sieve.base_primes.cache_clear()
