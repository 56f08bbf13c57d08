"""Shared fixtures and deliberately naive oracles.

The oracles avoid numpy and the package's own machinery so that
agreement between the two is evidence, not circularity.
"""
import os
import random

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "primelab",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("primelab")

HEAVY = os.environ.get("PRIMELAB_HEAVY_TESTS") == "1"

heavy_only = pytest.mark.skipif(
    not HEAVY, reason="set PRIMELAB_HEAVY_TESTS=1 to run")


def naive_sieve(limit: int) -> list[int]:
    """Plain bytearray sieve of Eratosthenes, no wheels, no numpy."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p::p] = bytearray(len(flags[p * p::p]))
        p += 1
    return [i for i, f in enumerate(flags) if f]


def naive_window(a: int, b: int, base: list[int]) -> list[int]:
    """Primes in [a, b), crossed off a bytearray by the primes in base,
    which must hold every prime <= isqrt(b - 1)."""
    flags = bytearray([1]) * (b - a)
    for n in range(a, min(b, 2)):
        flags[n - a] = 0
    for p in base:
        if p * p >= b:
            break
        first = max(p * p, -(-a // p) * p)
        flags[first - a::p] = bytearray(len(range(first - a, b - a, p)))
    return [a + i for i, f in enumerate(flags) if f]


def naive_is_prime(n: int) -> bool:
    """Trial division."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@pytest.fixture(scope="session")
def primes_1e6() -> list[int]:
    return naive_sieve(10**6)


@pytest.fixture(scope="session")
def prime_set_1e6(primes_1e6) -> set[int]:
    return set(primes_1e6)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
