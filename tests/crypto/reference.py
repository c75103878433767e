"""The trial-division Miller–Rabin test that ``is_probable_prime`` replaced.

Trial division by the 65 primes up to 313, then a base-2 strong-probable-
prime round, then ``rounds - 1`` bases drawn from the caller's DRBG in one
batched ``generate`` call.  ``repro.crypto.primes.is_probable_prime`` must
give the same verdict and leave the DRBG in the same state for every
``n``; ``test_primes_oracle.py`` holds it to that.  Keep it simple: it is
the specification, not an implementation to optimize.
"""

from __future__ import annotations

from repro.crypto import HmacDrbg

SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313,
)


def strong_probable_prime(n: int, a: int, d: int, r: int) -> bool:
    """One Miller–Rabin round: is ``n`` a strong probable prime to base ``a``?"""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = pow(x, 2, n)
        if x == n - 1:
            return True
    return False


def drbg_witnesses(n: int, rng: HmacDrbg, count: int) -> list[int]:
    """``count`` bases in [2, n-2], each from ``len(n) + 8`` DRBG bytes."""
    span = n - 3
    n_bytes = (n.bit_length() + 7) // 8 + 8
    witnesses: list[int] = []
    remaining = count
    per_call = max(HmacDrbg.MAX_REQUEST // n_bytes, 1)
    while remaining > 0:
        m = min(remaining, per_call)
        block = rng.generate(m * n_bytes)
        for i in range(m):
            x = int.from_bytes(block[i * n_bytes:(i + 1) * n_bytes], "big")
            witnesses.append(2 + x % span)
        remaining -= m
    return witnesses


def is_probable_prime(n: int, rng: HmacDrbg, rounds: int = 40) -> bool:
    """Trial division, then base 2, then ``rounds - 1`` DRBG bases."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if not strong_probable_prime(n, 2, d, r):
        return False
    for a in drbg_witnesses(n, rng, rounds - 1):
        if not strong_probable_prime(n, a, d, r):
            return False
    return True
