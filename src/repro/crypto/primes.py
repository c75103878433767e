"""Prime generation for RSA key pairs: Miller-Rabin over DRBG output.

FLock generates a fresh (public, private) key pair per web-service binding
(Fig. 9 step 2), so prime generation is on the protocol's critical path and
is benchmarked as part of E8.

Two gcds screen each candidate before Miller-Rabin.  The first, with the
product of the 65 primes up to 313, stands in for trial division.  The
second is a Fermat pre-test over the primes in (313, B]: with
``g = gcd(n, their product)``, a candidate is rejected when ``g != 1`` and
``2^(n-1) mod g != 1``.  That is exact.  A base-2 strong probable prime
satisfies ``2^(n-1) = 1 (mod n)``, hence modulo every divisor of ``n``,
so each candidate the pre-test rejects would have failed the base-2
round; a prime ``n`` up to ``B`` gives ``g = n`` and passes by Fermat's
little theorem.  The base-2 round draws nothing from the DRBG, so the
verdict and the DRBG state after every call are those of trial division
followed by the base-2 round: keys, and everything drawn after them,
keep their bytes.  The pre-test turns a full-width exponentiation into a
gcd and a small one for about a third of the candidates that reach it.
"""

from __future__ import annotations

from math import gcd, prod

from .rng import HmacDrbg

__all__ = ["is_probable_prime", "generate_prime"]

#: The primes up to 313; a gcd with their product replaces trial division.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313,
)
_SMALL_PRODUCT = prod(_SMALL_PRIMES)

#: ``B``: the Fermat pre-test covers the primes in (313, B].  Chosen by
#: timing RSA-512 and RSA-1024 key generation at 3e3, 1e4 and 3e4.
_PRETEST_BOUND = 10_000
#: While ``B < 317**2``, the numbers in (313, B] with no factor up to 313
#: are exactly the primes there.
_PRETEST_PRODUCT = prod(m for m in range(_SMALL_PRIMES[-1] + 1,
                                         _PRETEST_BOUND + 1)
                        if gcd(m, _SMALL_PRODUCT) == 1)


def _strong_probable_prime(n: int, a: int, d: int, r: int) -> bool:
    """One Miller-Rabin round: is ``n`` a strong probable prime to base ``a``?"""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = pow(x, 2, n)
        if x == n - 1:
            return True
    return False


def _drbg_witnesses(n: int, rng: HmacDrbg, count: int) -> list[int]:
    """``count`` unpredictable Miller-Rabin bases in [2, n-2] from the DRBG.

    All bases come from one batched ``generate`` call (per-call overhead on
    the DRBG dwarfs the per-byte cost).  Each base is reduced
    modulo the range from 64 extra bits of DRBG output, so the bias versus
    uniform is below 2^-64 — irrelevant for witness selection, which only
    needs unpredictability relative to ``n``.
    """
    span = n - 3  # bases drawn from [2, n - 2]
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
    """Miller-Rabin primality test with ``rounds`` unpredictable witnesses.

    The first round always uses base 2: it is deterministic, costs no DRBG
    output, and eliminates virtually every composite candidate — so the
    (comparatively slow) DRBG is only consulted for candidates
    that are almost certainly prime.  The remaining ``rounds - 1`` witness
    bases are drawn from the caller's DRBG, keeping prime generation both
    cryptographically sound and bit-for-bit reproducible from the seed.
    """
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIMES
    if gcd(n, _SMALL_PRODUCT) != 1:
        return False
    g = gcd(n, _PRETEST_PRODUCT)
    if g != 1 and pow(2, n - 1, g) != 1:
        return False  # the base-2 round below would fail (module docstring)

    # Write n - 1 as d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    if not _strong_probable_prime(n, 2, d, r):
        return False
    for a in _drbg_witnesses(n, rng, rounds - 1):
        if not _strong_probable_prime(n, a, d, r):
            return False
    return True


def generate_prime(bits: int, rng: HmacDrbg) -> int:
    """Generate a random probable prime with exactly ``bits`` bits.

    The top two bits are forced to 1 so the product of two such primes has
    exactly ``2 * bits`` bits, and the bottom bit is forced so candidates are
    odd.
    """
    if bits < 16:
        raise ValueError("prime size below 16 bits is not useful")
    n_bytes = (bits + 7) // 8
    shift = n_bytes * 8 - bits
    # Draw candidates in batches: one DRBG request yields many candidates,
    # keeping the DRBG off the key-generation critical path.
    batch = max(min(32, HmacDrbg.MAX_REQUEST // n_bytes), 1)
    while True:
        block = rng.generate(batch * n_bytes)
        for i in range(batch):
            candidate = int.from_bytes(
                block[i * n_bytes:(i + 1) * n_bytes], "big") >> shift
            candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
            # 16 rounds: error < 4^-16 per candidate, and far lower still
            # for uniformly random candidates (Damgard-Landrock-Pomerance).
            if is_probable_prime(candidate, rng, rounds=16):
                return candidate
