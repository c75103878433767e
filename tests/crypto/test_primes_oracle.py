"""``is_probable_prime`` against the trial-division test it replaced.

The library screens candidates with two gcds instead of trial division,
and rejects a candidate whose factors in (313, B] already make the
base-2 round fail.  ``reference.py`` keeps the trial-division loop.  For
every ``n`` below, both must give the same verdict *and* leave their DRBGs
in the same state, since key generation draws its next candidate from the
stream the witnesses came from.
"""

import math
import random

import pytest

from repro.crypto import HmacDrbg, is_probable_prime
from repro.crypto.primes import _PRETEST_BOUND

from . import reference

#: Base-2 strong pseudoprimes whose prime factors all exceed 313, with
#: their factors.  The composite Mersenne numbers 2^p - 1 (p prime) are
#: base-2 strong pseudoprimes.  The first five have a factor in
#: (313, B], which the pre-test finds and must still fall through on; the
#: last two have none, so the pre-test's gcd is 1.
PSEUDOPRIMES = {
    2**43 - 1: (431, 9719, 2099863),
    2**47 - 1: (2351, 4513, 13264529),
    2**53 - 1: (6361, 69431, 20394401),
    2**73 - 1: (439, 2298041, 9361973132609),
    2**113 - 1: (3391, 23279, 65993, 1868569, 1066818132868207),
    2**59 - 1: (179951, 3203431780337),
    2**67 - 1: (193707721, 761838257287),
}


def _state(rng: HmacDrbg) -> tuple[bytes, bytes]:
    return rng._key, rng._value


def _assert_agree(numbers, rounds: int = 40) -> None:
    """Same verdict and same DRBG state after every call, in order."""
    ours, theirs = HmacDrbg(b"primes-oracle"), HmacDrbg(b"primes-oracle")
    for n in numbers:
        verdict = is_probable_prime(n, ours, rounds)
        assert verdict == reference.is_probable_prime(n, theirs, rounds), n
        assert _state(ours) == _state(theirs), n


def _small_factor_free(rng: random.Random, bits: int) -> int:
    """A random odd ``bits``-bit number with no prime factor up to 313."""
    while True:
        m = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
        if all(m % p for p in reference.SMALL_PRIMES):
            return m


def _primes_between(low: int, high: int) -> list[int]:
    """Primes in (low, high], by a sieve."""
    sieve = bytearray([1]) * (high + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(high) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, high + 1, p)))
    return [p for p in range(low + 1, high + 1) if sieve[p]]


class TestAgainstTrialDivision:
    def test_every_n_below_twice_the_bound(self):
        _assert_agree(range(2 * _PRETEST_BOUND))

    @pytest.mark.parametrize("bits,count", [(64, 3000), (256, 1000),
                                            (512, 600)])
    def test_random_odd_candidates(self, bits, count):
        rng = random.Random(bits)
        _assert_agree([rng.getrandbits(bits) | 1 | (1 << (bits - 1))
                       for _ in range(count)])

    @pytest.mark.parametrize("rounds", [1, 2, 16])
    def test_rounds(self, rounds):
        rng = random.Random(rounds)
        _assert_agree([rng.getrandbits(256) | 1 | (1 << 255)
                       for _ in range(600)] + list(PSEUDOPRIMES), rounds)

    def test_composites_with_a_factor_the_pretest_sees(self):
        """Each prime in (313, B] times a cofactor free of factors up to
        313, so only the pre-test's gcd can find the factor."""
        rng = random.Random(313)
        mid = _primes_between(313, _PRETEST_BOUND)
        assert mid[0] == 317
        numbers = [p * _small_factor_free(rng, bits)
                   for p in mid for bits in (20, 200)]
        numbers += [p * q for p, q in zip(mid, reversed(mid))]
        numbers += [p * p for p in mid[:50]]
        _assert_agree(numbers)

    def test_pseudoprimes_fall_through_to_the_witnesses(self):
        seen_by_pretest = 0
        for n, factors in PSEUDOPRIMES.items():
            assert math.prod(factors) == n
            assert min(factors) > reference.SMALL_PRIMES[-1]
            d, r = n - 1, 0
            while d % 2 == 0:
                d, r = d // 2, r + 1
            assert reference.strong_probable_prime(n, 2, d, r), n
            seen_by_pretest += min(factors) <= _PRETEST_BOUND
        assert 0 < seen_by_pretest < len(PSEUDOPRIMES)
        # Both draw the witnesses, and the witnesses expose each one.
        _assert_agree(PSEUDOPRIMES)
        rng = HmacDrbg(b"pseudoprimes")
        assert not any(is_probable_prime(n, rng) for n in PSEUDOPRIMES)
