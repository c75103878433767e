"""VerificationCache: LRU accounting plus cached == uncached correctness."""

import dataclasses

import numpy as np
import pytest

from repro.crypto import HmacDrbg, generate_keypair
from repro.runtime import VerificationCache
from repro.runtime.cache import MAX_ENTRIES


def _hits_misses(cache, kind):
    """One predicate kind's ``(hits, misses)``, read from the stats rows."""
    return {row[0]: row[1:3] for row in cache.stats()}[kind]


def _evictions(cache):
    """LRU evictions, read from the cache's registry."""
    return cache.registry.counter("cache.evictions").total()


class TestCacheMechanics:
    def test_memoize_computes_once(self):
        cache = VerificationCache()
        calls = []

        def compute():
            calls.append(1)
            return "answer"

        assert cache.memoize("k", b"key", compute) == "answer"
        assert cache.memoize("k", b"key", compute) == "answer"
        assert len(calls) == 1
        assert _hits_misses(cache, "k") == (1, 1)
        assert cache.hit_rate("k") == 0.5
        assert len(cache) == 1

    def test_kinds_do_not_collide(self):
        cache = VerificationCache()
        assert cache.memoize("a", b"same", lambda: 1) == 1
        assert cache.memoize("b", b"same", lambda: 2) == 2
        assert cache.lookups() == 2
        assert cache.lookups("a") == 1

    def test_lru_eviction_prefers_recent_entries(self):
        cache = VerificationCache()
        for index in range(MAX_ENTRIES):
            cache.memoize("k", b"%d" % index, lambda: index)
        cache.memoize("k", b"0", lambda: 0)  # touch 0 -> 1 is now LRU
        cache.memoize("k", b"new", lambda: "new")  # evicts 1
        assert _evictions(cache) == 1
        assert len(cache) == MAX_ENTRIES
        cache.memoize("k", b"0", lambda: pytest.fail("0 was evicted"))
        cache.memoize("k", b"1", lambda: "recomputed")
        assert _hits_misses(cache, "k")[1] == MAX_ENTRIES + 2

    def test_distinct_keys_beyond_the_bound_are_evicted(self):
        """Failed checks are cached under the presented certificate's
        digest, so distinct forgeries must not grow the cache forever."""
        cache = VerificationCache()
        extra = 300
        for index in range(MAX_ENTRIES + extra):
            cache.memoize("cert-signature", b"forged-%d" % index,
                          lambda: False)
        assert len(cache) == MAX_ENTRIES
        assert _evictions(cache) == extra


class TestCachedEqualsUncached:
    """The satellite guarantee: a cached answer is byte-identical to a
    recomputed one — across 1,000 randomized verification queries."""

    def test_cert_signature_checks(self, ca):
        drbg = HmacDrbg(b"cache-correctness-keys")
        keys = [generate_keypair(drbg, bits=512) for _ in range(6)]
        certs = []
        for serial in range(20):
            public = keys[serial % len(keys)].public_key
            good = ca.issue(f"cache-dev-{serial}", "flock-device", public)
            # A tampered twin: same TBS bytes, one signature byte flipped.
            bad_sig = bytes([good.signature[0] ^ 0x01]) + good.signature[1:]
            certs.append(good)
            certs.append(dataclasses.replace(good, signature=bad_sig))

        cache = VerificationCache()
        rng = np.random.default_rng(2024)
        valid_seen = set()
        for _ in range(1000):
            cert = certs[rng.integers(len(certs))]
            direct = cert.signature_valid(ca.public_key)
            cached = cache.memoize("cert-signature", cert.fingerprint(),
                                   lambda c=cert:
                                   c.signature_valid(ca.public_key))
            assert cached == direct
            valid_seen.add(direct)

        assert valid_seen == {True, False}  # both outcomes were exercised
        assert cache.lookups("cert-signature") == 1000
        assert _hits_misses(cache, "cert-signature")[1] == len(certs)
        assert cache.hit_rate("cert-signature") == (1000 - len(certs)) / 1000
