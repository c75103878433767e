"""VerificationCache: LRU accounting plus cached == uncached correctness."""

import dataclasses

import numpy as np
import pytest

from repro.crypto import HmacDrbg, generate_keypair
from repro.fingerprint import enroll_master, synthesize_master
from repro.flock.fingerprint_processor import ImageFingerprintProcessor
from repro.runtime import VerificationCache


def _hits_misses(cache, kind):
    """One predicate kind's ``(hits, misses)``, read from the stats rows."""
    return {row[0]: row[1:3] for row in cache.stats()}[kind]


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
        cache = VerificationCache(max_entries=2)
        cache.memoize("k", b"1", lambda: 1)
        cache.memoize("k", b"2", lambda: 2)
        cache.memoize("k", b"1", lambda: 1)  # touch 1 -> 2 is now LRU
        cache.memoize("k", b"3", lambda: 3)  # evicts 2
        assert cache.evictions == 1
        assert len(cache) == 2
        cache.memoize("k", b"1", lambda: pytest.fail("1 was evicted"))
        cache.memoize("k", b"2", lambda: "recomputed")
        assert _hits_misses(cache, "k")[1] == 4  # 1, 2, 3, and 2 again

    def test_clear_resets_everything(self):
        cache = VerificationCache()
        cache.memoize("k", b"1", lambda: 1)
        cache.memoize("k", b"1", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.lookups() == 0
        assert cache.hit_rate() == 0.0
        assert cache.stats() == []

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            VerificationCache(max_entries=0)


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

    def test_template_match_scores(self):
        alice = synthesize_master("alice-thumb", np.random.default_rng(5))
        eve = synthesize_master("eve-thumb", np.random.default_rng(900))
        template = enroll_master(alice, np.random.default_rng(6))
        probes = [enroll_master(alice, np.random.default_rng(7)).minutiae,
                  enroll_master(eve, np.random.default_rng(8)).minutiae,
                  template.minutiae]

        plain = ImageFingerprintProcessor(template)
        cached = ImageFingerprintProcessor(template)
        cache = VerificationCache()
        cached.match_cache = cache

        for probe in probes:
            expected = plain._best_score(probe)
            assert cached._best_score(probe) == expected  # miss
            assert cached._best_score(probe) == expected  # hit
        assert _hits_misses(cache, "template-match") == (len(probes),
                                                         len(probes))
