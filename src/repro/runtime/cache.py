"""Digest-keyed verification-result cache with hit-rate accounting.

Fleet-scale simulation repeats a lot of *pure* verification work: every
registration presents a CA-signed device certificate (devices cloned from
the same manufacturing prototype share one), and every image-mode match
scores the same (template, probe) minutiae pair the same way.  The cache
memoizes exactly those clock-independent predicates, keyed on content
digests, so a cached answer is byte-identical to a recomputed one.

The cache is deliberately duck-typed: consumers (``WebServer``,
``ImageFingerprintProcessor``) only call ``memoize(kind, key, compute)``
and never import this module, keeping the layering DAG acyclic.  Anything
clock- or policy-dependent (certificate validity windows, role checks,
risk thresholds) must stay outside the cache and be recomputed per use.

Hit/miss/eviction accounting lives only in a
:class:`~repro.obs.MetricsRegistry` (``cache.hits``/``cache.misses``
labeled by predicate kind, ``cache.evictions``): :meth:`stats`,
:meth:`lookups` and :meth:`hit_rate` read those instruments, and exporters
see the same counters as every other layer.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.obs import MetricsRegistry

__all__ = ["VerificationCache"]


class VerificationCache:
    """LRU memoizer for pure verification predicates.

    Entries are keyed ``(kind, key)`` where ``kind`` names the predicate
    ("cert-signature", "template-match", ...) and ``key`` is a content
    digest covering *every* input of the computation.  Per-kind hit/miss
    counters feed the fleet metrics layer.  Pass ``registry`` to account
    into a shared registry (the fleet simulation shares one across the
    whole run); by default the cache owns a private one.
    """

    def __init__(self, max_entries: int | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None)")
        self.max_entries = max_entries
        self._store: "OrderedDict[tuple[str, bytes], object]" = OrderedDict()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._hits = self.registry.counter(
            "cache.hits", help="verification-cache hits by predicate kind")
        self._misses = self.registry.counter(
            "cache.misses", help="verification-cache misses by predicate kind")
        self._evictions = self.registry.counter(
            "cache.evictions", help="verification-cache LRU evictions")

    def memoize(self, kind: str, key: bytes, compute):
        """Return the cached result for ``(kind, key)`` or compute it."""
        slot = (kind, key)
        if slot in self._store:
            self._hits.inc(kind=kind)
            self._store.move_to_end(slot)
            return self._store[slot]
        self._misses.inc(kind=kind)
        value = compute()
        self._store[slot] = value
        if self.max_entries is not None and len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            self._evictions.inc()
        return value

    # ------------------------------------------------------------ accounting
    @property
    def evictions(self) -> int:
        """Total LRU evictions."""
        return self._evictions.total()

    def lookups(self, kind: str | None = None) -> int:
        """Total lookups, overall or for one predicate kind."""
        if kind is not None:
            return self._hits.value(kind=kind) + self._misses.value(kind=kind)
        return self._hits.total() + self._misses.total()

    def hit_rate(self, kind: str | None = None) -> float:
        """Fraction of lookups answered from cache (0.0 when unused)."""
        total = self.lookups(kind)
        if total == 0:
            return 0.0
        hits = (self._hits.value(kind=kind) if kind is not None
                else self._hits.total())
        return hits / total

    def stats(self) -> list[tuple[str, int, int, float]]:
        """Sorted per-kind rows: (kind, hits, misses, hit_rate)."""
        kinds = sorted({labels["kind"]
                        for counter in (self._hits, self._misses)
                        for labels in counter.labelsets()})
        return [(kind, self._hits.value(kind=kind),
                 self._misses.value(kind=kind), self.hit_rate(kind))
                for kind in kinds]

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop all entries and counters."""
        self._store.clear()
        self._hits.clear()
        self._misses.clear()
        self._evictions.clear()
