"""Memoized pairwise similarities, keyed to one method + matrix pairing.

A cache is stamped with a fingerprint of the method (name and parameters)
and the matrix content, so scores can never silently feed a different
experiment. Pair keys are user index pairs (lo, hi) in the matrix's sorted
user order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FingerprintMismatchError
from .ratings import RatingsMatrix
from .similarity import SimilarityMethod


@dataclass
class SimilarityCache:
    """Scores for user index pairs, plus the fingerprint they belong to."""

    fingerprint: str
    store: dict[tuple[int, int], float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.store)


def cache_fingerprint(sim: SimilarityMethod, m: RatingsMatrix) -> str:
    return f"{sim.key}|{m.content_hash()}"


def get_or_compute(cache: SimilarityCache, a: str, b: str, sim: SimilarityMethod,
                   m: RatingsMatrix) -> float:
    """Cached score for (a, b), computing and storing it on a miss."""
    expected = cache_fingerprint(sim, m)
    if cache.fingerprint != expected:
        raise FingerprintMismatchError(
            f"cache fingerprint {cache.fingerprint!r} does not match {expected!r}")
    ia = m._require_user(a)
    ib = m._require_user(b)
    key = (ia, ib) if ia <= ib else (ib, ia)
    hit = cache.store.get(key)
    if hit is not None:
        return hit
    s = sim.score(a, b, m)
    cache.store[key] = s
    return s
