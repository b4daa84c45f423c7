"""Memoized pairwise similarities for one method over one matrix.

A cache holds the method and matrix objects it was made for and serves only
that exact pairing, so scores can never silently feed a different
experiment. Pair keys are user index pairs (lo, hi) in the matrix's sorted
user order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FingerprintMismatchError
from .ratings import RatingsMatrix
from .similarity import SimilarityMethod


@dataclass(eq=False)
class SimilarityCache:
    """Scores for user index pairs of ``m`` under ``sim``."""

    sim: SimilarityMethod
    m: RatingsMatrix
    store: dict[tuple[int, int], float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.store)


def get_or_compute(cache: SimilarityCache, a: str, b: str, sim: SimilarityMethod,
                   m: RatingsMatrix) -> float:
    """Cached score for (a, b), computing and storing it on a miss."""
    if sim is not cache.sim or m is not cache.m:
        raise FingerprintMismatchError(
            "a similarity cache serves only the method and matrix objects it was "
            f"made for (made for {cache.sim.name!r}, asked for {sim.name!r})")
    ia = m._require_user(a)
    ib = m._require_user(b)
    key = (ia, ib) if ia <= ib else (ib, ia)
    hit = cache.store.get(key)
    if hit is not None:
        return hit
    s = sim.score(a, b, m)
    cache.store[key] = s
    return s
