"""Per-user similarity rows for one method over one matrix.

A cache holds the method and matrix objects it was made for and serves only
that exact pairing, so scores can never silently feed a different
experiment. ``rows`` maps a user index to ``{rater index: score}`` over the
users that share at least one item with it, keeping only positive scores:
those are the only ones a neighborhood can use. Indexes follow the matrix's
sorted user order.

A row is built in one pass over the inverted index and scored with the same
overlap kernel as :meth:`SimilarityMethod.score`, so every entry equals the
pair score bit for bit. A user who shares no item with the target has a
zero Pearson base, which every adjuster maps to a score <= 0, so leaving
such users out loses nothing. A row is published only once complete, so
threads sharing a cache never read a half-built one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .errors import FingerprintMismatchError
from .ratings import RatingsMatrix
from .similarity import SimilarityMethod, _base


@dataclass(eq=False)
class SimilarityCache:
    """Positive scores of ``m``'s users under ``sim``, one row per target user."""

    sim: SimilarityMethod
    m: RatingsMatrix
    rows: dict[int, dict[int, float]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def check(self, sim: SimilarityMethod, m: RatingsMatrix) -> None:
        """Refuse any method or matrix but the objects this cache was made for."""
        if sim is not self.sim or m is not self.m:
            raise FingerprintMismatchError(
                "a similarity cache serves only the method and matrix objects it was "
                f"made for (made for {self.sim.name!r}, asked for {sim.name!r})")

    def row(self, ia: int) -> dict[int, float]:
        """The positive scores of user ``ia`` against its co-raters, built once."""
        row = self.rows.get(ia)
        if row is not None:
            return row
        m = self.m
        adjust = self.sim.adjust
        by_user = m._by_user
        ra = by_user[ia]
        shared = Counter(chain.from_iterable(m._by_item[ii] for ii in ra))
        del shared[ia]
        row = {}
        for ib, n in shared.items():
            if n < 2:  # Pearson 0
                continue
            done = self.rows.get(ib)
            if done is not None:  # symmetric: reuse b's finished row
                s = done.get(ia, 0.0)
            else:
                base, co = _base(ra, by_user[ib])
                # a zero base never scores above 0, so it needs no adjusting
                s = adjust(base, co, m) if base != 0.0 else 0.0
            if s > 0.0:
                row[ib] = s
        self.rows[ia] = row  # last, so a row is never seen half-built
        return row


def get_or_compute(cache: SimilarityCache, a: str, b: str, sim: SimilarityMethod,
                   m: RatingsMatrix) -> float:
    """Score of (a, b): from a's row when positive, else computed directly."""
    cache.check(sim, m)
    ia = m._require_user(a)
    ib = m._require_user(b)
    s = cache.row(ia).get(ib)
    return s if s is not None else sim.score(a, b, m)
