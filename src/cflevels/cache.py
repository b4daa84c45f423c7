"""Per-user similarity rows for one method over one matrix.

A cache holds the method and matrix objects it was made for and serves only
that exact pairing, so scores can never silently feed a different
experiment. ``rows`` maps a user index to ``{rater index: score}``, keeping
only positive scores: those are the only ones a neighborhood can use.
Indexes follow the matrix's sorted user order.

A cache made without a ``demand`` holds full rows: every user who shares
at least one item with the target. A cache made with one serves only the
(user, item) pairs it names. ``demand`` maps a user index to the item
indexes that user is to be predicted on, and a's row then holds only the
raters of a's demanded items. Every prediction it allows sees the same
candidates a full row would give it, and :meth:`SimilarityCache.check_demand`
refuses the rest, so a restricted row never yields a partial answer.

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
from .ratings import RatingRecord, RatingsMatrix
from .similarity import SimilarityMethod, _base


def demand_of(m: RatingsMatrix, test: list[RatingRecord]) -> dict[int, frozenset[int]]:
    """The item indexes each user of ``m`` is to be predicted on in ``test``.

    Records whose user or item ``m`` does not know are left out: no row can
    serve them, and :func:`predict` answers None for them without one.
    """
    demand: dict[int, set[int]] = {}
    users, items = m._user_index, m._item_index
    for user, item, _ in test:
        ia, ii = users.get(user), items.get(item)
        if ia is not None and ii is not None:
            demand.setdefault(ia, set()).add(ii)
    return {ia: frozenset(wanted) for ia, wanted in demand.items()}


@dataclass(eq=False)
class SimilarityCache:
    """Positive scores of ``m``'s users under ``sim``, one row per target user."""

    sim: SimilarityMethod
    m: RatingsMatrix
    demand: dict[int, frozenset[int]] | None = None
    rows: dict[int, dict[int, float]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def check(self, sim: SimilarityMethod, m: RatingsMatrix) -> None:
        """Refuse any method or matrix but the objects this cache was made for."""
        if sim is not self.sim or m is not self.m:
            raise FingerprintMismatchError(
                "a similarity cache serves only the method and matrix objects it was "
                f"made for (made for {self.sim.name!r}, asked for {sim.name!r})")

    def check_demand(self, ia: int, items) -> None:
        """Refuse to serve ``ia``'s row for item indexes outside its demand."""
        if self.demand is not None and not self.demand.get(ia, frozenset()).issuperset(items):
            raise ValueError(
                "a similarity cache made for a test demand serves only the (user, item) "
                f"pairs in it; user {self.m.users()[ia]!r} needs a full row here")

    def row(self, ia: int) -> dict[int, float]:
        """The positive scores of user ``ia`` against its co-raters, built once.

        Under a demand, the row holds only co-raters who rated an item in
        ``ia``'s demand. Another user b's finished row is reused for the
        pair, as ``done.get(ia, 0.0)``, only when it covers ``ia``: when the
        cache has no demand, or ``ia`` rated an item in b's demand.
        """
        row = self.rows.get(ia)
        if row is not None:
            return row
        m = self.m
        adjust = self.sim.adjust
        by_user, by_item = m._by_user, m._by_item
        ra = by_user[ia]
        shared = Counter(chain.from_iterable(by_item[ii] for ii in ra))
        del shared[ia]
        demand = self.demand
        if demand is None:
            pairs = shared.items()
        else:
            wanted = set().union(*(by_item[ii] for ii in demand.get(ia, ())))
            pairs = [(ib, shared[ib]) for ib in wanted & shared.keys()]
        row = {}
        for ib, n in pairs:
            if n < 2:  # Pearson 0
                continue
            done = self.rows.get(ib)
            if done is not None and (demand is None or not ra.keys().isdisjoint(demand.get(ib, ()))):
                s = done.get(ia, 0.0)  # symmetric: b's finished row covers a
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
