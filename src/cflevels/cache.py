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

Caches of several methods over one matrix and demand can be siblings
(:meth:`SimilarityCache.siblings`): one row builder serves them all. It
builds a user's row for every sibling at once, in one pass over the
inverted index, computing each co-rater's (Pearson, co-rated count) base
with the same overlap kernel as :meth:`SimilarityMethod.score`, so every
entry equals the pair score bit for bit. The bases are dropped once the
rows are filled. A user who shares no item with the target has a zero
Pearson base, which every adjuster maps to a score <= 0, so leaving such
users out loses nothing. A user's rows under all siblings are published
together, once complete, so threads sharing a sibling set never read a
half-built row nor reuse a user whose rows are only partly published.
"""

from __future__ import annotations

from collections import Counter
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


class SimilarityCache:
    """Positive scores of ``m``'s users under ``sim``, one row per target user.

    A cache made with :meth:`siblings` shares its row builder and its rows
    store with the other methods' caches of the same matrix and demand; one
    made directly is a set of one.
    """

    def __init__(self, sim: SimilarityMethod, m: RatingsMatrix,
                 demand: dict[int, frozenset[int]] | None = None) -> None:
        self.sim = sim
        self.m = m
        self.demand = demand
        # shared by siblings: their methods by slot, and each built user's rows by slot
        self._sims = (sim,)
        self._done: dict[int, tuple[dict[int, float], ...]] = {}
        self._slot = 0

    @classmethod
    def siblings(cls, sims, m: RatingsMatrix,
                 demand: dict[int, frozenset[int]] | None = None) -> list[SimilarityCache]:
        """One cache per method of ``sims`` over ``m``, all built by one row builder.

        Building a user's row for any of them builds it for all, from one
        (Pearson, co-rated count) base per co-rater.
        """
        sims = tuple(sims)
        done: dict[int, tuple[dict[int, float], ...]] = {}
        caches = [cls(sim, m, demand) for sim in sims]
        for slot, cache in enumerate(caches):
            cache._sims, cache._done, cache._slot = sims, done, slot
        return caches

    @property
    def rows(self) -> dict[int, dict[int, float]]:
        """The finished rows by user index, as a snapshot."""
        slot = self._slot
        return {ia: rows[slot] for ia, rows in list(self._done.items())}

    def __len__(self) -> int:
        return len(self._done)

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
        ``ia``'s demand. Another user b's finished rows are reused for the
        pair, as ``rows_b[slot].get(ia)``, only when they cover ``ia``: when
        the cache has no demand, or ``ia`` rated an item in b's demand.
        """
        rows = self._done.get(ia)
        if rows is None:
            rows = self._build(ia)
        return rows[self._slot]

    def _build(self, ia: int) -> tuple[dict[int, float], ...]:
        """User ``ia``'s rows under every sibling, from one base per uncovered co-rater."""
        m, demand, done = self.m, self.demand, self._done
        by_user, by_item = m._by_user, m._by_item
        ra = by_user[ia]
        shared = Counter(chain.from_iterable(by_item[ii] for ii in ra))
        del shared[ia]
        if demand is None:
            pairs = shared.items()
        else:
            wanted = set().union(*(by_item[ii] for ii in demand.get(ia, ())))
            pairs = [(ib, shared[ib]) for ib in wanted & shared.keys()]
        covered = []  # (ib, b's finished rows): symmetric, they hold the pair
        bases = []  # (ib, base, co) of every other co-rater, dropped with the build
        for ib, n in pairs:
            if n < 2:  # Pearson 0
                continue
            rows_b = done.get(ib)
            if rows_b is not None and (demand is None or not ra.keys().isdisjoint(demand.get(ib, ()))):
                covered.append((ib, rows_b))
            else:
                base, co = _base(ra, by_user[ib])
                # a zero base never scores above 0; a negative one may (eq8)
                if base != 0.0:
                    bases.append((ib, base, co))
        filled = []
        for slot, sim in enumerate(self._sims):
            adjust = sim.adjust
            row = {ib: s for ib, base, co in bases if (s := adjust(base, co, m)) > 0.0}
            row.update((ib, s) for ib, rows_b in covered if (s := rows_b[slot].get(ia)) is not None)
            filled.append(row)
        rows = tuple(filled)
        done[ia] = rows  # one store for all siblings, so none is seen half-built
        return rows


def get_or_compute(cache: SimilarityCache, a: str, b: str, sim: SimilarityMethod,
                   m: RatingsMatrix) -> float:
    """Score of (a, b): from a's row when positive, else computed directly."""
    cache.check(sim, m)
    ia = m._require_user(a)
    ib = m._require_user(b)
    s = cache.row(ia).get(ib)
    return s if s is not None else sim.score(a, b, m)
