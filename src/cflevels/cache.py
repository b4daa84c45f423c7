"""Per-user similarity rows for one method over one matrix.

A cache holds the method and matrix objects it was made for and serves only
that exact pairing, so scores can never silently feed a different
experiment. ``rows`` maps a user index to ``{rater index: score}``, keeping
only positive scores: those are the only ones a neighborhood can use.
Indexes follow the matrix's sorted user order.

A row covers what it was asked for. :meth:`SimilarityCache.row` with item
indexes returns a's scores against the raters of those items; without, a's
full row: every user who shares at least one item with a. A row that does
not cover a request is extended, never answered from, so a prediction
always sees the same candidates a full row would give it. Extending scores
only the co-raters the row does not hold yet, and a row reuses another
user's finished rows for the pair when their coverage holds it, so each
pair is scored at most once.

Caches of several methods over one matrix can be siblings
(:meth:`SimilarityCache.siblings`): one row builder serves them all. It
builds a user's row for every sibling at once, in one pass over the
inverted index, computing each co-rater's (Pearson, co-rated count) base
with the same overlap kernel as :meth:`SimilarityMethod.score`, so every
entry equals the pair score bit for bit. The bases are dropped once the
rows are filled. Every pair with a zero Pearson base is left out: users
who share fewer than two items, or whose overlap has no variance. A cache
refuses a method that scores a zero base above 0 at any co-rated count a
pair of its matrix can have, so leaving them out loses nothing. A user's
coverage and rows under all siblings are published together, once
complete, and a published row is never changed, so threads sharing a
sibling set never read a half-built row nor reuse a user whose rows are
only partly published.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from .ratings import RatingsMatrix
from .similarity import SimilarityMethod, _base


class SimilarityCache:
    """Positive scores of ``m``'s users under ``sim``, one row per target user.

    A cache made with :meth:`siblings` shares its row builder and its rows
    store with the other methods' caches of the same matrix; one made
    directly is a set of one.
    """

    def __init__(self, sim: SimilarityMethod, m: RatingsMatrix) -> None:
        # derives dynamic's bands, or refuses m, up front. Rows leave out every
        # pair with a zero base, so its score must be <= 0 at each co-rated
        # count a pair can have: at most the longest user row
        for co in range(max(map(len, m._by_user), default=0) + 1):
            if sim.adjust(0.0, co, m) > 0.0:
                raise ValueError(f"method {sim.name!r} scores a zero Pearson base above 0 "
                                 f"at co-rated count {co}, so its similarity rows would "
                                 "leave out pairs it rates")
        self.sim = sim
        self.m = m
        # shared by siblings: their methods by slot, and each built user's
        # (covered item indexes or None for all, rows by slot)
        self._sims = (sim,)
        self._done: dict[int, tuple[frozenset[int] | None, tuple[dict[int, float], ...]]] = {}
        self._slot = 0

    @classmethod
    def siblings(cls, sims, m: RatingsMatrix) -> list[SimilarityCache]:
        """One cache per method of ``sims`` over ``m``, all built by one row builder.

        Building a user's row for any of them builds it for all, from one
        (Pearson, co-rated count) base per co-rater.
        """
        sims = tuple(sims)
        done: dict[int, tuple[frozenset[int] | None, tuple[dict[int, float], ...]]] = {}
        caches = [cls(sim, m) for sim in sims]
        for slot, cache in enumerate(caches):
            cache._sims, cache._done, cache._slot = sims, done, slot
        return caches

    @property
    def rows(self) -> dict[int, dict[int, float]]:
        """The finished rows by user index, as a snapshot."""
        slot = self._slot
        return {ia: rows[slot] for ia, (_, rows) in list(self._done.items())}

    def __len__(self) -> int:
        return len(self._done)

    def check(self, sim: SimilarityMethod, m: RatingsMatrix) -> None:
        """Refuse any method or matrix but the objects this cache was made for."""
        if sim is not self.sim or m is not self.m:
            raise ValueError(
                "a similarity cache serves only the method and matrix objects it was "
                f"made for (made for {self.sim.name!r}, asked for {sim.name!r})")

    def row(self, ia: int, items=None) -> dict[int, float]:
        """The positive scores of user ``ia`` against the raters of ``items``.

        ``items`` holds item indexes; None asks for every co-rater. The row
        may hold more than was asked for, never less: a row that does not
        cover ``items`` is extended first.
        """
        entry = self._done.get(ia)
        if entry is None or not (entry[0] is None
                                 or items is not None and entry[0].issuperset(items)):
            entry = self._build(ia, items, entry)
        return entry[1][self._slot]

    def _build(self, ia: int, items, old):
        """User ``ia``'s entry grown to cover ``items``, from one base per new co-rater.

        Co-raters the old rows already judged, those who rated an item the
        old entry covers, are kept as they are. Another user b's finished
        rows give the pair, as ``rows_b[slot].get(ia)``, when b's coverage
        holds ``ia``: b's entry covers every item, or an item ``ia`` rated.
        """
        m, done = self.m, self._done
        by_user, by_item = m._by_user, m._by_item
        ra = by_user[ia]
        shared = Counter(chain.from_iterable(by_item[ii] for ii in ra))
        del shared[ia]
        had, old_rows = old if old is not None else (frozenset(), ())
        if items is None:
            cover, wanted = None, shared.keys()
        else:
            cover = had.union(items)
            wanted = shared.keys() & set().union(*(by_item[ii] for ii in cover - had))
        if had:
            wanted = wanted - set().union(*(by_item[ii] for ii in had))
        covered = []  # (ib, b's finished rows): symmetric, they hold the pair
        bases = []  # (ib, base, co) of every other co-rater, dropped with the build
        for ib in wanted:
            if shared[ib] < 2:  # Pearson 0
                continue
            entry_b = done.get(ib)
            if entry_b is not None and (entry_b[0] is None or not ra.keys().isdisjoint(entry_b[0])):
                covered.append((ib, entry_b[1]))
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
            if old_rows:
                row.update(old_rows[slot])
            filled.append(row)
        entry = (cover, tuple(filled))
        done[ia] = entry  # one store for all siblings, so none is seen half-built
        return entry


def get_or_compute(cache: SimilarityCache, a: str, b: str, sim: SimilarityMethod,
                   m: RatingsMatrix) -> float:
    """Score of (a, b): from a's full row when positive, else computed directly."""
    cache.check(sim, m)
    ia = m._require_user(a)
    ib = m._require_user(b)
    s = cache.row(ia).get(ib)
    return s if s is not None else sim.score(a, b, m)
