"""Per-user similarity rows for one method over one matrix.

A cache holds the method and matrix objects it was made for and serves only
that exact pairing, so scores can never silently feed a different
experiment. ``rows`` maps a user index to ``{rater index: score}``, keeping
only positive scores: those are the only ones a neighborhood can use.
Indexes follow the matrix's sorted user order.

A row is built on its first request. :meth:`SimilarityCache.row` with item
indexes builds a's scores against the raters of those items; without, a's
full row: every user who shares at least one item with a. A row that does
not cover a later request is never answered from: it is rebuilt as the full
row, so a prediction always sees the same candidates a full row would give
it. A row reuses another user's finished rows for the pair when their
coverage holds it, so each pair is scored at most once unless a row is
rebuilt, which no command does: each asks for a user's row once, up front,
or for the full row.

Caches of several methods over one matrix can be siblings
(:meth:`SimilarityCache.siblings`): one row builder serves them all. It
builds a user's row for every sibling at once: one walk of the user's
ratings over the inverted index (each item's raters, an ascending tuple of
user indexes) gathers each co-rater's overlap, and the Pearson formula of
:meth:`SimilarityMethod.score` makes it a (Pearson, co-rated count) base,
so every entry equals the pair score bit for bit. The bases are dropped
once the rows are filled. Every pair with a zero Pearson
base is left out: users who share fewer than two items, or whose overlap
has no variance; so is every pair with a covariance <= 0 when no sibling
lifts negatives. A cache refuses a method that scores such a base above 0
at any co-rated count a pair of its matrix can have, so leaving them out
loses nothing. Co-raters who share fewer than two items with the user leave
the pool first, before the reuse test and the gather, by one AND of the two
users' item bitsets (``RatingsMatrix._masks``). The bitsets are bounded by
the input: a user has one only when its highest item index is below 64
times its rating count, about one machine word per rating. A co-rater
without one stays in the pool, and a user without one keeps the whole pool,
so long-tail sparse data builds rows as it would without bitsets. A user's
coverage and rows under all siblings are published together, in one store,
once complete, and a published row is never changed.
"""

from __future__ import annotations

from .ratings import RatingsMatrix
from .similarity import SimilarityMethod, _pearson


class SimilarityCache:
    """Positive scores of ``m``'s users under ``sim``, one row per target user.

    A cache made with :meth:`siblings` shares its row builder and its rows
    store with the other methods' caches of the same matrix; one made
    directly is a set of one.
    """

    def __init__(self, sim: SimilarityMethod, m: RatingsMatrix) -> None:
        # derives dynamic's bands, or refuses m, up front. Rows leave out every
        # pair with a zero base, and with lifts_negatives False every negative
        # one, so such a base must score <= 0 at each co-rated count a pair
        # can have: at most the longest user row
        probes = (0.0,) if sim.lifts_negatives else (0.0, -1e-9, -1.0)
        for co in range(max(map(len, m._by_user), default=0) + 1):
            for base in probes:
                if sim.adjust(base, co, m) > 0.0:
                    raise ValueError(
                        f"method {sim.name!r} scores a {'negative' if base else 'zero'} Pearson "
                        f"base above 0 at co-rated count {co}, so its similarity rows would leave "
                        f"out pairs it rates{', as lifts_negatives=False' if base else ''}")
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
        """The finished rows by user index."""
        slot = self._slot
        return {ia: rows[slot] for ia, (_, rows) in self._done.items()}

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
        may hold more than was asked for, never less: the first request
        builds it, and a row that does not cover ``items`` is rebuilt as the
        full row.
        """
        entry = self._done.get(ia)
        if entry is None or not (entry[0] is None
                                 or items is not None and entry[0].issuperset(items)):
            entry = self._build(ia, items if entry is None else None)
        return entry[1][self._slot]

    def _build(self, ia: int, items):
        """User ``ia``'s entry covering ``items`` (None: every item), one base per co-rater.

        The pool is the raters of the covered items, less those whose bitset
        shares fewer than two items with ``ia``'s. Another user b's finished
        rows give the pair, as ``rows_b[slot].get(ia)``, when b's coverage
        holds ``ia``: b's entry covers every item, or an item ``ia`` rated.
        One walk of ``ia``'s ratings gathers the rest's overlaps.
        """
        m, done = self.m, self._done
        by_user, by_item = m._by_user, m._by_item
        ra = by_user[ia]
        cover = None if items is None else frozenset(items)
        pool = set().union(*(by_item[ii] for ii in (ra if cover is None else cover)))
        pool.discard(ia)
        masks = m._masks
        if (mask := masks[ia]) is not None:  # a co-rater sharing < 2 items has Pearson 0
            pool = {ib for ib in pool if (mask_b := masks[ib]) is None or (mask & mask_b).bit_count() >= 2}
        covered = [  # (ib, b's finished rows): symmetric, they hold the pair
            (ib, entry_b[1]) for ib in pool if (entry_b := done.get(ib)) is not None
            and (entry_b[0] is None or not ra.keys().isdisjoint(entry_b[0]))]
        pool.difference_update(ib for ib, _ in covered)
        gathered = {ib: ([], []) for ib in pool}  # ib -> (a's, b's ratings) on the overlap
        for ii, x in ra.items():
            for ib in pool.intersection(by_item[ii]):
                xs, ys = gathered[ib]
                xs.append(x)
                ys.append(by_user[ib][ii])
        keep_negative = any(sim.lifts_negatives for sim in self._sims)
        bases = []  # (ib, base, co) of every other co-rater, dropped with the build
        for ib, (xs, ys) in gathered.items():
            # Pearson is 0 below 2 items; a zero base never scores above 0, a negative one may (eq8)
            if len(xs) >= 2 and (base := _pearson(xs, ys, keep_negative)) != 0.0:
                bases.append((ib, base, len(xs)))
        filled = []
        for slot, sim in enumerate(self._sims):
            adjust = sim.adjust
            row = {ib: s for ib, base, co in bases if (s := adjust(base, co, m)) > 0.0}
            row.update((ib, s) for ib, rows_b in covered if (s := rows_b[slot].get(ia)) is not None)
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
