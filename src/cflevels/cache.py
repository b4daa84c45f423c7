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
so every entry equals the pair score bit for bit. Each method fills its
row from the bases through ``SimilarityMethod._scorer``, made when its cache
is made: for :func:`~cflevels.similarity.make_method`'s methods but plus it
reads a table of what depends only on the co-rated count, over the counts
from 0 to the longest user row, the same one the cache's acceptance probe
reads; plus and hand-made methods call ``adjust`` per base. The bases go
once the rows are filled. A sibling set scores each distinct overlap once:
on a matrix of at most 16 distinct ratings (``RatingsMatrix._codes``) the
walk gathers one byte per co-rated item, the code of the pair's two
ratings, and the sorted codes key a memo of bases that the set shares.
``math.fsum`` makes a Pearson independent of item order, and whole-star
ratings repeat overlaps, so most are read from the memo. ``-0.0`` and
``0.0`` share a code, which can move only a zero base, left out anyway.
Above 16 ratings, as in float-valued data, overlaps seldom repeat, and the
walk gathers each co-rater's two lists of ratings and scores every overlap,
which costs less than coding and keying them. Every pair with a zero Pearson
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
        # can have: at most the longest user row. The probe reads the scorer
        # that fills the rows, so it checks the very table they are made from
        n = max(map(len, m._by_user), default=0) + 1
        score = sim._scorer(m, n)
        probes = [(co, base) for co in range(n)
                  for base in ((0.0,) if sim.lifts_negatives else (0.0, -1e-9, -1.0))]
        if above := score([(i, base, co) for i, (co, base) in enumerate(probes)]):
            co, base = probes[min(above)]
            raise ValueError(
                f"method {sim.name!r} scores a {'negative' if base else 'zero'} Pearson "
                f"base above 0 at co-rated count {co}, so its similarity rows would leave "
                f"out pairs it rates{', as lifts_negatives=False' if base else ''}")
        self.sim = sim
        self.m = m
        # shared by siblings: their row scorers by slot, whether any keeps a
        # negative base, and each built user's (covered item indexes or None
        # for all, rows by slot)
        self._scorers = (score,)
        self._keep_negative = sim.lifts_negatives
        self._done: dict[int, tuple[frozenset[int] | None, tuple[dict[int, float], ...]]] = {}
        self._memo: dict[bytes, float] = {}  # Pearson base by sorted overlap codes
        self._slot = 0

    @classmethod
    def siblings(cls, sims, m: RatingsMatrix) -> list[SimilarityCache]:
        """One cache per method of ``sims`` over ``m``, all built by one row builder.

        Building a user's row for any of them builds it for all, from one
        (Pearson, co-rated count) base per co-rater.
        """
        caches = [cls(sim, m) for sim in sims]
        scorers = tuple(cache._scorers[0] for cache in caches)
        keep_negative = any(cache._keep_negative for cache in caches)
        done: dict[int, tuple[frozenset[int] | None, tuple[dict[int, float], ...]]] = {}
        memo: dict[bytes, float] = {}
        for slot, cache in enumerate(caches):
            cache._scorers, cache._keep_negative, cache._done, cache._memo, cache._slot = (
                scorers, keep_negative, done, memo, slot)
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
        masks, rated = m._masks, ra.keys()
        mask = masks[ia]
        covered = []  # (ib, b's finished rows): symmetric, they hold the pair
        fresh = []  # co-raters whose overlap is gathered
        for ib in pool:
            # a co-rater sharing < 2 items has Pearson 0
            if mask is not None and (mask_b := masks[ib]) is not None and (mask & mask_b).bit_count() < 2:
                continue
            entry_b = done.get(ib)
            if entry_b is not None and (entry_b[0] is None or not rated.isdisjoint(entry_b[0])):
                covered.append((ib, entry_b[1]))
            else:
                fresh.append(ib)
        keep_negative = self._keep_negative
        bases = []  # (ib, base, co) of every other co-rater, dropped with the build
        # Pearson is 0 below 2 items; a zero base never scores above 0, a negative one may (eq8)
        if (codes := m._codes) is None:  # over 16 distinct ratings: (a's, b's ratings) on the overlap
            gathered = {ib: ([], []) for ib in fresh}
            for ii, x in ra.items():
                for ib in gathered.keys() & by_item[ii]:
                    xs, ys = gathered[ib]
                    xs.append(x)
                    ys.append(by_user[ib][ii])
            for ib, (xs, ys) in gathered.items():
                if len(xs) >= 2 and (base := _pearson(xs, ys, keep_negative)) != 0.0:
                    bases.append((ib, base, len(xs)))
        else:  # one code per co-rated item; fsum ignores order, so a sorted overlap keys its base
            x_code, y_code, xs_of, ys_of = codes
            gathered = {ib: [] for ib in fresh}
            for ii, x in ra.items():
                cx = x_code[x]
                for ib in gathered.keys() & by_item[ii]:
                    gathered[ib].append(cx + y_code[by_user[ib][ii]])
            memo = self._memo
            for ib, got in gathered.items():
                if len(got) >= 2:
                    got.sort()  # in place: the list is not read again
                    key = bytes(got)
                    if (base := memo.get(key)) is None:
                        base = memo[key] = _pearson([xs_of[c] for c in key], [ys_of[c] for c in key],
                                                    keep_negative)
                    if base != 0.0:
                        bases.append((ib, base, len(key)))
        filled = []
        for slot, score in enumerate(self._scorers):
            row = score(bases)
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
