"""Sparse rating storage with forward and inverted indexes.

The forward index maps each user index to ``{item index: rating}``, the
inverted one each item index to a tuple of its raters' user indexes,
ascending. The inverted index and the user means are built the first time
they are read, so a matrix that is only split never builds them.

The matrix is immutable once built, and :func:`build_matrix` is the one
public way to build it: it checks every rating against the scale. A split
cuts its train matrix from a built one, sharing every row it does not cut.
User and item identifiers are opaque strings at the boundary and are mapped
to dense integer indexes internally; every internal iteration runs in
sorted index order so that floating-point accumulations are identical from
run to run regardless of hash seeding.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import OutOfScaleRatingError, UnknownUserError


class _Bounds(NamedTuple):
    rmin: float
    rmax: float


class RatingScale(_Bounds):
    """Inclusive bounds of the rating range, e.g. 1-5 or 0-10.

    An immutable named tuple. Every way to make one (the constructor,
    ``_replace``, ``_make``, unpickling) goes through ``_make``, which
    checks the bounds.
    """

    __slots__ = ()

    def __new__(cls, rmin: float, rmax: float) -> RatingScale:
        return cls._make((rmin, rmax))

    @classmethod
    def _make(cls, iterable) -> RatingScale:
        scale = super()._make(iterable)
        rmin, rmax = scale
        if not (math.isfinite(rmin) and math.isfinite(rmax)):
            raise ValueError(f"rating scale bounds must be finite, got [{rmin}, {rmax}]")
        if not rmin < rmax:
            raise ValueError(f"rating scale requires rmin < rmax, got [{rmin}, {rmax}]")
        return scale

    @property
    def span(self) -> float:
        return self.rmax - self.rmin

    def clamp(self, value: float) -> float:
        return min(self.rmax, max(self.rmin, value))


class RatingRecord(NamedTuple):
    """One (user, item, rating) triple."""

    user: str
    item: str
    value: float


_record = tuple.__new__  # _record(RatingRecord, fields) skips NamedTuple's Python-level __new__


class RatingsMatrix:
    """Immutable user x item rating store.

    It holds a forward (user -> {item: rating}) and an inverted
    (item -> (users, ascending)) index, the latter built when first read.
    A matrix is made by :func:`build_matrix`, which checks and deduplicates
    records, or by a split, which cuts its train matrix from the parent's
    rows (:meth:`_cut`). Calling the class raises ``TypeError``.
    """

    def __init__(self, *args: object, **kwargs: object) -> None:
        raise TypeError("RatingsMatrix has no public constructor; use build_matrix(records, scale)")

    @classmethod
    def _index(cls, scale: RatingScale, users: list[str], items: list[str],
               rows: list[dict[int, float]]) -> RatingsMatrix:
        """Hold sorted ids and each user's non-empty row, keyed by item index in order; no checks."""
        self = cls.__new__(cls)
        self._scale = scale
        self._users: tuple[str, ...] = tuple(users)
        self._items: tuple[str, ...] = tuple(items)
        self._user_index = {u: n for n, u in enumerate(users)}
        self._item_index = {i: n for n, i in enumerate(items)}
        self._by_user = tuple(rows)
        return self

    @cached_property
    def _by_item(self) -> tuple[tuple[int, ...], ...]:
        """Per item index, the indexes of its raters, ascending; built on first use."""
        by_item: list[list[int]] = [[] for _ in self._items]
        for ui, row in enumerate(self._by_user):
            for ii in row:
                by_item[ii].append(ui)
        return tuple(map(tuple, by_item))

    @cached_property
    def _user_means(self) -> tuple[float, ...]:
        """Per user index, the mean of its ratings; built on first use."""
        return tuple(_mean(row.values()) for row in self._by_user)

    def _cells(self) -> list[int]:
        """Each rating's cell, ``ui * item_count + ii``, in the order of :meth:`records`."""
        width = len(self._items)
        return [ui * width + ii for ui, row in enumerate(self._by_user) for ii in row]

    def _cut(self, cells: list[int]) -> tuple[RatingsMatrix, list[RatingRecord]]:
        """Every rating but ``cells``, indexed as :func:`build_matrix` would, and ``cells``' records.

        A cell is one of :meth:`_cells`. Each is popped from a copy of its
        user's row, which gives its record's rating; untouched rows are
        shared, and this matrix is left as it was. Users left with no rating
        go; items are re-indexed only when the cut's inverted index shows one
        with no rater.
        """
        users, items, parent = self._users, self._items, self._by_user
        width = len(items)
        rows = list(parent)
        test: list[RatingRecord] = []
        for cell in cells:
            ui, ii = divmod(cell, width)
            row = rows[ui]
            if row is parent[ui]:
                row = rows[ui] = row.copy()
            test.append(_record(RatingRecord, (users[ui], items[ii], row.pop(ii))))
        if not all(rows):
            users = [u for u, row in zip(users, rows) if row]
            rows = [row for row in rows if row]
        train = self._index(self._scale, users, items, rows)
        if not all(train._by_item):
            live = [ii for ii, raters in enumerate(train._by_item) if raters]
            at = {ii: n for n, ii in enumerate(live)}
            train = self._index(self._scale, users, [items[ii] for ii in live],
                                [{at[ii]: v for ii, v in row.items()} for row in rows])
        return train, test

    @cached_property
    def _masks(self) -> tuple[int | None, ...]:
        """Per user index, an int with bit ``ii`` set for each item index ``ii`` rated.

        Built on first use, never by :meth:`_index`. A user gets None when its
        highest item index is not below 64 times its rating count, so the
        bitsets hold about one machine word per rating at most.
        """
        return tuple(sum(1 << ii for ii in row) if max(row) < 64 * len(row) else None
                     for row in self._by_user)

    @cached_property
    def _codes(self) -> tuple[dict[float, int], dict[float, int],
                              tuple[float, ...], tuple[float, ...]] | None:
        """One byte per (x, y) rating pair, ``cx * V + cy``, over the V <= 16 distinct ratings.

        ``(x codes, y codes, xs, ys)``: adding a's rating's x code to b's
        rating's y code gives the pair's code, and ``xs[code]``, ``ys[code]``
        give the ratings back. Built on first use, never by :meth:`_index`.
        None when the matrix holds more than 16 distinct ratings. ``-0.0``
        and ``0.0`` share one code.
        """
        seen: set[float] = set()
        for row in self._by_user:
            seen.update(row.values())
            if len(seen) > 16:
                return None
        values = sorted(seen)
        n = len(values)
        return ({v: c * n for c, v in enumerate(values)}, {v: c for c, v in enumerate(values)},
                tuple(values[c // n] for c in range(n * n)), tuple(values * n))

    # -- basic shape ---------------------------------------------------

    @property
    def scale(self) -> RatingScale:
        return self._scale

    @property
    def user_count(self) -> int:
        return len(self._users)

    @property
    def item_count(self) -> int:
        return len(self._items)

    def users(self) -> tuple[str, ...]:
        return self._users

    def items(self) -> tuple[str, ...]:
        return self._items

    # -- lookups -------------------------------------------------------

    def rating(self, user: str, item: str) -> float | None:
        ui = self._user_index.get(user)
        ii = self._item_index.get(item)
        if ui is None or ii is None:
            return None
        return self._by_user[ui].get(ii)

    def mean_of(self, user: str) -> float:
        """Mean of the user's ratings over everything they rated."""
        return self._user_means[self._require_user(user)]

    def records(self) -> list[RatingRecord]:
        """All ratings in canonical (user, item) order."""
        return [_record(RatingRecord, (u, self._items[ii], v))
                for u, row in zip(self._users, self._by_user) for ii, v in row.items()]

    # -- index-level access for in-package hot paths --------------------

    def _require_user(self, user: str) -> int:
        ui = self._user_index.get(user)
        if ui is None:
            raise UnknownUserError(f"unknown user {user!r}")
        return ui


def _mean(values) -> float:
    """The mean of a non-empty row's ratings, exactly summed.

    A sum past the float range, as of (0, 1e307, 1.7e308), is taken over the
    ratings scaled by a power of two below 1 / len, so it stays in range;
    the scaling is exact away from subnormals.
    """
    n = len(values)
    try:
        return math.fsum(values) / n
    except OverflowError:
        k = n.bit_length()
        return math.ldexp(math.fsum(math.ldexp(v, -k) for v in values) / n, k)


def build_matrix(records: Iterable[RatingRecord], scale: RatingScale) -> RatingsMatrix:
    """Build an immutable matrix; duplicate (user, item) pairs keep the last record."""
    lo, hi = scale.rmin, scale.rmax
    rows: dict[str, dict[str, float]] = {}
    for user, item, raw in records:
        value = float(raw)
        if not lo <= value <= hi:
            raise OutOfScaleRatingError(
                f"rating {value} for ({user!r}, {item!r}) outside scale [{lo}, {hi}]")
        rows.setdefault(str(user), {})[str(item)] = value
    users, items = sorted(rows), sorted(set().union(*rows.values()))
    at = {item: n for n, item in enumerate(items)}
    # each string-keyed row is freed as its index form is made
    return RatingsMatrix._index(scale, users, items,
                                [{at[i]: row[i] for i in sorted(row)} for row in map(rows.pop, users)])

