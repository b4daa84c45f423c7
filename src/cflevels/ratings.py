"""Sparse rating storage with forward and inverted indexes.

The matrix is immutable once built. User and item identifiers are opaque
strings at the boundary and are mapped to dense integer indexes internally;
every internal iteration runs in sorted index order so that floating-point
accumulations are identical from run to run regardless of hash seeding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import OutOfScaleRatingError, UnknownUserError


@dataclass(frozen=True)
class RatingScale:
    """Inclusive bounds of the rating range, e.g. 1-5 or 0-10."""

    rmin: float
    rmax: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rmin) and math.isfinite(self.rmax)):
            raise ValueError(f"rating scale bounds must be finite, got [{self.rmin}, {self.rmax}]")
        if not self.rmin < self.rmax:
            raise ValueError(f"rating scale requires rmin < rmax, got [{self.rmin}, {self.rmax}]")

    @property
    def span(self) -> float:
        return self.rmax - self.rmin

    def contains(self, value: float) -> bool:
        return self.rmin <= value <= self.rmax

    def clamp(self, value: float) -> float:
        return min(self.rmax, max(self.rmin, value))


class RatingRecord(NamedTuple):
    """One (user, item, rating) triple."""

    user: str
    item: str
    value: float


class RatingsMatrix:
    """Immutable user x item rating store.

    Construction deduplicates (user, item) pairs with last-write-wins and
    builds both the forward (user -> {item: rating}) and inverted
    (item -> {users}) indexes. Use :func:`build_matrix` rather than calling
    the constructor with raw records from several places.
    """

    def __init__(self, records: Iterable[RatingRecord], scale: RatingScale) -> None:
        dedup: dict[tuple[str, str], float] = {}
        for user, item, raw in records:
            value = float(raw)
            if not scale.contains(value):
                raise OutOfScaleRatingError(
                    f"rating {value} for ({user!r}, {item!r}) outside "
                    f"scale [{scale.rmin}, {scale.rmax}]"
                )
            dedup[(str(user), str(item))] = value

        self._scale = scale
        self._users: tuple[str, ...] = tuple(sorted({u for u, _ in dedup}))
        self._items: tuple[str, ...] = tuple(sorted({i for _, i in dedup}))
        self._user_index = {u: n for n, u in enumerate(self._users)}
        self._item_index = {i: n for n, i in enumerate(self._items)}

        by_user: list[dict[int, float]] = [{} for _ in self._users]
        by_item: list[set[int]] = [set() for _ in self._items]
        for (u, i), v in sorted(dedup.items()):
            ui = self._user_index[u]
            ii = self._item_index[i]
            by_user[ui][ii] = v
            by_item[ii].add(ui)
        self._by_user = tuple(by_user)
        self._by_item = tuple(frozenset(s) for s in by_item)
        self._user_means = tuple(
            math.fsum(row.values()) / len(row) for row in self._by_user
        )

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
        out = []
        for ui, u in enumerate(self._users):
            row = self._by_user[ui]
            for ii in sorted(row):
                out.append(RatingRecord(u, self._items[ii], row[ii]))
        return out

    # -- index-level access for in-package hot paths --------------------

    def _require_user(self, user: str) -> int:
        ui = self._user_index.get(user)
        if ui is None:
            raise UnknownUserError(f"unknown user {user!r}")
        return ui


def build_matrix(records: Iterable[RatingRecord], scale: RatingScale) -> RatingsMatrix:
    """Build an immutable matrix; duplicate (user, item) pairs keep the last record."""
    return RatingsMatrix(records, scale)

