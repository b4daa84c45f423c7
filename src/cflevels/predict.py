"""Neighborhood selection, single-rating prediction, and top-N recommendation."""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

from .cache import SimilarityCache
from .errors import _one_of
from .ratings import RatingsMatrix
from .similarity import SimilarityMethod

PREDICTION_MODES = ("resnick", "weighted_mean")


class Prediction(NamedTuple):
    """A predicted rating and its support, the number of neighbors that backed it."""

    value: float
    support: int


def _checked_cache(k: int, sim: SimilarityMethod, m: RatingsMatrix, cache, mode: str = "resnick"):
    """Check ``k`` and ``mode``; the cache to score through, fresh for None."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _one_of("prediction mode", mode, PREDICTION_MODES)
    if cache is None:
        return SimilarityCache(sim, m)
    cache.check(sim, m)
    return cache


def _top_k(row: dict[int, float], items, k: int,
           m: RatingsMatrix) -> dict[int, list[tuple[float, int]]]:
    """The top k raters in ``row`` of each item index in ``items``.

    The one place neighborhoods are formed. Maps each item with at least one
    rater in ``row`` to its neighbors as (-score, user index). User indexes
    follow sorted user ids, so ties break on ascending id. One item takes its
    raters from the inverted index and sorts them best first only when more
    than k are positive, to cut them, since :func:`_estimate` sums them in
    any order. Several share one walk of the row, sorted once best first:
    each neighbor joins every wanted item it rated, and an item stops being
    wanted once it has k, so the walk ends when none is left. So a list is
    best first when it was cut or walked; one item's uncut list is in index
    order.
    """
    if len(items) == 1:
        (ii,) = items
        best = [(-s, ib) for ib in m._by_item[ii] if (s := row.get(ib)) is not None]
        if len(best) > k:
            best = sorted(best)[:k]
        return {ii: best} if best else {}
    by_user = m._by_user
    wanted = set(items)
    found: dict[int, list[tuple[float, int]]] = {}
    for neg, ib in sorted([(-s, ib) for ib, s in row.items()]):
        if not wanted:
            break
        for ii in by_user[ib].keys() & wanted:
            best = found.setdefault(ii, [])
            best.append((neg, ib))
            if len(best) == k:
                wanted.remove(ii)
    return found


def neighborhood_for_item(a: str, item: str, k: int, sim: SimilarityMethod,
                          m: RatingsMatrix, cache=None) -> tuple[tuple[str, float], ...]:
    """Rank the item's raters by similarity to ``a``; keep the top k positive.

    Returns ((user id, score), ...), best first. Users with similarity <= 0
    never enter the neighborhood. Ties break on user id ascending so the
    result is stable across runs. Scores come from a's row in ``cache``, a
    :class:`SimilarityCache` for ``sim`` and ``m``; None scores through a
    fresh one made for this call. This is the inspection API:
    :func:`predict` combines the same top k without it.
    """
    cache = _checked_cache(k, sim, m, cache)
    ii = m._item_index.get(item)
    if ii is None:
        return ()
    ia = m._require_user(a)
    users = m.users()
    best = sorted(_top_k(cache.row(ia, (ii,)), (ii,), k, m).get(ii, ()))
    return tuple((users[ib], -neg) for neg, ib in best)


def _estimate(best: list[tuple[float, int]], ia: int, ii: int, m: RatingsMatrix,
              mode: str) -> float:
    """The clamped prediction of user ``ia`` on item ``ii`` from its neighbors.

    ``best`` is a non-empty neighborhood from :func:`_top_k`, in any order,
    since every sum is a ``math.fsum``; its length is the prediction's
    support. The one place neighbors are combined:
    :func:`predict` and :func:`recommend_top_n` both call it on matrix
    indexes.
    """
    by_user, means = m._by_user, m._user_means
    weights = [-neg for neg, _ in best]
    # row scores are positive and finite, so the total is > 0
    weight_total = math.fsum(weights)
    if mode == "resnick":
        num = math.fsum(map(mul, weights, [by_user[ib][ii] - means[ib] for _, ib in best]))
        raw = means[ia] + num / weight_total
    else:
        num = math.fsum(map(mul, weights, [by_user[ib][ii] for _, ib in best]))
        raw = num / weight_total
    return m.scale.clamp(raw)


def predict(a: str, item: str, k: int, sim: SimilarityMethod, m: RatingsMatrix,
            cache=None, mode: str = "resnick") -> Prediction | None:
    """Predict a's rating of the item from its neighborhood, or None.

    None means no prediction is possible: the user or item is absent from
    the matrix, or no rater of the item has positive similarity.
    ``resnick`` combines mean-centered deviations weighted by similarity on
    top of a's own mean; ``weighted_mean`` averages the neighbors' raw
    ratings instead. Either way the result is clamped to the rating scale.
    Scores come from a's row in ``cache``, rebuilt as the full row when it
    does not cover the item; None scores through a fresh one made for this
    call.
    """
    cache = _checked_cache(k, sim, m, cache, mode)
    ia, ii = m._user_index.get(a), m._item_index.get(item)
    if ia is None or ii is None:
        return None
    best = _top_k(cache.row(ia, (ii,)), (ii,), k, m).get(ii)
    if best is None:
        return None
    return Prediction(_estimate(best, ia, ii, m, mode), len(best))


def recommend_top_n(a: str, r: int, k: int, sim: SimilarityMethod, m: RatingsMatrix,
                    candidates=None, cache=None, mode: str = "resnick") -> tuple[tuple[str, float], ...]:
    """Top r predicted-rating items for ``a`` among items it has not rated.

    ``candidates`` restricts the pool (unknown items in it are skipped);
    by default every unrated item in the matrix is considered. Items with
    no computable prediction are dropped. Output is (item, value) pairs
    sorted by value descending, item id ascending, at most r of them.
    Ranking always reads a's full row in ``cache``, whatever the pool, so a
    second pool on the same cache reuses it. Without a cache the call makes
    one, so each (a, rater) pair is scored once.
    The whole pool's neighborhoods come from one best-first walk of that
    row (:func:`_top_k`), and each is combined exactly as :func:`predict`
    combines it.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    ia = m._require_user(a)
    cache = _checked_cache(k, sim, m, cache, mode)
    rated = m._by_user[ia]
    if candidates is None:
        pool = [ii for ii in range(m.item_count) if ii not in rated]
    else:
        index = m._item_index
        pool = {ii for i in candidates if (ii := index.get(i)) is not None and ii not in rated}
    hoods = _top_k(cache.row(ia), pool, k, m)
    # item indexes follow sorted item ids, so ties break on ascending id
    ranked = sorted((-_estimate(best, ia, ii, m, mode), ii) for ii, best in hoods.items())
    items = m.items()
    return tuple((items[ii], -neg) for neg, ii in ranked[:r])
