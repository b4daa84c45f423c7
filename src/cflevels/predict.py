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


def _top_k(ia: int, row: dict[int, float], items, k: int, m: RatingsMatrix,
           mode: str | None = None) -> list:
    """Each item's top k raters in ``row``, user ``ia``'s row, combined as they are formed.

    The one place neighborhoods are formed and combined. Returns
    (-value, item index, support) for each item index in ``items`` with at
    least one rater in ``row``; support is the number of neighbors. A
    neighbor ``b`` brings its score ``s`` and, under ``resnick``, its
    deviation ``r_bi - mean_b``, or under ``weighted_mean`` its rating
    ``r_bi``; the value is ``mean_a + fsum(s * d) / fsum(s)``, without
    ``mean_a`` under ``weighted_mean``, clamped to the rating scale as
    ``RatingScale.clamp`` does. Every sum is a ``math.fsum``, so the order
    of a neighborhood cannot move a bit, nor, through :func:`_scaled_ratio`,
    decide whether a sum fails. Neighbors are taken best first, ties on
    ascending user index, which follows sorted user ids.

    One item walks its raters once into its two lists, and ranks them only
    when more than k are positive, to cut them. Several share one walk of
    the row, sorted once best first: as the walk hands a neighbor over, its
    score and deviation join every wanted item it rated, and an item stops
    being wanted once it has k, so the walk ends when none is left. One
    pass then turns each item's two lists into its value, with no function
    call per item. Without ``mode``, for :func:`neighborhood_for_item`, one
    item's neighborhood comes back uncombined, as (-score, user index)
    pairs, best first.
    """
    by_user = m._by_user
    means = m._user_means if mode == "resnick" else None
    if len(items) == 1:
        (ii,) = items
        raters = m._by_item[ii]
        if mode is None:
            return sorted([(-s, ib) for ib in raters if (s := row.get(ib)) is not None])[:k]
        weights, devs = [], []
        for ib in raters:
            if (s := row.get(ib)) is not None:
                weights.append(s)
                devs.append(by_user[ib][ii] - (means[ib] if means else 0.0))
        if len(weights) > k:
            # best first; a stable sort keeps ties in the walk's ascending user order
            best = sorted(range(len(weights)), key=weights.__getitem__, reverse=True)[:k]
            weights = [weights[n] for n in best]
            devs = [devs[n] for n in best]
        found = {ii: (weights, devs)} if weights else {}
    else:
        wanted = set(items)
        found = {}
        for neg, ib in sorted([(-s, ib) for ib, s in row.items()]):
            if not wanted:
                break
            s, rb = -neg, by_user[ib]
            mb = means[ib] if means else 0.0  # r - 0.0 is r, bit for bit
            for ii in rb.keys() & wanted:
                hood = found.get(ii)
                if hood is None:
                    hood = found[ii] = ([], [])
                weights, devs = hood
                weights.append(s)
                devs.append(rb[ii] - mb)
                if len(weights) == k:
                    wanted.remove(ii)
    mean = means[ia] if means else -0.0  # -0.0 + x is x for every float x
    lo, hi = m.scale.rmin, m.scale.rmax
    fsum = math.fsum
    combined = []
    # row scores are positive and finite, so each weight total is > 0
    for ii, (weights, devs) in found.items():
        try:
            value = mean + fsum(map(mul, weights, devs)) / fsum(weights)
        except (OverflowError, ValueError):  # rare: a sum past the float range in this order
            value = mean + _scaled_ratio(weights, devs)
        combined.append((-min(hi, max(lo, value)), ii, len(weights)))
    return combined


def _scaled_ratio(weights: list[float], devs: list[float]) -> float:
    """``fsum(w * d) / fsum(w)`` from terms scaled by powers of two, for sums past the float range.

    Each list's largest magnitude is brought into [0.5, 1), so no product or
    sum overflows; as in ``ratings._mean``, the scaling is exact away from
    subnormals, so every order of the terms gives the same bits.
    """
    ew = math.frexp(max(weights))[1]
    ed = math.frexp(max(map(abs, devs)))[1]
    ws = [math.ldexp(w, -ew) for w in weights]
    ds = [math.ldexp(d, -ed) for d in devs]
    return math.ldexp(math.fsum(map(mul, ws, ds)) / math.fsum(ws), ed)


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
    return tuple((users[ib], -neg) for neg, ib in _top_k(ia, cache.row(ia, (ii,)), (ii,), k, m))


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
    combined = _top_k(ia, cache.row(ia, (ii,)), (ii,), k, m, mode)
    if not combined:
        return None
    ((neg, _, support),) = combined
    return Prediction(-neg, support)


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
    row (:func:`_top_k`), which adds each neighbor's score and deviation to
    every item it serves as it hands the neighbor over, then combines every
    item in one pass, exactly as it combines :func:`predict`'s one item.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    ia = m._require_user(a)
    cache = _checked_cache(k, sim, m, cache, mode)
    rated = m._by_user[ia]
    if candidates is None:
        pool = set(range(m.item_count))
        pool.difference_update(rated)
    else:
        index = m._item_index
        pool = {ii for i in candidates if (ii := index.get(i)) is not None and ii not in rated}
    ranked = _top_k(ia, cache.row(ia), pool, k, m, mode)
    # item indexes follow sorted item ids, so ties break on ascending id
    ranked.sort()
    items = m.items()
    return tuple((items[ii], -neg) for neg, ii, _ in ranked[:r])
