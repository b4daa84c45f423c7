"""Neighborhood selection, single-rating prediction, and top-N recommendation."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cache import SimilarityCache, get_or_compute
from .errors import UnknownUserError
from .ratings import RatingsMatrix, raters_of
from .similarity import SimilarityMethod

PREDICTION_MODES = ("resnick", "weighted_mean")


@dataclass(frozen=True)
class Neighborhood:
    """Top-k positively similar raters of one item, best first."""

    target: str
    item: str
    neighbors: tuple[tuple[str, float], ...]
    k: int


@dataclass(frozen=True)
class Prediction:
    """A predicted rating and the number of neighbors that backed it."""

    user: str
    item: str
    value: float
    support: int


def neighborhood_for_item(a: str, item: str, k: int, sim: SimilarityMethod,
                          m: RatingsMatrix, cache=None) -> Neighborhood:
    """Rank the item's raters by similarity to ``a``; keep the top k positive.

    Users with similarity <= 0 never enter the neighborhood. Ties break on
    user id ascending so the result is stable across runs. Scores come from
    ``cache``, a :class:`SimilarityCache` for ``sim`` and ``m``; None scores
    through a fresh one made for this call.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if cache is None:
        cache = SimilarityCache(sim, m)
    scored = []
    for b in sorted(raters_of(item, m)):
        if b == a:
            continue
        s = get_or_compute(cache, a, b, sim, m)
        if s > 0.0:
            scored.append((b, s))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return Neighborhood(target=a, item=item, neighbors=tuple(scored[:k]), k=k)


def predict(a: str, item: str, k: int, sim: SimilarityMethod, m: RatingsMatrix,
            cache=None, mode: str = "resnick") -> Prediction | None:
    """Predict a's rating of the item from its neighborhood, or None.

    None means no prediction is possible: the user or item is absent from
    the matrix, no rater of the item has positive similarity, or the
    similarity mass sums to zero. ``resnick`` combines mean-centered
    deviations weighted by similarity on top of a's own mean;
    ``weighted_mean`` averages the neighbors' raw ratings instead.
    Either way the result is clamped to the rating scale.
    """
    if mode not in PREDICTION_MODES:
        raise ValueError(f"unknown prediction mode {mode!r}; expected one of {', '.join(PREDICTION_MODES)}")
    if not m.has_user(a) or not m.has_item(item):
        return None
    hood = neighborhood_for_item(a, item, k, sim, m, cache)
    if not hood.neighbors:
        return None
    weight_total = math.fsum(abs(s) for _, s in hood.neighbors)
    if weight_total == 0.0:
        return None
    if mode == "resnick":
        num = math.fsum(s * (m.rating(b, item) - m.mean_of(b)) for b, s in hood.neighbors)
        raw = m.mean_of(a) + num / weight_total
    else:
        num = math.fsum(s * m.rating(b, item) for b, s in hood.neighbors)
        raw = num / weight_total
    return Prediction(user=a, item=item, value=m.scale.clamp(raw),
                      support=len(hood.neighbors))


def recommend_top_n(a: str, r: int, k: int, sim: SimilarityMethod, m: RatingsMatrix,
                    candidates=None, cache=None, mode: str = "resnick") -> tuple[tuple[str, float], ...]:
    """Top r predicted-rating items for ``a`` among items it has not rated.

    ``candidates`` restricts the pool (unknown items in it are skipped);
    by default every unrated item in the matrix is considered. Items with
    no computable prediction are dropped. Output is (item, value) pairs
    sorted by value descending, item id ascending, at most r of them.
    Without a ``cache`` the call makes one for all its items, so each
    (a, rater) pair is scored once.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not m.has_user(a):
        raise UnknownUserError(f"unknown user {a!r}")
    if cache is None:
        cache = SimilarityCache(sim, m)
    rated = set(m.items_of(a))
    if candidates is None:
        pool = [i for i in m.items() if i not in rated]
    else:
        pool = sorted({i for i in candidates if m.has_item(i) and i not in rated})
    ranked = []
    for item in pool:
        p = predict(a, item, k, sim, m, cache, mode)
        if p is not None:
            ranked.append((item, p.value))
    ranked.sort(key=lambda pair: (-pair[1], pair[0]))
    return tuple(ranked[:r])
