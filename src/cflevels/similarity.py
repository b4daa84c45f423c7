"""Pairwise user-user similarity measures.

Every measure is one adjustment formula (``apply_*`` / ``plus_adjust``)
applied to a single base: the Pearson correlation of the pair and its
co-rated item count. :class:`SimilarityMethod` pairs a formula with that
base, so each configured method differs from plain Pearson only in how it
adjusts the number.

The base correlation is Pearson over the co-rated item set, with both means
taken over that same set. Degenerate pairs (fewer than 2 co-rated items, or
zero rating variance on the overlap for either user) score 0, which keeps
them out of positive-similarity neighborhoods without special-casing
downstream.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .levels import _check_form, apply_dynamic, build_level_table
from .ratings import RatingsMatrix


# ---------------------------------------------------------------------------
# base correlation
# ---------------------------------------------------------------------------

def _base(ra: dict[int, float], rb: dict[int, float]) -> tuple[float, int]:
    """(Pearson over the overlap, co-rated count) of two users' rating rows.

    The one overlap kernel: the overlap is the key-set intersection and both
    means are taken over it. Two ``math.fsum`` passes keep every sum exactly
    rounded, so the result does not depend on the order of the items. The
    Pearson is 0 below 2 items or without variance on either side.
    """
    co = ra.keys() & rb.keys()
    n = len(co)
    if n < 2:
        return 0.0, n
    xs = [ra[ii] for ii in co]
    ys = [rb[ii] for ii in co]
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    num = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    dx = math.fsum((x - mx) ** 2 for x in xs)
    dy = math.fsum((y - my) ** 2 for y in ys)
    if dx == 0.0 or dy == 0.0:
        return 0.0, n
    # clamp: floating error can push |r| a hair past 1
    return min(1.0, max(-1.0, num / math.sqrt(dx * dy))), n


# ---------------------------------------------------------------------------
# adjustments
# ---------------------------------------------------------------------------

def _check_count(what: str, value: float) -> None:
    """Reject a co-rated-count threshold that is not a finite number >= 1."""
    if not 1 <= value < math.inf:
        raise ValueError(f"{what} must be finite and >= 1, got {value}")


# dynamic's bands by (user count, item count), the only inputs they have
_band_table = functools.lru_cache(maxsize=64)(build_level_table)


def apply_wpcc(score: float, co_rated: int, threshold: int) -> float:
    """Damp ``score`` linearly when the pair has fewer than ``threshold`` co-rated items."""
    _check_count("WPCC threshold", threshold)
    if co_rated < threshold:
        return (co_rated / threshold) * score
    return score


def apply_spcc(score: float, co_rated: int) -> float:
    """Damp ``score`` by a sigmoid of the co-rated count (factor in (0.5, 1))."""
    return score * (1.0 / (1.0 + math.exp(-co_rated / 2.0)))


def plus_adjust(score: float, alpha: float, beta: float) -> float:
    """Sign-preserving power law: alpha * sign(s) * |s|^beta.

    Preserves the ordering of any score list for positive alpha and beta, so
    neighborhood membership and ranking are unchanged versus the raw scores.
    """
    if score == 0.0:
        return 0.0
    sign = 1.0 if score > 0.0 else -1.0
    return alpha * sign * abs(score) ** beta


def apply_static(score: float, co_rated: int, t: int, y: float) -> float:
    """Double the score when both thresholds clear; otherwise shrink it.

    Positive branch: co_rated >= t and score >= y -> 2 * score.
    Negative branch: score / (1 + score^2), which shrinks magnitude and
    preserves sign.
    """
    if co_rated >= t and score >= y:
        return score + score
    return score * (1.0 / (1.0 + score * score))


# ---------------------------------------------------------------------------
# configured methods
# ---------------------------------------------------------------------------

METHOD_NAMES = ("pcc", "wpcc", "spcc", "plus", "static", "dynamic")


class SimilarityMethod:
    """A named adjustment of the Pearson base with its parameters pinned.

    ``score(a, b, m)`` computes (Pearson, co-rated count) for the pair and
    hands both to ``adjust(pcc, co_rated, m)``. Both are pure functions of
    the pair and the matrix, so a method instance can be shared freely
    across threads. ``adjust`` must map a zero Pearson base to a score <= 0
    at every co-rated count: similarity rows leave out every zero-base pair
    on the strength of it. A :class:`SimilarityCache` makes one zero-base
    call per co-rated count a pair of its matrix can have when it is made,
    and refuses a method that breaks the rule, so such a method, or a
    matrix too small for it, fails there.
    """

    def __init__(self, name: str, adjust: Callable[[float, int, RatingsMatrix], float],
                 params: dict[str, object] | None = None) -> None:
        self.name = name
        self.params = dict(params or {})
        self.adjust = adjust

    def score(self, a: str, b: str, m: RatingsMatrix) -> float:
        return self.adjust(*_base(m._by_user[m._require_user(a)],
                                  m._by_user[m._require_user(b)]), m)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimilarityMethod({self.name!r}, {self.params!r})"


def make_method(name: str, *, t: int = 10, y: float = 0.20, big_t: int = 50,
                alpha: float = 100.0, beta: float = 2.0,
                negative_form: str = "eq4") -> SimilarityMethod:
    """Build a configured similarity method by name.

    Names: pcc, wpcc (uses ``big_t``), spcc, plus (power law over pcc, uses
    ``alpha``/``beta``), static (uses ``t``/``y``), dynamic (multi-level
    bands derived from the matrix shape; ``negative_form`` picks the
    below-threshold formula). The one place knobs are defaulted and checked:
    ``big_t`` and ``t`` must be finite and >= 1, ``alpha`` and ``beta``
    positive and finite, ``y`` finite. A bad knob of the named method raises
    ValueError before any pair is scored.
    """
    if name == "pcc":
        return SimilarityMethod("pcc", lambda s, co, m: s)
    if name == "wpcc":
        _check_count("WPCC threshold", big_t)
        return SimilarityMethod("wpcc", lambda s, co, m: apply_wpcc(s, co, big_t), {"T": big_t})
    if name == "spcc":
        return SimilarityMethod("spcc", lambda s, co, m: apply_spcc(s, co))
    if name == "plus":
        if not (0 < alpha < math.inf and 0 < beta < math.inf):
            raise ValueError("power-law parameters must be positive and finite, "
                             f"got alpha={alpha} beta={beta}")
        return SimilarityMethod("plus", lambda s, co, m: plus_adjust(s, alpha, beta),
                                {"alpha": alpha, "beta": beta})
    if name == "static":
        _check_count("co-rated threshold t", t)
        if not math.isfinite(y):
            raise ValueError(f"correlation threshold y must be finite, got {y}")
        return SimilarityMethod("static", lambda s, co, m: apply_static(s, co, t, y),
                                {"t": t, "y": y})
    if name == "dynamic":
        _check_form(negative_form)
        return SimilarityMethod("dynamic", lambda s, co, m: apply_dynamic(
            s, co, _band_table(m.user_count, m.item_count), negative_form),
            {"negative_form": negative_form})
    raise ValueError(f"unknown similarity method {name!r}; expected one of {', '.join(METHOD_NAMES)}")
