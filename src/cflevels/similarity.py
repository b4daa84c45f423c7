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
downstream. :func:`_pearson` is the one formula, fed one overlap by
:func:`_base` and many by the row builder.
"""

from __future__ import annotations

import functools
import math
import sys
from operator import mul
from typing import Callable

from .errors import _one_of
from .levels import _SHRINKS, NEGATIVE_FORMS, _banded_rule, build_level_table
from .ratings import RatingsMatrix, _mean

# the smallest positive normal float
_FLOAT_MIN = sys.float_info.min
# a deviation below this has a subnormal square, which has lost bits
_TINY_DEVIATION = 2.0 ** -511
# each nonzero deviation from a mean of at least this is at least 2 ** -503:
# near the mean it is exact, a multiple of the rating's ulp
_TINY_MEAN = 2.0 ** -450


# ---------------------------------------------------------------------------
# base correlation
# ---------------------------------------------------------------------------

def _pearson(xs: list[float], ys: list[float], keep_negative: bool = True) -> float:
    """Pearson of a pair's ratings on an overlap of 2 or more items, as aligned lists.

    ``math.fsum`` keeps every sum exactly rounded, so the result does not
    depend on the order of the items. Each deviation from the mean is
    computed once, and each square is the product ``d * d``: that is
    correctly rounded, where ``d ** 2`` goes through the C library's
    ``pow``, which is slower and may miss the last bit. It is 0 without
    variance on either side, and, with ``keep_negative`` False, as soon as
    the covariance is <= 0. A square past the float range raises
    OverflowError, as ``** 2`` did; so does a sum of deviation products
    that ``math.fsum`` cannot take, with the library's message in place of
    fsum's. A mean whose rating sum leaves the float range is taken as
    ``ratings._mean`` takes it, from sums scaled by a power of two.
    Deviations whose squares would fall below the normal float range, as
    with ratings near 1e-160, are scaled by a power of two first, which is
    exact and leaves the result as it is for the same ratings at unit
    scale.
    """
    n = len(xs)
    try:
        mx = math.fsum(xs) / n
        my = math.fsum(ys) / n
    except OverflowError:  # rare: a rating sum past the float range, where the mean is not
        mx, my = _mean(xs), _mean(ys)
    try:
        dxs = [x - mx for x in xs]
        dys = [y - my for y in ys]
        if abs(mx) < _TINY_MEAN or abs(my) < _TINY_MEAN:  # rare: only then can a deviation be tiny
            dxs, dys = _unit_scaled(dxs), _unit_scaled(dys)
        num = math.fsum(map(mul, dxs, dys))
        if num <= 0.0 and not keep_negative:
            return 0.0
        dx = math.fsum(map(mul, dxs, dxs))
        dy = math.fsum(map(mul, dys, dys))
    except (ValueError, OverflowError):  # fsum's inf - inf, or a partial sum past the float range
        raise OverflowError("a sum of ratings or of rating deviation products "
                            "is past the float range") from None
    if dx == 0.0 or dy == 0.0:
        return 0.0
    # dx * dy can leave the normal float range where dx and dy do not: take the roots apart then
    prod = dx * dy
    if _FLOAT_MIN <= prod < math.inf:
        den = math.sqrt(prod)
    elif max(dx, dy) == math.inf:  # a square past the float range: inf / inf, a NaN the clamp reads as -1
        raise OverflowError("a squared rating deviation is past the float range")
    else:
        den = math.sqrt(dx) * math.sqrt(dy)
    # clamp: floating error can push |r| a hair past 1
    return min(1.0, max(-1.0, num / den))


def _unit_scaled(ds: list[float]) -> list[float]:
    """``ds`` times the power of two that brings the largest into [0.5, 1), if its square is subnormal."""
    top = max(map(abs, ds))
    if not 0.0 < top < _TINY_DEVIATION:
        return ds
    e = -math.frexp(top)[1]
    return [math.ldexp(d, e) for d in ds]


def _base(ra: dict[int, float], rb: dict[int, float]) -> tuple[float, int]:
    """(Pearson over the overlap, co-rated count) of two rating rows; Pearson 0 below 2 items."""
    co = ra.keys() & rb.keys()
    n = len(co)
    if n < 2:
        return 0.0, n
    return _pearson([ra[ii] for ii in co], [rb[ii] for ii in co]), n


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


@functools.cache
def _exp_half(co_rated: int) -> float:
    """``exp(-co_rated / 2)`` correctly rounded, so it is the same on every host.

    Taken through ``decimal``'s correctly rounded exp at 40 digits, not the
    C library's ``exp``, then rounded once more to a float; and kept per
    count, so a row table and :func:`apply_spcc` share it. A count whose exp
    underflows gives 0.0, as ``math.exp`` does.
    """
    from decimal import Context, Decimal  # lazily: most runs never score spcc
    return float(Decimal(-co_rated / 2.0).exp(Context(prec=40)))


def apply_spcc(score: float, co_rated: int) -> float:
    """Damp ``score`` by a sigmoid of the co-rated count (factor in (0.5, 1))."""
    return score * (1.0 / (1.0 + _exp_half(co_rated)))


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

    Positive branch: co_rated >= t and score >= y -> 2 * score, the banded
    rule at divisor 1 (``score + score / 1`` is ``score + score`` exactly).
    Negative branch: dynamic's eq4 shrink, score / (1 + score^2), which
    shrinks magnitude and preserves sign.
    """
    return _banded_rule(score, 1 if co_rated >= t else None, y, _SHRINKS["eq4"])


# ---------------------------------------------------------------------------
# configured methods
# ---------------------------------------------------------------------------

METHOD_NAMES = ("pcc", "wpcc", "spcc", "plus", "static", "dynamic")


class SimilarityMethod:
    """A named adjustment of the Pearson base with its parameters pinned.

    ``score(a, b, m)`` computes (Pearson, co-rated count) for the pair and
    hands both to ``adjust(pcc, co_rated, m)``. Both are pure functions of
    the pair and the matrix, so one method instance serves any number of
    caches and matrices. ``adjust`` must map a zero Pearson base to a score <= 0
    at every co-rated count: similarity rows leave out every zero-base pair
    on the strength of it. A :class:`SimilarityCache` makes one zero-base
    call per co-rated count a pair of its matrix can have when it is made,
    and refuses a method that breaks the rule, so such a method, or a
    matrix too small for it, fails there. ``lifts_negatives`` says whether
    ``adjust`` may score a negative base above 0: of :func:`make_method`'s
    methods only dynamic ``eq8`` does; a hand-made one is assumed to.
    A cache fills its rows through ``_scorer``, which here calls ``adjust``
    once per base, as plus keeps; :func:`make_method`'s other methods read a
    factor (pcc, wpcc, spcc) or a divisor (static, dynamic) from a table by
    co-rated count, made once per (method, matrix), and give the same bits.
    Static's and dynamic's ``adjust`` is the one banded rule,
    ``levels._banded_rule``, which ``apply_static`` and ``apply_dynamic``
    call too; their row tables apply an inline copy of it per base.
    """

    def __init__(self, name: str, adjust: Callable[[float, int, RatingsMatrix], float],
                 params: dict[str, object] | None = None, *,
                 lifts_negatives: bool = True) -> None:
        self.name = name
        self.params = dict(params or {})
        self.adjust = adjust
        self.lifts_negatives = lifts_negatives

    def score(self, a: str, b: str, m: RatingsMatrix) -> float:
        return self.adjust(*_base(m._by_user[m._require_user(a)],
                                  m._by_user[m._require_user(b)]), m)

    def _scorer(self, m: RatingsMatrix, n: int):
        """A function from (user index, base, co-rated count < ``n``) triples to their scores above 0."""
        adjust = self.adjust
        return lambda bases: {ib: s for ib, base, co in bases if (s := adjust(base, co, m)) > 0.0}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimilarityMethod({self.name!r}, {self.params!r})"


def _linear(name: str, params: dict[str, object] | None, adjust) -> SimilarityMethod:
    """A method whose ``adjust`` is the base times a factor of the count (pcc, wpcc, spcc),
    scoring rows from a table of ``adjust(1.0, co, m)``, which is that factor exactly:
    pcc's is 1.0, and ``1.0 * base`` is the base."""
    method = SimilarityMethod(name, adjust, params, lifts_negatives=False)

    def scorer(m, n):
        factors = [adjust(1.0, co, m) for co in range(n)]
        return lambda bases: {ib: s for ib, base, co in bases if (s := factors[co] * base) > 0.0}
    method._scorer = scorer
    return method


def _banded(name: str, params: dict[str, object], divisor, shrink, floor: float,
            lifts_negatives: bool) -> SimilarityMethod:
    """A method whose ``adjust`` is the banded rule at ``divisor(m, co)`` (static, dynamic),
    scoring rows from a table of those divisors through an inline copy of the rule."""
    method = SimilarityMethod(
        name, lambda s, co, m: _banded_rule(s, divisor(m, co), floor, shrink), params,
        lifts_negatives=lifts_negatives)

    def scorer(m, n):
        # the rule inline: a call per base added 10-50 ns to each (2-CPU host, CPython
        # 3.11); test_row_scorer_gives_the_bits_of_adjust holds this copy to adjust
        divisors = [divisor(m, co) for co in range(n)]
        return lambda bases: {ib: s for ib, base, co in bases if (
            s := base + base / d if (d := divisors[co]) is not None and base >= floor
            else shrink(base)) > 0.0}
    method._scorer = scorer
    return method


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
    _one_of("similarity method", name, METHOD_NAMES)
    if name == "pcc":
        return _linear("pcc", None, lambda s, co, m: s)
    if name == "wpcc":
        _check_count("WPCC threshold", big_t)
        return _linear("wpcc", {"T": big_t}, lambda s, co, m: apply_wpcc(s, co, big_t))
    if name == "spcc":
        return _linear("spcc", None, lambda s, co, m: apply_spcc(s, co))
    if name == "plus":
        if not (0 < alpha < math.inf and 0 < beta < math.inf):
            raise ValueError("power-law parameters must be positive and finite, "
                             f"got alpha={alpha} beta={beta}")
        return SimilarityMethod("plus", lambda s, co, m: plus_adjust(s, alpha, beta),
                                {"alpha": alpha, "beta": beta}, lifts_negatives=False)
    if name == "static":
        _check_count("co-rated threshold t", t)
        if not math.isfinite(y):
            raise ValueError(f"correlation threshold y must be finite, got {y}")
        return _banded("static", {"t": t, "y": y}, lambda m, co: 1 if co >= t else None,
                       _SHRINKS["eq4"], y, lifts_negatives=False)
    _one_of("negative_form", negative_form, NEGATIVE_FORMS)  # dynamic, the last name
    return _banded("dynamic", {"negative_form": negative_form},
                   lambda m, co: _band_table(m.user_count, m.item_count).divisor_for(co),
                   _SHRINKS[negative_form], -math.inf, lifts_negatives=negative_form == "eq8")
