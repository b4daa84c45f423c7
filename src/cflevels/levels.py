"""Co-rated-count bands derived from dataset shape, and the multi-level adjustment.

The band structure depends only on how many users and items the dataset has:
the first band's lower bound comes from log2 of the item count, the band
width from dividing that by log10 of the user count. Pairs whose co-rated
count lands in band ``k`` get their correlation boosted by a factor
``1 + 1/k``; pairs below the minimum co-rated threshold (5) are shrunk
instead.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import TooFewItemsError, TooFewUsersError

MIN_CO_RATED = 5

NEGATIVE_FORMS = ("eq4", "eq8", "alg1")


def _check_form(negative_form: str) -> None:
    """Reject a below-threshold formula name outside ``NEGATIVE_FORMS``."""
    if negative_form not in NEGATIVE_FORMS:
        raise ValueError(f"unknown negative_form {negative_form!r}; "
                         f"expected one of {', '.join(NEGATIVE_FORMS)}")


def _round_half_away(x: float) -> int:
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def derive_dvu(user_count: int) -> int:
    """Level count: log10 of the user count, rounded half away from zero."""
    if user_count < 10:
        raise TooFewUsersError(f"level derivation needs at least 10 users, got {user_count}")
    return _round_half_away(math.log10(user_count))


def derive_dvi(item_count: int) -> int:
    """First-level bound: log2 of the item count, rounded half away from zero."""
    if item_count < 2:
        raise TooFewItemsError(f"level derivation needs at least 2 items, got {item_count}")
    return _round_half_away(math.log2(item_count))


def derive_step(dvi: int, dvu: int) -> int:
    """Co-rated items per band: dvi/dvu rounded half away from zero, minimum 1."""
    if dvu < 1:
        raise ValueError(f"dvu must be >= 1, got {dvu}")
    return max(1, _round_half_away(dvi / dvu))


class Band(NamedTuple):
    """One contiguous co-rated-count range; ``upper`` None means unbounded."""

    lower: int
    upper: int | None
    divisor: int

    def contains(self, co_rated: int) -> bool:
        return co_rated >= self.lower and (self.upper is None or co_rated <= self.upper)


class LevelTable(NamedTuple):
    """Ordered bands (descending co-rated count) plus the derivation inputs."""

    bands: tuple[Band, ...]
    dvu: int
    dvi: int
    step: int
    min_co_rated = MIN_CO_RATED  # a class constant, not a field: no table sets it

    def divisor_for(self, co_rated: int) -> int | None:
        """Band divisor for a co-rated count, or None below the minimum."""
        for band in self.bands:
            if band.contains(co_rated):
                return band.divisor
        return None


def build_level_table(user_count: int, item_count: int) -> LevelTable:
    """Derive the band table for a dataset of the given shape.

    The top band is open-ended; each following band spans the next ``step``
    integers downward. Generation stops before any band whose upper bound
    falls below ``MIN_CO_RATED``, and a band straddling that threshold is
    clamped so every co-rated count >= MIN_CO_RATED is positively adjusted.
    """
    dvu = derive_dvu(user_count)
    dvi = derive_dvi(item_count)
    step = derive_step(dvi, dvu)

    top = max(dvi, MIN_CO_RATED)
    bands = [Band(lower=top, upper=None, divisor=1)]
    upper = top - 1
    divisor = 2
    while upper >= MIN_CO_RATED:
        lower = max(upper - step + 1, MIN_CO_RATED)
        bands.append(Band(lower=lower, upper=upper, divisor=divisor))
        divisor += 1
        upper = lower - 1
    return LevelTable(bands=tuple(bands), dvu=dvu, dvi=dvi, step=step)


def apply_dynamic(score: float, co_rated: int, table: LevelTable,
                  negative_form: str = "eq4") -> float:
    """Adjust a correlation by its band: boost in band k by score/k, shrink below.

    ``negative_form`` selects the below-threshold formula. ``eq4`` (default,
    the only sign/order-preserving one): s / (1 + s^2). ``eq8``:
    s * (1/(1 + s^2) - 1), which flips sign. ``alg1``: the eq4 value divided
    by 6. The alternates exist for experimentation only.
    """
    _check_form(negative_form)
    divisor = table.divisor_for(co_rated)
    if divisor is not None:
        return score + score / divisor
    shrunk = score * (1.0 / (1.0 + score * score))
    if negative_form == "eq4":
        return shrunk
    if negative_form == "eq8":
        return score * (1.0 / (1.0 + score * score) - 1.0)
    return shrunk / 6.0  # alg1
