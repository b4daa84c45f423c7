"""Parsing of delimited rating files into rating records."""

from __future__ import annotations

from typing import NamedTuple

from .errors import MalformedLineError, OutOfScaleRatingError
from .ratings import RatingRecord, RatingScale, _record

_ROLES = ("user", "item", "rating", "ignored")


class _Layout(NamedTuple):
    delimiter: str | None
    columns: tuple[str, ...]
    scale: RatingScale


class DatasetFormat(_Layout):
    """Column layout of a ratings file.

    ``delimiter`` None splits on any whitespace run; an empty one is
    refused. ``columns`` names each field's role in order; exactly one each
    of user, item and rating, any number of ignored fields. Lines may carry
    extra trailing fields beyond the declared columns; those are ignored.

    An immutable named tuple. Every way to make one (the constructor,
    ``_replace``, ``_make``, unpickling) goes through ``_make``, which
    checks the layout.
    """

    __slots__ = ()

    def __new__(cls, delimiter: str | None, columns: tuple[str, ...],
                scale: RatingScale) -> DatasetFormat:
        return cls._make((delimiter, columns, scale))

    @classmethod
    def _make(cls, iterable) -> DatasetFormat:
        fmt = super()._make(iterable)
        if fmt.delimiter == "":
            raise ValueError("delimiter must be None or non-empty, got ''")
        for role in fmt.columns:
            if role not in _ROLES:
                raise ValueError(f"unknown column role {role!r}")
        for role in ("user", "item", "rating"):
            if fmt.columns.count(role) != 1:
                raise ValueError(f"columns must name {role!r} exactly once, got {fmt.columns}")
        return fmt


# the --format choices in --help order; "custom" is the default layout
FORMATS: dict[str, DatasetFormat] = {
    "epinions": DatasetFormat(
        delimiter=None,
        columns=("user", "item", "rating"),
        scale=RatingScale(1.0, 5.0)),
    "movielens-1m": DatasetFormat(
        delimiter="::",
        columns=("user", "item", "rating", "ignored"),
        scale=RatingScale(1.0, 5.0)),
    "movietweetings": DatasetFormat(
        delimiter="::",
        columns=("user", "item", "rating"),
        scale=RatingScale(0.0, 10.0)),
    "custom": DatasetFormat(
        delimiter=None,
        columns=("user", "item", "rating"),
        scale=RatingScale(1.0, 5.0)),
}


def parse_ratings(path: str, fmt: DatasetFormat, *,
                  skip_bad_lines: bool = False) -> list[RatingRecord]:
    """Read one record per data line, validating field count and scale.

    Bad lines (bytes that are not UTF-8, too few fields, an empty user or
    item id, an unparsable or out-of-scale rating) raise with their line
    number unless ``skip_bad_lines`` is set, in which case each is logged
    and a final rejected count reported. Whitespace-only lines are skipped;
    they carry no data either way. A leading UTF-8 byte-order mark is
    dropped.
    """
    user_at = fmt.columns.index("user")
    item_at = fmt.columns.index("item")
    rating_at = fmt.columns.index("rating")
    delimiter, width = fmt.delimiter, len(fmt.columns)
    lo, hi = fmt.scale.rmin, fmt.scale.rmax
    records: list[RatingRecord] = []
    rejected = 0
    # undecodable bytes become lone surrogates, so they fail on their own line
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            try:
                if not line.isascii() and any("\udc80" <= ch <= "\udcff" for ch in line):
                    raise MalformedLineError(f"{path}:{lineno}: not UTF-8 text")
                parts = line.split(delimiter)
                if len(parts) < width:
                    raise MalformedLineError(f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
                if not (user := parts[user_at]) or not (item := parts[item_at]):
                    raise MalformedLineError(f"{path}:{lineno}: empty user or item id")
                try:
                    value = float(parts[rating_at])
                except ValueError:
                    raise MalformedLineError(
                        f"{path}:{lineno}: unparsable rating {parts[rating_at]!r}") from None
                if not lo <= value <= hi:
                    raise OutOfScaleRatingError(f"{path}:{lineno}: rating {value} outside scale [{lo}, {hi}]")
            except (MalformedLineError, OutOfScaleRatingError) as exc:
                if not skip_bad_lines:
                    raise
                import logging

                logging.getLogger(__name__).warning("skipping bad line: %s", exc)
                rejected += 1
                continue
            records.append(_record(RatingRecord, (user, item, value)))
    if rejected:  # the first skipped line imported logging
        logging.getLogger(__name__).warning("%s: rejected %d bad line(s)", path, rejected)
    return records
