"""Parsing of delimited rating files into rating records."""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import MalformedLineError, OutOfScaleRatingError
from .ratings import RatingRecord, RatingScale

log = logging.getLogger(__name__)

_ROLES = ("user", "item", "rating", "ignored")


@dataclass(frozen=True)
class DatasetFormat:
    """Column layout of a ratings file.

    ``delimiter`` None splits on any whitespace run; an empty one is
    refused. ``columns`` names each field's role in order; exactly one each
    of user, item and rating, any number of ignored fields. Lines may carry
    extra trailing fields beyond the declared columns; those are ignored.
    """

    delimiter: str | None
    columns: tuple[str, ...]
    scale: RatingScale

    def __post_init__(self) -> None:
        if self.delimiter == "":
            raise ValueError("delimiter must be None or non-empty, got ''")
        for role in self.columns:
            if role not in _ROLES:
                raise ValueError(f"unknown column role {role!r}")
        for role in ("user", "item", "rating"):
            if self.columns.count(role) != 1:
                raise ValueError(f"columns must name {role!r} exactly once, got {self.columns}")


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
                parts = line.split(fmt.delimiter)
                if len(parts) < len(fmt.columns):
                    raise MalformedLineError(
                        f"{path}:{lineno}: expected {len(fmt.columns)} fields, got {len(parts)}")
                if not parts[user_at] or not parts[item_at]:
                    raise MalformedLineError(f"{path}:{lineno}: empty user or item id")
                try:
                    value = float(parts[rating_at])
                except ValueError:
                    raise MalformedLineError(
                        f"{path}:{lineno}: unparsable rating {parts[rating_at]!r}") from None
                if not fmt.scale.contains(value):
                    raise OutOfScaleRatingError(
                        f"{path}:{lineno}: rating {value} outside scale "
                        f"[{fmt.scale.rmin}, {fmt.scale.rmax}]")
            except (MalformedLineError, OutOfScaleRatingError) as exc:
                if not skip_bad_lines:
                    raise
                log.warning("skipping bad line: %s", exc)
                rejected += 1
                continue
            records.append(RatingRecord(parts[user_at], parts[item_at], value))
    if rejected:
        log.warning("%s: rejected %d bad line(s)", path, rejected)
    return records
