"""Offline evaluation: splits, error metrics, top-N quality, experiment runs."""

from __future__ import annotations

import math
import random
import time
from collections import namedtuple
from operator import mul
from typing import Iterator, NamedTuple

from .cache import SimilarityCache
from .errors import ConfigError, EmptyInputError, _one_of
from .predict import _checked_cache, predict, recommend_top_n
from .ratings import RatingRecord, RatingScale, RatingsMatrix
from .similarity import SimilarityMethod

HIT_DEFS = ("correct", "coverage")
METRIC_GROUPS = ("all", "accuracy", "topn")
# the report's metrics in column order: rating error, then top-N quality
METRICS = ("mae", "nmae", "rmse", "precision", "recall", "f1", "hit_rate_pct")


class PredictionPair(NamedTuple):
    predicted: float
    actual: float


class EvalReport(namedtuple("EvalReport",
                            ("method", "k", "params", *METRICS, "coverage", "seconds"),
                            defaults=(None, *(None for _ in METRICS), 0, 0.0))):
    """Metric results for one experiment configuration.

    One field per name in ``METRICS``. Metrics outside the requested group are
    None, as are error metrics when no test pair was predictable. ``coverage``
    counts the test records that got no prediction.
    """

    __slots__ = ()

    def __new__(cls, method: str, k: int, params: dict | None = None, *rest, **named) -> EvalReport:
        # each report gets its own params dict, never one shared default
        return super().__new__(cls, method, k, {} if params is None else params, *rest, **named)


def _shuffled_cells(m: RatingsMatrix, seed: int) -> list[int]:
    # cells in the canonical order of m.records(): the split depends on nothing but the seed
    cells = m._cells()
    random.Random(seed).shuffle(cells)
    return cells


def split_holdout(m: RatingsMatrix, ratio: float, seed: int) -> tuple[RatingsMatrix, list[RatingRecord]]:
    """Seeded record-level partition into test records and a train matrix cut from ``m``, neither empty."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0,1), got {ratio}")
    ordered = _shuffled_cells(m, seed)
    n_train = int(round(len(ordered) * ratio))
    if n_train in (0, len(ordered)):
        raise ConfigError(f"a {ratio} holdout of {len(ordered)} ratings trains on {n_train} "
                          f"and tests {len(ordered) - n_train}; both need at least one")
    return m._cut(ordered[n_train:])


def kfold_split(m: RatingsMatrix, folds: int, seed: int) -> Iterator[tuple[RatingsMatrix, list[RatingRecord]]]:
    """Seeded shuffle, then ``folds`` nearly equal parts; each tests once.

    Part sizes differ by at most one (the first ``n % folds`` parts are one
    record larger). More folds than ratings raise :class:`ConfigError` at
    the call. Yields the folds in order, cutting each from ``m``'s indexes when it is reached.
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    ordered = _shuffled_cells(m, seed)
    n = len(ordered)
    if folds > n:
        raise ConfigError(f"{folds} folds of {n} ratings leave {folds - n} with nothing to test")
    base, extra = divmod(n, folds)
    cuts = [i * base + min(i, extra) for i in range(folds + 1)]
    return (m._cut(ordered[lo:hi]) for lo, hi in zip(cuts, cuts[1:]))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _mae(errors: list[float]) -> float:
    return math.fsum(map(abs, errors)) / len(errors)


def _rmse(errors: list[float]) -> float:
    # d * d is correctly rounded, where d ** 2 goes through the C library's pow
    total = math.fsum(map(mul, errors, errors))
    if total == math.inf:  # a square past the float range, though the RMSE is at most the largest error
        raise OverflowError("a squared prediction error is past the float range")
    return math.sqrt(total / len(errors))


def mae(pairs: list[PredictionPair]) -> float:
    if not pairs:
        raise EmptyInputError("mae needs at least one prediction pair")
    return _mae([p - r for p, r in pairs])


def nmae(mae_value: float, scale: RatingScale) -> float:
    if mae_value < 0:
        raise ValueError(f"mae must be >= 0, got {mae_value}")
    return mae_value / scale.span


def rmse(pairs: list[PredictionPair]) -> float:
    if not pairs:
        raise EmptyInputError("rmse needs at least one prediction pair")
    return _rmse([p - r for p, r in pairs])


def precision_recall_f1(topn, relevant) -> tuple[float, float, float]:
    """Per-user precision/recall/F1 of a recommendation list.

    Empty list -> precision 0; empty relevant set -> recall 0 (callers
    normally exclude such users from averages); p + r = 0 -> f1 0.
    """
    recommended = list(topn)
    hits = len(set(recommended) & set(relevant))
    p = hits / len(recommended) if recommended else 0.0
    r = hits / len(relevant) if relevant else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def hit_rate(hit_counts) -> float:
    """Percentage of users with at least one hit; empty population -> 0."""
    counts = list(hit_counts)
    if not counts:
        return 0.0
    return 100.0 * sum(1 for h in counts if h > 0) / len(counts)


def default_relevance_threshold(scale: RatingScale) -> float:
    """An item is relevant when rated in the top quarter of the scale."""
    return float(math.ceil(scale.rmin + 0.75 * scale.span))


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

def evaluate_split(train: RatingsMatrix, test: list[RatingRecord],
                   method: SimilarityMethod, *, ks, r: int,
                   relevance: float, hit_def: str = "correct",
                   prediction: str = "resnick", metrics: str = "all",
                   cache: SimilarityCache | None = None) -> list[dict]:
    """All metrics for one already-made split; one plain value dict per k of ``ks``.

    One walk over the test users, in sorted order, serves both metric groups
    and every k, so every accumulated float is order-stable regardless of
    how the split was produced. Each known test user's row is built once:
    against the raters of its test items under ``"accuracy"``, whole
    whenever top-N ranks. Without a ``cache`` the call makes one for
    ``method`` and ``train``. Each test record is predicted once at the
    largest k, and that value serves every k at or above its support, since
    the top k raters are then all of its positive raters; only a smaller k
    predicts it again. So the predicted records keep one list of errors, and
    a k copies it only to patch the errors of the records it predicted
    again: its MAE and RMSE are C-level passes over that list. Top-N ranks
    each known test user once per k against one relevant set. Every
    argument, the cache included, is checked before any row is built,
    whatever the test records.
    """
    ks = tuple(ks)
    if not ks or min(ks) < 1 or len(set(ks)) < len(ks):
        raise ValueError(f"ks must be one or more distinct k values >= 1, got {list(ks)}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    _one_of("hit_def", hit_def, HIT_DEFS)
    _one_of("metrics group", metrics, METRIC_GROUPS)
    if not math.isfinite(relevance):
        raise ValueError(f"relevance must be finite, got {relevance}")
    top, low = max(ks), min(ks)
    cache = _checked_cache(top, method, train, cache, prediction)

    accuracy, topn = metrics != "topn", metrics != "accuracy"
    by_user: dict[str, list[RatingRecord]] = {}
    for rec in test:
        by_user.setdefault(rec.user, []).append(rec)
    errors: list[float] = []  # predicted minus actual rating of each predicted record, at the largest k
    # (index into errors, error) of each record that a k predicts again, below its support
    again: list[list[tuple[int, float]]] = [[] for _ in ks]
    per_user: list[list[tuple[float, float, float]]] = [[] for _ in ks]
    hit_counts: list[list[int]] = [[] for _ in ks]
    misses = 0
    users, items = train._user_index, train._item_index
    for user in sorted(by_user):
        recs = by_user[user]
        ia = users.get(user)
        if ia is None:
            misses += len(recs)
        elif accuracy:
            # the one row request: ranking below reads the full row too
            cache.row(ia, None if topn else
                      {ii for rec in recs if (ii := items.get(rec.item)) is not None})
            for rec in sorted(recs, key=lambda t: t.item):
                p = predict(user, rec.item, top, method, train, cache, prediction)
                if p is None:
                    misses += 1
                    continue
                if p.support > low:
                    for k, k_again in zip(ks, again):
                        if k < p.support:
                            q = predict(user, rec.item, k, method, train, cache, prediction)
                            k_again.append((len(errors), q.value - rec.value))
                errors.append(p.value - rec.value)
        if topn:
            relevant = {rec.item for rec in recs if rec.value >= relevance}
            for k, k_users, k_hits in zip(ks, per_user, hit_counts):
                ranked = [] if ia is None else [item for item, _ in recommend_top_n(
                    user, r, k, method, train, cache=cache, mode=prediction)]
                k_hits.append(len(relevant.intersection(ranked)) if hit_def == "correct"
                              else len(ranked))
                if relevant:
                    k_users.append(precision_recall_f1(ranked, relevant))

    outs: list[dict] = []
    for k_again, k_users, k_hits in zip(again, per_user, hit_counts):
        out = {**dict.fromkeys(METRICS), "coverage": 0}
        if accuracy:
            out["coverage"] = misses
            if errors:
                k_errors = errors
                if k_again:
                    k_errors = errors.copy()
                    for i, error in k_again:
                        k_errors[i] = error
                m_value = _mae(k_errors)
                out.update(mae=m_value, nmae=nmae(m_value, train.scale), rmse=_rmse(k_errors))
        if topn:
            precision = math.fsum(p for p, _, _ in k_users) / len(k_users) if k_users else 0.0
            recall = math.fsum(r_ for _, r_, _ in k_users) / len(k_users) if k_users else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
            out.update(precision=precision, recall=recall, f1=f1, hit_rate_pct=hit_rate(k_hits))
        outs.append(out)
    return outs


def run_experiment(train: RatingsMatrix, test: list[RatingRecord],
                   method: SimilarityMethod, *, ks=(40,), r: int = 20,
                   fold: int | None = None, relevance: float | None = None,
                   hit_def: str = "correct", prediction: str = "resnick",
                   metrics: str = "all",
                   cache: SimilarityCache | None = None) -> list[EvalReport]:
    """One configuration over a finished split at each k: predict, score, report.

    ``(train, test)`` comes from :func:`split_holdout` or one entry of
    :func:`kfold_split`; ``fold`` labels the reports with that entry's index.
    One :func:`evaluate_split` pass serves every k of ``ks``, so the call
    returns one report per k, in ``ks`` order, each carrying the whole
    pass's wall time as ``seconds``. Identical arguments always produce
    identical reports (timing aside).
    """
    ks = tuple(ks)
    started = time.perf_counter()
    if relevance is None:
        relevance = default_relevance_threshold(train.scale)
    values = evaluate_split(train, test, method, ks=ks, r=r, relevance=relevance,
                            hit_def=hit_def, prediction=prediction,
                            metrics=metrics, cache=cache)
    params = dict(method.params)
    if fold is not None:
        params["fold"] = fold
    if metrics in ("all", "topn"):
        params["r"] = r
    seconds = time.perf_counter() - started
    return [EvalReport(method=method.name, k=k, params=dict(params), seconds=seconds, **v)
            for k, v in zip(ks, values)]


def average_report(reports: list[EvalReport]) -> EvalReport:
    """Mean row over one (method, k) cell's fold reports: metric means, summed coverage and time."""
    if not reports:
        raise EmptyInputError("cannot average zero reports")

    def cell(rep: EvalReport) -> tuple:
        return rep.method, rep.k, {**rep.params, "fold": None}

    if any(cell(rep) != cell(reports[0]) for rep in reports):
        raise ValueError("cannot average reports that differ in method, k or a param "
                         "other than fold")

    def mean_of(name: str) -> float | None:
        vals = [getattr(rep, name) for rep in reports if getattr(rep, name) is not None]
        if not vals:
            return None
        return math.fsum(vals) / len(vals)

    params = dict(reports[0].params)
    params["fold"] = "avg"
    return EvalReport(
        method=reports[0].method, k=reports[0].k, params=params,
        **{name: mean_of(name) for name in METRICS},
        coverage=sum(rep.coverage for rep in reports),
        seconds=math.fsum(rep.seconds for rep in reports))


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

CSV_COLUMNS = EvalReport._fields


def _params_text(params: dict) -> str:
    return ";".join(f"{key}={params[key]}" for key in sorted(params))


def _rows(reports: list[EvalReport], include_timing: bool) -> list[dict]:
    """Each report as a field dict; ``seconds`` is None unless timing is wanted."""
    return [{**rep._asdict(), "seconds": rep.seconds if include_timing else None}
            for rep in reports]


def render_csv(reports: list[EvalReport], include_timing: bool = False) -> str:
    """Stable-order CSV; timing cells stay empty unless explicitly wanted.

    None is an empty cell and a float its ``repr``; a field holding a comma,
    a quote or a newline is quoted.
    """
    import csv
    import io

    out = io.StringIO()
    writer = csv.DictWriter(out, CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in _rows(reports, include_timing):
        writer.writerow({**row, "params": _params_text(row["params"])})
    return out.getvalue()


def render_json(reports: list[EvalReport], include_timing: bool = False) -> str:
    import json

    return json.dumps(_rows(reports, include_timing), indent=2, sort_keys=True) + "\n"
