"""Offline evaluation: splits, error metrics, top-N quality, experiment runs."""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, field, make_dataclass
from typing import NamedTuple

from .cache import SimilarityCache
from .errors import EmptyInputError
from .predict import predict, recommend_top_n
from .ratings import RatingRecord, RatingScale, RatingsMatrix, build_matrix
from .similarity import SimilarityMethod

HIT_DEFS = ("correct", "coverage")
METRIC_GROUPS = ("all", "accuracy", "topn")
# the report's metrics in column order: rating error, then top-N quality
METRICS = ("mae", "nmae", "rmse", "precision", "recall", "f1", "hit_rate_pct")


class PredictionPair(NamedTuple):
    predicted: float
    actual: float


EvalReport = make_dataclass(
    "EvalReport",
    [("method", str), ("k", int), ("params", dict, field(default_factory=dict)),
     *((name, float | None, None) for name in METRICS),
     ("coverage", int, 0), ("seconds", float, 0.0)],
    namespace={"__module__": __name__}, frozen=True)
EvalReport.__doc__ = """Metric results for one experiment configuration.

One field per name in ``METRICS``. Metrics outside the requested group are
None, as are error metrics when no test pair was predictable. ``coverage``
counts the test records that got no prediction.
"""


def _shuffled_records(m: RatingsMatrix, seed: int) -> list[RatingRecord]:
    # records() is already canonically ordered, so the shuffle is the only
    # randomness and the split depends on nothing but the seed
    ordered = list(m.records())
    random.Random(seed).shuffle(ordered)
    return ordered


def split_holdout(m: RatingsMatrix, ratio: float, seed: int) -> tuple[RatingsMatrix, list[RatingRecord]]:
    """Seeded record-level partition into a train matrix and test records."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0,1), got {ratio}")
    ordered = _shuffled_records(m, seed)
    n_train = int(round(len(ordered) * ratio))
    train = build_matrix(ordered[:n_train], m.scale)
    return train, ordered[n_train:]


def kfold_split(m: RatingsMatrix, folds: int, seed: int) -> list[tuple[RatingsMatrix, list[RatingRecord]]]:
    """Seeded shuffle, then ``folds`` nearly equal parts; each tests once.

    Part sizes differ by at most one (the first ``n % folds`` parts are one
    record larger).
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    ordered = _shuffled_records(m, seed)
    n = len(ordered)
    base, extra = divmod(n, folds)
    parts: list[list[RatingRecord]] = []
    start = 0
    for i in range(folds):
        size = base + (1 if i < extra else 0)
        parts.append(ordered[start:start + size])
        start += size
    out = []
    for i in range(folds):
        train_records = [rec for j, part in enumerate(parts) if j != i for rec in part]
        out.append((build_matrix(train_records, m.scale), parts[i]))
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def mae(pairs: list[PredictionPair]) -> float:
    if not pairs:
        raise EmptyInputError("mae needs at least one prediction pair")
    return math.fsum(abs(p - r) for p, r in pairs) / len(pairs)


def nmae(mae_value: float, scale: RatingScale) -> float:
    if mae_value < 0:
        raise ValueError(f"mae must be >= 0, got {mae_value}")
    return mae_value / scale.span


def rmse(pairs: list[PredictionPair]) -> float:
    if not pairs:
        raise EmptyInputError("rmse needs at least one prediction pair")
    return math.sqrt(math.fsum((p - r) ** 2 for p, r in pairs) / len(pairs))


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
                   method: SimilarityMethod, *, k: int, r: int,
                   relevance: float, hit_def: str = "correct",
                   prediction: str = "resnick", metrics: str = "all",
                   cache: SimilarityCache | None = None) -> dict:
    """All metrics for one already-made split; returns a plain value dict.

    Test records and test users are walked in sorted order so every
    accumulated float is order-stable regardless of how the split was
    produced or how many workers sit above this call. Rating accuracy asks
    each test user's row for the raters of its test items only, once per
    user; top-N ranking asks for full rows. Without a ``cache`` the call
    makes one for ``method`` and ``train``.
    """
    if hit_def not in HIT_DEFS:
        raise ValueError(f"unknown hit_def {hit_def!r}; expected one of {', '.join(HIT_DEFS)}")
    if metrics not in METRIC_GROUPS:
        raise ValueError(f"unknown metrics group {metrics!r}; expected one of {', '.join(METRIC_GROUPS)}")
    if not math.isfinite(relevance):
        raise ValueError(f"relevance must be finite, got {relevance}")
    if cache is None:
        cache = SimilarityCache(method, train)
    cache.check(method, train)

    out: dict = {**dict.fromkeys(METRICS), "coverage": 0}
    by_user: dict[str, list[RatingRecord]] = {}
    for rec in test:
        by_user.setdefault(rec.user, []).append(rec)

    if metrics in ("all", "accuracy"):
        pairs: list[PredictionPair] = []
        misses = 0
        users, items = train._user_index, train._item_index
        for user in sorted(by_user):
            recs = by_user[user]
            ia = users.get(user)
            if ia is None:
                misses += len(recs)
                continue
            cache.row(ia, {ii for rec in recs if (ii := items.get(rec.item)) is not None})
            for rec in sorted(recs, key=lambda t: t.item):
                p = predict(user, rec.item, k, method, train, cache, prediction)
                if p is None:
                    misses += 1
                else:
                    pairs.append(PredictionPair(p.value, rec.value))
        if pairs:
            m_value = mae(pairs)
            out["mae"] = m_value
            out["nmae"] = nmae(m_value, train.scale)
            out["rmse"] = rmse(pairs)
        out["coverage"] = misses

    if metrics in ("all", "topn"):
        per_user: list[tuple[float, float, float]] = []
        hit_counts: list[int] = []
        for user in sorted(by_user):
            if train.has_user(user):
                recs = [item for item, _ in recommend_top_n(
                    user, r, k, method, train, cache=cache, mode=prediction)]
            else:
                recs = []
            relevant = {rec.item for rec in by_user[user] if rec.value >= relevance}
            correct = len(set(recs) & relevant)
            hit_counts.append(correct if hit_def == "correct" else len(recs))
            if relevant:
                per_user.append(precision_recall_f1(recs, relevant))
        if per_user:
            precision = math.fsum(p for p, _, _ in per_user) / len(per_user)
            recall = math.fsum(r_ for _, r_, _ in per_user) / len(per_user)
        else:
            precision = 0.0
            recall = 0.0
        out["precision"] = precision
        out["recall"] = recall
        out["f1"] = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        out["hit_rate_pct"] = hit_rate(hit_counts)

    return out


def run_experiment(train: RatingsMatrix, test: list[RatingRecord],
                   method: SimilarityMethod, *, k: int = 40, r: int = 20,
                   fold: int | None = None, relevance: float | None = None,
                   hit_def: str = "correct", prediction: str = "resnick",
                   metrics: str = "all",
                   cache: SimilarityCache | None = None) -> EvalReport:
    """One configuration over a finished split: predict, score, report.

    ``(train, test)`` comes from :func:`split_holdout` or one entry of
    :func:`kfold_split`; ``fold`` labels the report with that entry's index.
    Identical arguments always produce an identical report (timing aside).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    started = time.perf_counter()
    if relevance is None:
        relevance = default_relevance_threshold(train.scale)
    values = evaluate_split(train, test, method, k=k, r=r, relevance=relevance,
                            hit_def=hit_def, prediction=prediction,
                            metrics=metrics, cache=cache)
    params = dict(method.params)
    if fold is not None:
        params["fold"] = fold
    if metrics in ("all", "topn"):
        params["r"] = r
    return EvalReport(method=method.name, k=k, params=params,
                      seconds=time.perf_counter() - started, **values)


def average_report(reports: list[EvalReport]) -> EvalReport:
    """Mean row over fold reports: metric means, summed coverage and time."""
    if not reports:
        raise EmptyInputError("cannot average zero reports")

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

CSV_COLUMNS = ("method", "k", "params", *METRICS, "coverage", "seconds")


def _params_text(params: dict) -> str:
    return ";".join(f"{key}={params[key]}" for key in sorted(params))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _rows(reports: list[EvalReport], include_timing: bool) -> list[dict]:
    """Each report as a field dict; ``seconds`` is None unless timing is wanted."""
    return [{**asdict(rep), "seconds": rep.seconds if include_timing else None}
            for rep in reports]


def render_csv(reports: list[EvalReport], include_timing: bool = False) -> str:
    """Stable-order CSV; timing cells stay empty unless explicitly wanted."""
    lines = [",".join(CSV_COLUMNS)]
    for row in _rows(reports, include_timing):
        row["params"] = _params_text(row["params"])
        lines.append(",".join(_cell(row[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def render_json(reports: list[EvalReport], include_timing: bool = False) -> str:
    import json

    return json.dumps(_rows(reports, include_timing), indent=2, sort_keys=True) + "\n"
