"""In-process tracing of the cflevels layers, from outside the package.

The tracer replaces each boundary function with a timing wrapper wherever
the package holds a reference to it: ``cli`` and ``evaluate`` bind names
such as ``build_matrix`` and ``kfold_split`` at import time, so patching
only the defining module would miss those call sites. ``restore`` puts the
originals back.

Every boundary feeds a per-(name, parent) aggregate of call count, total
time and self time, where self time is the call's duration minus the time
its traced children took. Coarse boundaries, which run a handful of times
per command, also record one span each (name, start, end, parent). All
times are integer nanoseconds, so self time cannot come out negative from
rounding. Each thread keeps its own stack and tables, merged when the run
is over, so timing takes no lock; only the observers that sample latencies
and oracle inputs do.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading
import time

# (module, attribute, layer.boundary) for every wrapped function
COARSE = (
    ("cflevels.ingest", "parse_ratings", "ingest.parse_ratings"),
    ("cflevels.ratings", "build_matrix", "ratings.build_matrix"),
    ("cflevels.evaluate", "kfold_split", "evaluate.kfold_split"),
    ("cflevels.evaluate", "split_holdout", "evaluate.split_holdout"),
    ("cflevels.evaluate", "run_experiment", "evaluate.run_experiment"),
    ("cflevels.evaluate", "evaluate_split", "evaluate.evaluate_split"),
    ("cflevels.evaluate", "render_csv", "cli.render_csv"),
    ("cflevels.evaluate", "render_json", "cli.render_json"),
)
HOT = (
    ("cflevels.predict", "recommend_top_n", "predict.recommend_top_n"),
    ("cflevels.predict", "predict", "predict.predict"),
    ("cflevels.predict", "neighborhood_for_item", "predict.neighborhood_for_item"),
    ("cflevels.cache", "get_or_compute", "cache.get_or_compute"),
    ("cflevels.levels", "apply_dynamic", "levels.apply_dynamic"),
)
SCORE = "similarity.score"  # SimilarityMethod.score, patched on the class

ORACLE_PREDICTIONS = 12
ORACLE_RANKINGS = 2


class _ThreadState:
    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.stack: list[list] = []  # frames: [name, child_ns, span_id]
        self.aggs: dict[tuple[str, str | None], list[int]] = {}  # count, total, self
        self.spans: list[tuple] = []


class Tracer:
    """Wraps the package's layer boundaries; see the module docstring."""

    def __init__(self, seed: int) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patched: list[tuple[object, str, object]] = []
        self._next_span = itertools.count(1)
        self._rng = random.Random(seed)
        self.predict_ns: list[int] = []
        self.rank_ns: list[int] = []
        self.predicted = 0
        self.support_total = 0
        self.caches: dict[int, object] = {}
        self.parsed_lines = 0
        self.predict_sample: list[tuple] = []
        self.rank_sample: list[tuple] = []
        self._predict_seen = 0
        self._rank_seen = 0

    # -- wrapping -------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._states.append(st)
            self._local.state = st
        return st

    def _wrap(self, name: str, fn, coarse: bool, observe=None):
        clock = time.perf_counter_ns
        state = self._state
        next_span = self._next_span

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [name, 0, next(next_span) if coarse else 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns = dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                key = (name, parent[0] if parent is not None else None)
                agg = st.aggs.get(key)
                if agg is None:
                    agg = st.aggs[key] = [0, 0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += self_ns
                if coarse:
                    st.spans.append((frame[2], name, t0, t1, self_ns,
                                     parent[2] if parent is not None else None,
                                     st.thread))
            if observe is not None:
                observe(dur, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every boundary in every loaded cflevels module."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "cflevels" or key.startswith("cflevels.")]
        observers = {"ingest.parse_ratings": self._observe_parse,
                     "predict.predict": self._observe_predict,
                     "predict.recommend_top_n": self._observe_rank,
                     "cache.get_or_compute": self._observe_lookup}
        for coarse, table in ((True, COARSE), (False, HOT)):
            for home, attr, name in table:
                original = getattr(sys.modules[home], attr)
                wrapped = self._wrap(name, original, coarse, observers.get(name))
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        cls = sys.modules["cflevels.similarity"].SimilarityMethod
        self._patched.append((cls, "score", cls.score))
        cls.score = self._wrap(SCORE, cls.score, False)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- observers (run after the wrapped call returns) ----------------

    def _observe_parse(self, dur, args, kwargs, result) -> None:
        self.parsed_lines += len(result)

    def _observe_predict(self, dur, args, kwargs, result) -> None:
        with self._lock:
            self.predict_ns.append(dur)
            if result is not None:
                self.predicted += 1
                self.support_total += result.support
            self._predict_seen = self._reservoir(
                self.predict_sample, ORACLE_PREDICTIONS, self._predict_seen,
                (args, kwargs, result))

    def _observe_rank(self, dur, args, kwargs, result) -> None:
        with self._lock:
            self.rank_ns.append(dur)
            self._rank_seen = self._reservoir(
                self.rank_sample, ORACLE_RANKINGS, self._rank_seen,
                (args, kwargs, result))

    def _observe_lookup(self, dur, args, kwargs, result) -> None:
        cache = args[0]
        self.caches.setdefault(id(cache), cache)

    def _reservoir(self, sample: list, size: int, seen: int, item) -> int:
        if len(sample) < size:
            sample.append(item)
        else:
            slot = self._rng.randrange(seen + 1)
            if slot < size:
                sample[slot] = item
        return seen + 1

    # -- results --------------------------------------------------------

    def aggregates(self) -> dict[tuple[str, str | None], list[int]]:
        """Per-(name, parent) [count, total_ns, self_ns], merged over threads."""
        return _summed(item for st in self._states for item in st.aggs.items())

    def spans(self) -> list[tuple]:
        """(id, name, start_ns, end_ns, self_ns, parent_id, thread), by start."""
        return sorted((s for st in self._states for s in st.spans), key=lambda s: s[2])

    def by_name(self) -> dict[str, list[int]]:
        """[count, total_ns, self_ns] per boundary, summed over parents."""
        return _summed((name, agg) for (name, _), agg in self.aggregates().items())

    def dump(self) -> dict:
        return {
            "aggregates": [{"name": name, "parent": parent, "count": c,
                            "total_ns": t, "self_ns": s}
                           for (name, parent), (c, t, s) in sorted(
                               self.aggregates().items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))],
            "spans": [{"id": i, "name": n, "start_ns": a, "end_ns": b,
                       "self_ns": s, "parent": p, "thread": th}
                      for i, n, a, b, s, p, th in self.spans()],
        }


def _summed(items) -> dict:
    out: dict = {}
    for key, (count, total, own) in items:
        agg = out.setdefault(key, [0, 0, 0])
        agg[0] += count
        agg[1] += total
        agg[2] += own
    return out


def percentile(values: list[int], q: float) -> float:
    """Nearest-rank percentile of ``values``; 0.0 when there are none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    names = tracer.by_name()

    def count(name: str) -> int:
        return names.get(name, [0, 0, 0])[0]

    def seconds(name: str, column: int = 1) -> float:
        return names.get(name, [0, 0, 0])[column] / 1e9

    splits = ("evaluate.kfold_split", "evaluate.split_holdout")
    renders = ("cli.render_csv", "cli.render_json")
    lookups = count("cache.get_or_compute")
    misses = tracer.aggregates().get((SCORE, "cache.get_or_compute"), [0])[0]
    pairs = count(SCORE)
    calls = count("predict.predict")
    cells = [s[3] - s[2] for s in tracer.spans() if s[1] == "evaluate.run_experiment"]
    return {
        "ingest.parse_s": (seconds("ingest.parse_ratings"), "s"),
        "ingest.lines": (tracer.parsed_lines, "count"),
        "ratings.build_calls": (count("ratings.build_matrix"), "count"),
        "ratings.build_s": (seconds("ratings.build_matrix"), "s"),
        "evaluate.split_calls": (sum(count(n) for n in splits), "count"),
        "evaluate.split_s": (sum(seconds(n) for n in splits), "s"),
        "similarity.pairs_scored": (pairs, "count"),
        "similarity.score_s": (seconds(SCORE), "s"),
        "similarity.us_per_pair": (seconds(SCORE) * 1e6 / pairs if pairs else 0.0, "us"),
        "levels.adjust_calls": (count("levels.apply_dynamic"), "count"),
        "levels.adjust_s": (seconds("levels.apply_dynamic"), "s"),
        "cache.lookups": (lookups, "count"),
        "cache.hits": (lookups - misses, "count"),
        "cache.hit_ratio": ((lookups - misses) / lookups if lookups else 0.0, "ratio"),
        "cache.lookup_self_s": (seconds("cache.get_or_compute", 2), "s"),
        "cache.entries": (sum(len(c) for c in tracer.caches.values()), "count"),
        "predict.calls": (calls, "count"),
        "predict.self_s": (seconds("predict.predict", 2), "s"),
        "predict.predicted_ratio": (tracer.predicted / calls if calls else 0.0, "ratio"),
        "predict.support_mean": (tracer.support_total / tracer.predicted
                                 if tracer.predicted else 0.0, "count"),
        "predict.call_us_p50": (percentile(tracer.predict_ns, 50) / 1e3, "us"),
        "predict.call_us_p99": (percentile(tracer.predict_ns, 99) / 1e3, "us"),
        "predict.rank_calls": (count("predict.recommend_top_n"), "count"),
        "predict.rank_ms_p50": (percentile(tracer.rank_ns, 50) / 1e6, "ms"),
        "predict.rank_ms_p99": (percentile(tracer.rank_ns, 99) / 1e6, "ms"),
        "evaluate.cells": (len(cells), "count"),
        "evaluate.cell_s_p50": (percentile(cells, 50) / 1e9, "s"),
        "evaluate.cell_s_max": (max(cells, default=0) / 1e9, "s"),
        "cli.render_s": (sum(seconds(n) for n in renders), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
    }
