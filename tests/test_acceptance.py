"""Acceptance gate: one test per shipping criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line for every criterion alongside pytest's own verdicts.
"""

import functools
import math
import os
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _synth
import oracles
from cflevels import (RatingScale, SimilarityCache, StaticParams,
                      apply_static, build_level_table, build_matrix,
                      hit_rate, mae, make_method,
                      neighborhood_for_item, nmae, precision_recall_f1,
                      predict, rmse, run_experiment, split_holdout)
from cflevels.cli import main

TOL = 1e-9


def criterion(label):
    """Print one ACCEPTANCE line per test, whatever the outcome."""
    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                print(f"\nACCEPTANCE {label}: SKIPPED ({exc})", flush=True)
                raise
            except BaseException:
                print(f"\nACCEPTANCE {label}: FAIL", flush=True)
                raise
            print(f"\nACCEPTANCE {label}: PASS", flush=True)
        return run
    return deco


def close(got, want, tol=TOL):
    if got is None or want is None:
        assert got is None and want is None
    else:
        assert abs(got - want) <= tol, f"{got!r} vs {want!r}"


def random_matrix(seed, n_users, n_items, density, scale):
    """Deterministic random matrix, or None when a user row came up empty."""
    ratings = oracles.random_ratings(random.Random(seed), n_users=n_users,
                                     n_items=n_items, density=density)
    items = {i for row in ratings.values() for i in row}
    if len(ratings) < n_users or len(items) < 2:
        return None, None
    m = build_matrix(oracles.ratings_to_records(ratings), scale)
    return m, ratings


@criterion("criterion 1 (level-table golden)")
def test_criterion_1_level_table_golden():
    table = build_level_table(39363, 22610)
    assert (table.dvu, table.dvi, table.step) == (5, 14, 3)
    assert tuple((b.lower, b.upper, b.divisor) for b in table.bands) == (
        (14, None, 1), (11, 13, 2), (8, 10, 3), (5, 7, 4))
    assert table.min_co_rated == 5

    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        build_level_table(39363, 22610)
        timings.append(time.perf_counter() - t0)
    assert min(timings) < 0.001, f"level-table build took {min(timings):.6f}s"


@criterion("criterion 2 (oracle agreement, 1e-9)")
def test_criterion_2_oracle_agreement(scale, sample_matrix):
    t0 = time.perf_counter()

    def method_table(ratings, user_count, item_count):
        pairs = [
            (make_method("pcc"),
             lambda a, b: oracles.pearson(ratings, a, b)),
            (make_method("wpcc", big_t=50),
             lambda a, b: oracles.weighted_pearson(ratings, a, b, 50)),
            (make_method("wpcc", big_t=2),
             lambda a, b: oracles.weighted_pearson(ratings, a, b, 2)),
            (make_method("spcc"),
             lambda a, b: oracles.sigmoid_pearson(ratings, a, b)),
            (make_method("plus", alpha=100.0, beta=2.0),
             lambda a, b: oracles.power_law(oracles.pearson(ratings, a, b), 100.0, 2.0)),
            (make_method("static", t=10, y=0.20),
             lambda a, b: oracles.static_adjusted(ratings, a, b, 10, 0.20)),
        ]
        if user_count >= 10:
            pairs.append(
                (make_method("dynamic"),
                 lambda a, b: oracles.dynamic_adjusted(ratings, a, b,
                                                       user_count, item_count)))
        return pairs

    def check_matrix(m, ratings):
        users = m.users()
        for method, ref in method_table(ratings, len(users), len(m.items())):
            for i, a in enumerate(users):
                for b in users[i + 1:]:
                    close(method.score(a, b, m), ref(a, b))
        base = make_method("pcc")
        sim = lambda a, b: oracles.pearson(ratings, a, b)
        bounds = (m.scale.rmin, m.scale.rmax)
        for a in users[:3]:
            rated = set(ratings[a])
            for item in m.items():
                if item in rated:
                    continue
                got = predict(a, item, 3, base, m)
                want = oracles.predict(ratings, a, item, 3, sim, bounds)
                close(got.value if got else None, want)

    # the worked 4-user example
    check_matrix(sample_matrix, oracles.SAMPLE_RATINGS)

    # 100 random 10x10 matrices, plus a full experiment on each
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        m, ratings = random_matrix(seed, 10, 10, 0.5, scale)
        if m is None:
            continue
        check_matrix(m, ratings)
        records = oracles.ratings_to_records(ratings)
        want = oracles.run_holdout_experiment(records, 0.8, seed, k=3, r=3,
                                              relevance=4.0, scale=(1.0, 5.0))
        got = run_experiment(*split_holdout(m, 0.8, seed), make_method("pcc"),
                             k=3, r=3, relevance=4.0)
        close(got.mae, want["mae"])
        close(got.nmae, want["nmae"])
        close(got.rmse, want["rmse"])
        close(got.precision, want["precision"])
        close(got.recall, want["recall"])
        close(got.f1, want["f1"])
        close(got.hit_rate_pct, want["hit_rate_pct"])
        assert got.coverage == want["coverage_misses"]
        checked += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle agreement sweep took {elapsed:.1f}s"


@criterion("criterion 3 (branch/partition properties, 1000 cases each)")
def test_criterion_3_properties(scale):
    bulk = settings(max_examples=1000, derandomize=True, deadline=None)

    @bulk
    @given(s=st.floats(-1.0, 1.0), co=st.integers(0, 500),
           t=st.integers(1, 100), y=st.floats(0.01, 0.99))
    def static_branches_total(s, co, t, y):
        got = apply_static(s, co, StaticParams(t=t, y=y))
        assert math.isfinite(got)
        if co >= t and s >= y:
            assert got == s + s
        else:
            assert got == s * (1.0 / (1.0 + s * s))

    @bulk
    @given(users=st.integers(10, 10**7), items=st.integers(2, 10**7))
    def bands_partition_co_counts(users, items):
        table = build_level_table(users, items)
        bands = table.bands
        assert bands[0].upper is None
        assert bands[0].lower == max(table.dvi, 5)
        assert bands[-1].lower == 5
        for above, below in zip(bands, bands[1:]):
            assert above.lower == below.upper + 1
        assert [b.divisor for b in bands] == list(range(1, len(bands) + 1))
        for co in range(0, bands[0].lower + 3):
            holders = [b for b in bands if b.contains(co)]
            if co < 5:
                assert not holders and table.divisor_for(co) is None
            else:
                assert len(holders) == 1
                assert table.divisor_for(co) == holders[0].divisor

    methods = [make_method(name) for name in
               ("pcc", "wpcc", "spcc", "plus", "static", "dynamic")]

    @bulk
    @given(seed=st.integers(0, 2**32 - 1))
    def similarity_is_symmetric(seed):
        rng = random.Random(seed)
        ratings = oracles.random_ratings(rng, n_users=12, n_items=8, density=0.5)
        items = {i for row in ratings.values() for i in row}
        assume(len(ratings) >= 10 and len(items) >= 2)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        users = m.users()
        for _ in range(15):
            a, b = rng.sample(users, 2)
            for method in methods:
                assert method.score(a, b, m) == method.score(b, a, m)

    finite = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)

    @bulk
    @given(pairs=st.lists(st.tuples(finite, finite), min_size=1, max_size=50))
    def rmse_dominates_mae(pairs):
        assert rmse(pairs) >= mae(pairs) - 1e-12

    item_ids = [f"i{n:02d}" for n in range(20)]

    @bulk
    @given(recs=st.lists(st.sampled_from(item_ids), unique=True, max_size=10),
           relevant=st.frozensets(st.sampled_from(item_ids), max_size=10),
           hits=st.lists(st.integers(0, 5), max_size=30),
           ratings=st.lists(st.tuples(st.floats(1.0, 5.0), st.floats(1.0, 5.0)),
                            min_size=1, max_size=30))
    def metric_ranges_hold(recs, relevant, hits, ratings):
        p, r, f1 = precision_recall_f1(recs, relevant)
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
        assert 0.0 <= hit_rate(hits) <= 100.0
        assert 0.0 <= nmae(mae(ratings), RatingScale(1.0, 5.0)) <= 1.0

    static_branches_total()
    bands_partition_co_counts()
    similarity_is_symmetric()
    rmse_dominates_mae()
    metric_ranges_hold()


@criterion("criterion 4 (power-law ranking invariance)")
def test_criterion_4_ranking_invariance(scale):
    # the two published parameter sets; exponents >= 2 widen the relative
    # spacing between scores, so float rounding cannot merge near-ties
    base = make_method("pcc")
    variants = [make_method("plus", alpha=a, beta=b)
                for a, b in ((100.0, 2.0), (80.0, 5.0))]
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        m, _ = random_matrix(seed, 12, 10, 0.5, scale)
        if m is None:
            continue
        for a in m.users():
            for item in m.items():
                if m.rating(a, item) is not None:
                    continue
                want = [b for b, _ in
                        neighborhood_for_item(a, item, 5, base, m)]
                for method in variants:
                    got = [b for b, _ in
                           neighborhood_for_item(a, item, 5, method, m)]
                    assert got == want
        checked += 1


@criterion("criterion 5 (NMAE round-trip, 4 decimals)")
def test_criterion_5_nmae_round_trip():
    assert round(nmae(0.802, RatingScale(1.0, 5.0)), 4) == 0.2005
    assert round(nmae(1.296, RatingScale(0.0, 10.0)), 4) == 0.1296
    # and back: the normalized values recover the absolute errors
    assert round(0.2005 * RatingScale(1.0, 5.0).span, 4) == 0.802
    assert round(0.1296 * RatingScale(0.0, 10.0).span, 4) == 1.296


@criterion("criterion 6 (planted clusters: dynamic <= pcc at k=20/40/80)")
def test_criterion_6_planted_clusters():
    t0 = time.perf_counter()
    records = _synth.planted_records()
    density = len(records) / (_synth.N_USERS * _synth.N_ITEMS)
    assert 0.04 <= density <= 0.08, f"density {density:.3f} out of band"

    m = build_matrix(records, RatingScale(*_synth.SCALE))
    train, test = split_holdout(m, 0.8, 42)
    maes = {}
    for name in ("pcc", "dynamic"):
        method = make_method(name)
        cache = SimilarityCache(method, train)
        maes[name] = {k: run_experiment(train, test, method, k=k,
                                        metrics="accuracy", cache=cache).mae
                      for k in (20, 40, 80)}
    for k in (20, 40, 80):
        assert maes["dynamic"][k] <= maes["pcc"][k], (
            f"k={k}: dynamic {maes['dynamic'][k]:.6f} > pcc {maes['pcc'][k]:.6f}")

    # deterministic under the seed: a fresh run reproduces the same numbers
    rerun = run_experiment(*split_holdout(m, 0.8, 42), make_method("dynamic"), k=40,
                           metrics="accuracy").mae
    assert rerun == maes["dynamic"][40]

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"planted-cluster benchmark took {elapsed:.1f}s"


@criterion("criterion 7 (MovieLens 1M NMAE, optional)")
def test_criterion_7_movielens_sanity(tmp_path):
    path = os.environ.get("CFLEVELS_ML1M")
    if not path:
        pytest.skip("set CFLEVELS_ML1M=/path/to/ml-1m/ratings.dat to enable")
    if not os.path.exists(path):
        pytest.skip(f"CFLEVELS_ML1M points at a missing file: {path}")
    out = tmp_path / "ml1m.csv"
    rc = main(["evaluate", "--ratings", path, "--format", "movielens-1m",
               "--method", "pcc", "--k", "40", "--train", "0.8",
               "--output", str(out)])
    assert rc == 0
    header, row = out.read_text(encoding="utf-8").splitlines()[:2]
    cells = dict(zip(header.split(","), row.split(",")))
    measured = float(cells["nmae"])
    print(f"\nmovielens-1m pcc k=40 nmae: {measured:.4f}")
    assert abs(measured - 0.2215) <= 0.03


@criterion("criterion 8 (byte-identical output across --jobs)")
def test_criterion_8_jobs_determinism(tmp_path):
    rng = random.Random(3)
    ratings = oracles.random_ratings(rng, n_users=60, n_items=30, density=0.4)
    data = tmp_path / "bench.txt"
    data.write_text("\n".join(f"{u} {i} {v:g}" for u, i, v in
                              oracles.ratings_to_records(ratings)) + "\n",
                    encoding="utf-8")

    runs = {
        "evaluate": ["evaluate", "--ratings", str(data), "--methods",
                     "pcc,dynamic", "--k-sweep", "10:20:10", "--folds", "2",
                     "--seed", "42"],
        "topn": ["topn", "--ratings", str(data), "--r", "5", "--method",
                 "spcc", "--k", "10", "--seed", "42"],
    }
    for name, argv in runs.items():
        serial = tmp_path / f"{name}-serial.csv"
        threaded = tmp_path / f"{name}-threaded.csv"
        assert main(argv + ["--jobs", "1", "--output", str(serial)]) == 0
        assert main(argv + ["--jobs", "8", "--output", str(threaded)]) == 0
        assert serial.read_bytes() == threaded.read_bytes(), f"{name} differs"
