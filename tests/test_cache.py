"""Similarity rows bound to one method and matrix: hits, misses, symmetry, oracle rows,
sibling sets that share one row builder, and demand-restricted rows."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import _synth
import cflevels.cache
import oracles
from cflevels import (RatingScale, SimilarityCache,
                      SimilarityMethod, UnknownUserError, build_matrix,
                      evaluate_split, get_or_compute, make_method, neighborhood_for_item,
                      pcc, predict, recommend_top_n, split_holdout)
from cflevels.cache import demand_of
from cflevels.cli import main

PCC = make_method("pcc")

# every adjuster, plus the dynamic forms and the static corner that doubles
# a zero base: (name, make_method keyword arguments)
CONFIGS = [(name, {}) for name in ("pcc", "wpcc", "spcc", "plus", "static", "dynamic")] + [
    ("dynamic", {"negative_form": "eq8"}),
    ("dynamic", {"negative_form": "alg1"}),
    ("static", {"t": 1, "y": -0.5}),
]
CONFIG_IDS = [name + "".join(f"-{k}={v}" for k, v in kw.items()) for name, kw in CONFIGS]


# the six methods, plus the form that turns negative bases positive
DEMAND_CONFIGS = CONFIGS[:7]
DEMAND_IDS = CONFIG_IDS[:7]


def fresh_cache(m, sim=PCC):
    return SimilarityCache(sim, m)


def oracle_score(name, kw, ratings, m):
    """The brute-force twin of ``make_method(name, **kw)`` at its defaults."""
    pearson = lambda a, b: oracles.pearson(ratings, a, b)  # noqa: E731
    return {
        "pcc": pearson,
        "wpcc": lambda a, b: oracles.weighted_pearson(ratings, a, b, 50),
        "spcc": lambda a, b: oracles.sigmoid_pearson(ratings, a, b),
        "plus": lambda a, b: oracles.power_law(pearson(a, b), 100.0, 2.0),
        "static": lambda a, b: oracles.static_adjusted(ratings, a, b, 10, 0.20),
        "dynamic": lambda a, b: oracles.dynamic_adjusted(
            ratings, a, b, m.user_count, m.item_count, kw.get("negative_form", "eq4")),
    }[name]


def random_matrix(rng, scale, n_users=14, n_items=12, density=0.5):
    ratings = oracles.random_ratings(rng, n_users=n_users, n_items=n_items, density=density)
    return build_matrix(oracles.ratings_to_records(ratings), scale)


def sibling_methods():
    return [make_method(name, **kw) for name, kw in CONFIGS]


@pytest.fixture()
def base_calls(monkeypatch):
    """One entry per call of the overlap kernel the row builder uses."""
    calls = []
    base = cflevels.cache._base
    monkeypatch.setattr(cflevels.cache, "_base",
                        lambda ra, rb: calls.append(1) or base(ra, rb))
    return calls


def planted_file(tmp_path, seed):
    records = _synth.planted_records(seed=seed, n_users=220, n_items=150)
    path = tmp_path / "planted.txt"
    path.write_text("".join(f"{u} {i} {v:g}\n" for u, i, v in records), encoding="utf-8")
    return str(path)


def assert_threads_see_whole_rows(m, demand, rounds=5):
    """Eight threads, each asking a different sibling's rows, see only whole rows."""
    sims = sibling_methods()
    want = [{ia: SimilarityCache(sim, m, demand).row(ia) for ia in range(m.user_count)}
            for sim in sims]
    assert sum(len(row) for rows in want for row in rows.values()) > 400

    def work(caches, slot):
        cache = caches[slot]
        order = list(range(m.user_count))
        random.Random(slot).shuffle(order)
        for ia in order:
            if cache.row(ia) != want[slot][ia]:
                return f"{CONFIG_IDS[slot]} row {ia} differs"
            for other, published in enumerate(caches):
                for ib, row in published.rows.items():
                    if row != want[other][ib]:
                        return f"published {CONFIG_IDS[other]} row {ib} differs"
        return None

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(rounds):
                caches = SimilarityCache.siblings(sims, m, demand)
                futures = [pool.submit(work, caches, slot) for slot in range(8)]
                assert [f.result(timeout=60) for f in futures] == [None] * 8
                assert [cache.rows for cache in caches] == want
    finally:
        sys.setswitchinterval(old)


class TestGetOrCompute:
    def test_hit_returns_stored_value(self, sample_matrix):
        cache = fresh_cache(sample_matrix)
        cache.row(0)[1] = 0.123  # a sentinel in the stored row proves no recomputation
        got = get_or_compute(cache, "u1", "u2", PCC, sample_matrix)
        assert got == 0.123

    def test_miss_computes_and_stores(self, sample_matrix):
        cache = fresh_cache(sample_matrix)
        assert 0 not in cache.rows
        got = get_or_compute(cache, "u1", "u3", PCC, sample_matrix)
        assert got == pcc("u1", "u3", sample_matrix)
        assert cache.rows[0] == {}  # built; every score of u1 is <= 0

    def test_symmetric_keys(self, sample_matrix, scale):
        cache = fresh_cache(sample_matrix)
        ab = get_or_compute(cache, "u1", "u2", PCC, sample_matrix)
        ba = get_or_compute(cache, "u2", "u1", PCC, sample_matrix)
        assert ab == ba
        # on a matrix with positive pairs: rows agree both ways and a pair
        # scored for one row is reused, not rescored, by the other
        m = random_matrix(random.Random(5), scale)
        calls = []

        def adjust(s, co, m_):
            calls.append(s)
            return s

        counting = SimilarityMethod("pcc", adjust)
        cache = fresh_cache(m, counting)
        for ia in range(m.user_count):
            cache.row(ia)
        entries = [(ia, ib, s) for ia, row in cache.rows.items() for ib, s in row.items()]
        assert len(entries) > 20
        for ia, ib, s in entries:
            assert cache.rows[ib][ia] == s
        users = m.users()
        nonzero = [1 for i, a in enumerate(users) for b in users[i + 1:]
                   if m.items_of(a) & m.items_of(b) and pcc(a, b, m) != 0.0]
        assert len(calls) == len(nonzero)

    def test_transparency_bit_for_bit(self, scale):
        rng = random.Random(28)
        ratings = oracles.random_ratings(rng, n_users=15, n_items=10, density=0.6)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        cache = fresh_cache(m)
        users = sorted(ratings)
        for _ in ("miss", "hit"):
            for i, a in enumerate(users):
                for b in users[i + 1:]:
                    assert get_or_compute(cache, a, b, PCC, m) == pcc(a, b, m)
        assert len(cache) == len(users) - 1  # one row per target looked up
        for ia, row in cache.rows.items():
            a = users[ia]
            assert row == {ib: s for ib, b in enumerate(users)
                           if b != a and (s := pcc(a, b, m)) > 0.0}

    def test_fingerprint_mismatch(self, sample_matrix, scale):
        other = build_matrix([("x", "i1", 3.0), ("y", "i1", 4.0)], scale)
        cache = fresh_cache(other)
        with pytest.raises(ValueError, match="serves only the method and matrix objects"):
            get_or_compute(cache, "u1", "u2", PCC, sample_matrix)
        wrong_method = fresh_cache(sample_matrix, make_method("spcc"))
        with pytest.raises(ValueError, match="serves only the method and matrix objects"):
            get_or_compute(wrong_method, "u1", "u2", PCC, sample_matrix)
        # equal content is not enough: a cache serves only the objects it was made for
        copy = build_matrix(oracles.SAMPLE_RECORDS, scale)
        with pytest.raises(ValueError, match="serves only the method and matrix objects"):
            get_or_compute(fresh_cache(sample_matrix), "u1", "u2", PCC, copy)
        with pytest.raises(ValueError, match="serves only the method and matrix objects"):
            get_or_compute(fresh_cache(sample_matrix), "u1", "u2", make_method("pcc"),
                           sample_matrix)

    def test_unknown_user(self, sample_matrix):
        cache = fresh_cache(sample_matrix)
        with pytest.raises(UnknownUserError):
            get_or_compute(cache, "u1", "nobody", PCC, sample_matrix)
        with pytest.raises(UnknownUserError):
            get_or_compute(cache, "nobody", "u1", PCC, sample_matrix)
        assert len(cache) == 0


class TestRows:
    @pytest.mark.parametrize("name,kw", CONFIGS, ids=CONFIG_IDS)
    def test_row_equals_pair_scores(self, name, kw, scale):
        rng = random.Random(7)
        entries = 0
        for _ in range(6):
            m = random_matrix(rng, scale, density=rng.choice((0.3, 0.5, 0.8)))
            sim = make_method(name, **kw)
            users = m.users()
            order = list(range(len(users)))
            rng.shuffle(order)
            shared = fresh_cache(m, sim)  # later rows reuse earlier ones
            for ia in order:
                a = users[ia]
                want = {ib: s for ib, b in enumerate(users)
                        if b != a and m.items_of(a) & m.items_of(b)
                        and (s := sim.score(a, b, m)) > 0.0}
                assert shared.row(ia) == want
                assert fresh_cache(m, sim).row(ia) == want
                entries += len(want)
        assert entries > 100

    @pytest.mark.parametrize("name,kw", CONFIGS, ids=CONFIG_IDS)
    def test_zero_base_never_scores_positive(self, name, kw, scale):
        # rows leave out users with no co-rated item on the strength of this
        m = random_matrix(random.Random(3), scale)
        sim = make_method(name, **kw)
        for co in range(0, 3 * m.item_count):
            for base in (0.0, -0.0):
                assert sim.adjust(base, co, m) <= 0.0

    def test_threads_sharing_a_cache_see_only_whole_rows(self, scale):
        # sweep threads share one sibling set per fold; a row read while still
        # being built, or reused from a user whose siblings are only partly
        # published, or lost to a racing writer, breaks equality
        m = random_matrix(random.Random(9), scale, n_users=40, n_items=20)
        assert_threads_see_whole_rows(m, None)


class TestSiblings:
    """One row builder for every method of a fold: same rows, one base per pair."""

    @pytest.mark.parametrize("restricted", [False, True], ids=["full", "demand"])
    def test_sibling_rows_equal_standalone_rows(self, restricted, scale):
        rng = random.Random(17)
        entries = 0
        for seed in range(5):
            m = random_matrix(rng, scale, n_users=18, density=rng.choice((0.3, 0.5, 0.8)))
            train, test = split_holdout(m, 0.7, seed)
            demand = demand_of(train, test) if restricted else None
            sims = sibling_methods()
            caches = SimilarityCache.siblings(sims, train, demand)
            order = list(range(train.user_count))
            rng.shuffle(order)
            for ia in order:
                caches[rng.randrange(len(caches))].row(ia)  # any sibling builds all
                for sim, cache in zip(sims, caches):
                    alone = SimilarityCache(sim, train, demand).row(ia)
                    assert cache.row(ia) == alone
                    entries += len(alone)
            assert [len(cache) for cache in caches] == [train.user_count] * len(caches)
        assert entries > 1000

    @pytest.mark.parametrize("command", [["evaluate"], ["topn", "--r", "5"]],
                             ids=["evaluate", "topn"])
    def test_six_methods_score_as_many_pairs_as_one(self, command, tmp_path, base_calls,
                                                     capsys):
        argv = command + ["--ratings", planted_file(tmp_path, 1), "--folds", "3",
                          "--k-sweep", "10:20:10", "--negative-form", "eq8", "--seed", "42",
                          "--jobs", "1"]

        def scored(methods):
            base_calls.clear()
            assert main(argv + ["--methods", methods]) == 0
            capsys.readouterr()
            return len(base_calls)

        one = scored("pcc")
        assert one > 1000
        assert scored("pcc,wpcc,spcc,plus,static,dynamic") == one

    @pytest.mark.parametrize("command", [["evaluate"], ["topn", "--r", "5"]],
                             ids=["evaluate", "topn"])
    def test_jobs_do_not_change_pairs_scored(self, command, tmp_path, base_calls, capsys):
        # one thread per fold, so no two threads build the same row
        argv = command + ["--ratings", planted_file(tmp_path, 5), "--folds", "5",
                          "--methods", "pcc,wpcc,spcc,plus,static,dynamic",
                          "--k-sweep", "10:40:10", "--seed", "5"]

        def scored(jobs):
            base_calls.clear()
            assert main(argv + ["--jobs", str(jobs)]) == 0
            capsys.readouterr()
            return len(base_calls)

        serial = scored(1)
        assert serial > 1000
        assert [scored(2), scored(8)] == [serial, serial]


class TestDemand:
    """Caches made for a test demand: same answers, fewer pairs, no partial rows."""

    @pytest.mark.parametrize("name,kw", DEMAND_CONFIGS, ids=DEMAND_IDS)
    def test_prediction_equals_full_row_and_oracle(self, name, kw, scale):
        rng = random.Random(11)
        checked = 0
        for seed in range(4):
            m = random_matrix(rng, scale, n_users=16, density=rng.choice((0.4, 0.6)))
            train, test = split_holdout(m, 0.7, seed)
            sim = make_method(name, **kw)
            demand = demand_of(train, test)
            restricted = SimilarityCache(sim, train, demand)
            full = SimilarityCache(sim, train)
            ratings = oracles.records_to_dict(train.records())
            ref = oracle_score(name, kw, ratings, train)
            users, items = train.users(), train.items()
            for ia, wanted in sorted(demand.items()):
                for ii in sorted(wanted):
                    for k in (1, 3, 40):
                        got = predict(users[ia], items[ii], k, sim, train, restricted)
                        assert got == predict(users[ia], items[ii], k, sim, train, full)
                        want = oracles.predict(ratings, users[ia], items[ii], k, ref, (1, 5))
                        assert (got is None) == (want is None)
                        if got is not None:
                            assert abs(got.value - want) <= 1e-9
                            checked += 1
                # the row is the full row cut to the raters of a's demanded items
                raters = set().union(*(train._by_item[ii] for ii in wanted))
                assert restricted.rows[ia] == {ib: s for ib, s in full.row(ia).items()
                                               if ib in raters}
        assert checked > 50

    def test_accuracy_path_scores_only_demanded_pairs(self, base_calls):
        records = _synth.planted_records(seed=13, n_users=120, n_items=80)
        train, test = split_holdout(build_matrix(records, RatingScale(*_synth.SCALE)), 0.8, 42)

        def scored(cache):
            base_calls.clear()
            report = evaluate_split(train, test, PCC, k=20, r=5, relevance=4.0,
                                    metrics="accuracy", cache=cache)
            return report, len(base_calls)

        restricted_report, restricted = scored(None)  # makes a cache for the demand
        full_report, full = scored(SimilarityCache(PCC, train))
        assert restricted_report == full_report
        # each pair scored once: reuse covers it the other way round
        by_user, by_item = train._by_user, train._by_item
        demand = demand_of(train, test)
        needs = {ia: set().union(*(by_item[ii] for ii in wanted))
                 for ia, wanted in demand.items()}
        needed = {frozenset((ia, ib)) for ia, raters in needs.items() for ib in raters
                  if ib != ia and len(by_user[ia].keys() & by_user[ib].keys()) >= 2}
        assert restricted == len(needed)
        assert restricted < 0.8 * full

    def test_predict_refuses_pairs_outside_the_demand(self, scale):
        m = random_matrix(random.Random(4), scale)
        users, items = m.users(), m.items()
        unrated = [ii for ii in range(m.item_count) if ii not in m._by_user[0]]
        cache = SimilarityCache(PCC, m, {0: frozenset(unrated[:1])})
        assert predict(users[0], items[unrated[0]], 5, PCC, m, cache) == \
            predict(users[0], items[unrated[0]], 5, PCC, m)
        with pytest.raises(ValueError, match="demand"):
            predict(users[0], items[unrated[1]], 5, PCC, m, cache)
        with pytest.raises(ValueError, match="demand"):
            predict(users[1], items[unrated[0]], 5, PCC, m, cache)
        with pytest.raises(ValueError, match="demand"):
            neighborhood_for_item(users[0], items[unrated[1]], 5, PCC, m, cache)
        assert predict(users[0], "no such item", 5, PCC, m, cache) is None

    def test_recommend_top_n_refuses_a_pool_outside_the_demand(self, scale):
        m = random_matrix(random.Random(4), scale)
        a, items = m.users()[0], m.items()
        unrated = [ii for ii in range(m.item_count) if ii not in m._by_user[0]]
        cache = SimilarityCache(PCC, m, {0: frozenset(unrated[:2])})
        with pytest.raises(ValueError, match="demand"):
            recommend_top_n(a, 3, 5, PCC, m, cache=cache)
        inside = [items[ii] for ii in unrated[:2]]
        assert recommend_top_n(a, 3, 5, PCC, m, candidates=inside, cache=cache) == \
            recommend_top_n(a, 3, 5, PCC, m, candidates=inside)

    @pytest.mark.parametrize("metrics", ["topn", "all"])
    def test_evaluate_split_refuses_ranking_with_a_demand(self, metrics, scale):
        m = random_matrix(random.Random(4), scale)
        train, test = split_holdout(m, 0.8, 1)
        cache = SimilarityCache(PCC, train, demand_of(train, test))
        with pytest.raises(ValueError, match="full"):
            evaluate_split(train, test, PCC, k=5, r=3, relevance=4.0, metrics=metrics,
                           cache=cache)
        assert len(cache) == 0

    def test_threads_sharing_a_restricted_cache_see_only_whole_rows(self, scale):
        m = random_matrix(random.Random(9), scale, n_users=40, n_items=20)
        train, test = split_holdout(m, 0.7, 3)
        assert_threads_see_whole_rows(train, demand_of(train, test))
