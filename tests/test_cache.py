"""Similarity rows bound to one method and matrix: hits, misses, symmetry, oracle rows,
sibling sets that share one row builder, and rows that cover only the items asked for."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import _synth
import cflevels.cache
import cflevels.evaluate
import oracles
from cflevels import (RatingScale, SimilarityCache,
                      SimilarityMethod, UnknownUserError, build_matrix,
                      evaluate_split, get_or_compute, make_method, neighborhood_for_item,
                      predict, recommend_top_n, split_holdout)
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


class CountingMemo(dict):
    """A sibling set's Pearson memo that records every key looked up in it."""

    def __init__(self, lookups):
        super().__init__()
        self.lookups = lookups

    def get(self, key, default=None):
        self.lookups.append(key)
        return super().get(key, default)


@pytest.fixture()
def base_calls(monkeypatch):
    """One entry per pair the row builder scores: the memo key of its overlap.

    The builder looks each gathered overlap of 2 or more items up in its
    sibling set's memo, and scores it there on a miss, so on a matrix of at
    most 16 distinct ratings one lookup is one pair scored. Every cache made
    gets a counting memo, shared by its siblings.
    """
    calls = []
    init, siblings = SimilarityCache.__init__, SimilarityCache.siblings.__func__

    def counted_init(self, sim, m):
        init(self, sim, m)
        self._memo = CountingMemo(calls)

    def counted_siblings(cls, sims, m):
        caches = siblings(cls, sims, m)
        memo = CountingMemo(calls)
        for cache in caches:
            cache._memo = memo
        return caches

    monkeypatch.setattr(SimilarityCache, "__init__", counted_init)
    monkeypatch.setattr(SimilarityCache, "siblings", classmethod(counted_siblings))
    return calls


def planted_file(tmp_path, seed, n_users=220, n_items=150):
    records = _synth.planted_records(seed=seed, n_users=n_users, n_items=n_items)
    path = tmp_path / "planted.txt"
    path.write_text("".join(f"{u} {i} {v:g}\n" for u, i, v in records), encoding="utf-8")
    return str(path)


def items_asked(train, test):
    """The train item indexes of each train user's test records."""
    items: dict[int, set[int]] = {}
    for user, item, _ in test:
        ia, ii = train._user_index.get(user), train._item_index.get(item)
        if ia is not None and ii is not None:
            items.setdefault(ia, set()).add(ii)
    return items


def assert_threads_see_whole_rows(m, grow, rounds=5):
    """Eight threads, each asking a different sibling's rows, see only whole rows.

    A published row must hold exactly the full row's raters of the items it
    covers. With ``grow`` each thread asks for a user's row one item at a
    time before the full row, so partial rows are rebuilt as full rows while
    others read them.
    """
    sims = sibling_methods()
    want = [{ia: SimilarityCache(sim, m).row(ia) for ia in range(m.user_count)}
            for sim in sims]
    assert sum(len(row) for rows in want for row in rows.values()) > 400
    by_item = m._by_item

    def work(caches, slot):
        cache = caches[slot]
        rng = random.Random(slot)
        order = list(range(m.user_count))
        rng.shuffle(order)
        for ia in order:
            full = want[slot][ia]
            asks = [(ii,) for ii in rng.sample(range(m.item_count), 4)] if grow else []
            for (ii,) in asks:
                row = cache.row(ia, (ii,))
                if not (row.items() <= full.items()
                        and all(row.get(ib) == full.get(ib) for ib in by_item[ii] if ib != ia)):
                    return f"{CONFIG_IDS[slot]} row {ia} for item {ii} differs"
            if cache.row(ia) != full:
                return f"{CONFIG_IDS[slot]} row {ia} differs"
            for ib, (cover, rows) in list(cache._done.items()):
                raters = None if cover is None else set().union(*(by_item[ii] for ii in cover))
                for other, row in enumerate(rows):
                    whole = want[other][ib]
                    if raters is not None:
                        whole = {ic: s for ic, s in whole.items() if ic in raters}
                    if row != whole:
                        return f"published {CONFIG_IDS[other]} row {ib} differs"
        return None

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(rounds):
                caches = SimilarityCache.siblings(sims, m)
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
        assert got == PCC.score("u1", "u3", sample_matrix)
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
            calls.append((s, co))
            return s

        counting = SimilarityMethod("pcc", adjust)
        cache = fresh_cache(m, counting)
        # the zero-base calls of a cache being made, one per reachable count
        probes = [(0.0, co) for co in range(max(map(len, m._by_user)) + 1)]
        assert calls == probes
        for ia in range(m.user_count):
            cache.row(ia)
        entries = [(ia, ib, s) for ia, row in cache.rows.items() for ib, s in row.items()]
        assert len(entries) > 20
        for ia, ib, s in entries:
            assert cache.rows[ib][ia] == s
        users = m.users()
        rows = m._by_user
        nonzero = [1 for i, a in enumerate(users) for j in range(i + 1, len(users))
                   if rows[i].keys() & rows[j].keys() and PCC.score(a, users[j], m) != 0.0]
        assert len(calls) == len(probes) + len(nonzero)

    def test_transparency_bit_for_bit(self, scale):
        rng = random.Random(28)
        ratings = oracles.random_ratings(rng, n_users=15, n_items=10, density=0.6)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        cache = fresh_cache(m)
        users = sorted(ratings)
        for _ in ("miss", "hit"):
            for i, a in enumerate(users):
                for b in users[i + 1:]:
                    assert get_or_compute(cache, a, b, PCC, m) == PCC.score(a, b, m)
        assert len(cache) == len(users) - 1  # one row per target looked up
        for ia, row in cache.rows.items():
            a = users[ia]
            assert row == {ib: s for ib, b in enumerate(users)
                           if b != a and (s := PCC.score(a, b, m)) > 0.0}

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
                        if b != a and m._by_user[ia].keys() & m._by_user[ib].keys()
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

    def test_method_scoring_a_zero_base_above_0_is_refused(self, sample_matrix):
        # its rows would leave out users with no co-rated item, whom it rates 1.0
        shifted = SimilarityMethod("shifted", lambda s, co, m: s + 1.0)
        for make in (lambda: fresh_cache(sample_matrix, shifted),
                     lambda: SimilarityCache.siblings([PCC, shifted], sample_matrix),
                     lambda: predict("u1", "i1", 3, shifted, sample_matrix)):
            with pytest.raises(ValueError, match="'shifted' scores a zero Pearson base above 0"):
                make()

    def test_method_scoring_a_zero_base_above_0_at_any_count_is_refused(self, scale):
        # rows leave out every zero-base pair, not only those sharing no item:
        # built, this method's rows would miss 112 pairs its score rates above 0
        m = build_matrix(_synth.planted_records(seed=3, n_users=40, n_items=30), scale)
        counted = SimilarityMethod("counted", lambda s, co, m_: s + 0.01 * co)
        assert counted.adjust(0.0, 0, m) == 0.0  # passes a probe at count 0 alone
        for make in (lambda: fresh_cache(m, counted),
                     lambda: SimilarityCache.siblings([PCC, counted], m),
                     lambda: predict("u000", "i000", 3, counted, m)):
            with pytest.raises(ValueError, match="'counted' scores a zero Pearson base "
                                                 "above 0 at co-rated count 1,"):
                make()
        # no pair co-rates more items than the longest row holds, so the
        # probe stops there
        longest = max(map(len, m._by_user))
        at_longest = SimilarityMethod("at", lambda s, co, m_: s + (co == longest))
        with pytest.raises(ValueError, match=f"at co-rated count {longest},"):
            fresh_cache(m, at_longest)
        fresh_cache(m, SimilarityMethod("beyond", lambda s, co, m_: s + (co > longest)))

    def test_method_declared_sign_keeping_that_lifts_a_negative_base_is_refused(self, scale):
        # rows of methods declared lifts_negatives=False stop a pair at a
        # covariance <= 0, so they would leave out the pairs these rate above 0
        m = random_matrix(random.Random(5), scale)
        lifts = {
            "flipped": (lambda s, co, m_: -s, 0),
            "hair": (lambda s, co, m_: -s if s > -1e-6 else s, 0),  # lifts -1e-9 only
            "strong": (lambda s, co, m_: -s if s < -0.5 else s, 0),  # lifts -1.0 only
            "at-three": (lambda s, co, m_: -s if co == 3 else s, 3),
        }
        for name, (adjust, co) in lifts.items():
            wrong = SimilarityMethod(name, adjust, lifts_negatives=False)
            for make in (lambda: fresh_cache(m, wrong),
                         lambda: SimilarityCache.siblings([PCC, wrong], m),
                         lambda: predict(m.users()[0], m.items()[0], 3, wrong, m)):
                with pytest.raises(ValueError, match=f"{name!r} scores a negative Pearson base "
                                                     f"above 0 at co-rated count {co},"):
                    make()
            # declared as lifting negatives, the default, it is served
            right = SimilarityMethod(name, adjust)
            users = m.users()
            for ia in range(m.user_count):
                assert fresh_cache(m, right).row(ia) == {
                    ib: s for ib, b in enumerate(users)
                    if ib != ia and (s := right.score(users[ia], b, m)) > 0.0}

    def test_threads_sharing_a_cache_see_only_whole_rows(self, scale):
        # a row is published once complete and never changed: one read while
        # still being built, or reused from a user whose siblings are only
        # partly published, or lost to a racing writer, breaks equality
        m = random_matrix(random.Random(9), scale, n_users=40, n_items=20)
        assert_threads_see_whole_rows(m, grow=False)


class TestSiblings:
    """One row builder for every method of a fold: same rows, one base per pair."""

    @pytest.mark.parametrize("restricted", [False, True], ids=["full", "demand"])
    def test_sibling_rows_equal_standalone_rows(self, restricted, scale):
        # restricted: each user's row is asked for its test items only
        rng = random.Random(17)
        entries = 0
        for seed in range(5):
            m = random_matrix(rng, scale, n_users=18, density=rng.choice((0.3, 0.5, 0.8)))
            train, test = split_holdout(m, 0.7, seed)
            asked = items_asked(train, test) if restricted else {}
            sims = sibling_methods()
            caches = SimilarityCache.siblings(sims, train)
            order = list(range(train.user_count))
            rng.shuffle(order)
            for ia in order:
                items = asked.get(ia, ()) if restricted else None
                caches[rng.randrange(len(caches))].row(ia, items)  # any sibling builds all
                for sim, cache in zip(sims, caches):
                    alone = SimilarityCache(sim, train).row(ia, items)
                    assert cache.row(ia, items) == alone
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
        # --jobs starts no thread: the folds run in order, whatever it is
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
    """Rows that cover only the items asked for: same answers, fewer pairs, no partial rows."""

    @pytest.mark.parametrize("name,kw", DEMAND_CONFIGS, ids=DEMAND_IDS)
    def test_prediction_equals_full_row_and_oracle(self, name, kw, scale):
        # one cache per split, walked user by user: each row is first asked for
        # two test items, then for each other unrated item, which rebuilds it
        # as the full row, while other users' partial rows are reused
        rng = random.Random(11)
        checked = 0
        for seed in range(4):
            m = random_matrix(rng, scale, n_users=16, density=rng.choice((0.4, 0.6)))
            train, test = split_holdout(m, 0.7, seed)
            sim = make_method(name, **kw)
            partial = SimilarityCache(sim, train)
            full = SimilarityCache(sim, train)
            ratings = oracles.records_to_dict(train.records())
            ref = oracle_score(name, kw, ratings, train)
            users, items, by_item = train.users(), train.items(), train._by_item
            asked = items_asked(train, test)
            order = list(range(train.user_count))
            rng.shuffle(order)
            for ia in order:
                a = users[ia]
                first = sorted(asked.get(ia, ()))[:2]
                # the row is the full row cut to the raters of the items asked for
                raters = set().union(*(by_item[ii] for ii in first))
                assert partial.row(ia, first) == {ib: s for ib, s in full.row(ia).items()
                                                  if ib in raters}
                unrated = [ii for ii in range(train.item_count) if ii not in train._by_user[ia]]
                for ii in first + [ii for ii in unrated if ii not in first]:
                    for k in (1, 3, 40):
                        got = predict(a, items[ii], k, sim, train, partial)
                        assert got == predict(a, items[ii], k, sim, train, full)
                        want = oracles.predict(ratings, a, items[ii], k, ref, (1, 5))
                        assert (got is None) == (want is None)
                        if got is not None:
                            assert abs(got.value - want) <= 1e-9
                            checked += 1
                    assert neighborhood_for_item(a, items[ii], 3, sim, train, partial) == \
                        neighborhood_for_item(a, items[ii], 3, sim, train, full)
                got = recommend_top_n(a, 5, 3, sim, train, cache=partial)
                assert got == recommend_top_n(a, 5, 3, sim, train, cache=full)
                want = oracles.top_n(ratings, a, 5, 3, ref, (1, 5))
                assert [i for i, _ in got] == [i for i, _ in want]
                assert all(abs(x - y) <= 1e-9 for (_, x), (_, y) in zip(got, want))
                assert partial.rows[ia] == full.row(ia)
        assert checked > 500

    def test_accuracy_path_scores_only_demanded_pairs(self, base_calls):
        records = _synth.planted_records(seed=13, n_users=120, n_items=80)
        train, test = split_holdout(build_matrix(records, RatingScale(*_synth.SCALE)), 0.8, 42)

        def scored(cache):
            base_calls.clear()
            (report,) = evaluate_split(train, test, PCC, ks=(20,), r=5, relevance=4.0,
                                       metrics="accuracy", cache=cache)
            return report, len(base_calls)

        restricted_report, restricted = scored(None)
        asked = items_asked(train, test)
        full_cache = SimilarityCache(PCC, train)
        base_calls.clear()
        for ia in asked:
            full_cache.row(ia)
        full = len(base_calls)
        assert scored(full_cache) == (restricted_report, 0)  # full rows cover every item
        # the pairs a prediction needs: each test user with each rater of its
        # test items, with at least 2 co-rated items; each scored once, as
        # reuse covers it the other way round
        by_user, by_item = train._by_user, train._by_item
        needed = set()
        for user, item, _ in test:
            ia, ii = train._user_index.get(user), train._item_index.get(item)
            if ia is not None and ii is not None:
                needed.update(frozenset((ia, ib)) for ib in by_item[ii]
                              if ib != ia and len(by_user[ia].keys() & by_user[ib].keys()) >= 2)
        assert restricted == len(needed)
        assert restricted < 0.8 * full

    def test_all_scores_no_more_pairs_than_topn(self, base_calls, monkeypatch):
        # "all" asks each known test user for its full row once, up front, so
        # its accuracy predictions and its rankings read the one row
        records = _synth.planted_records(seed=3, n_users=220, n_items=150)
        train, test = split_holdout(build_matrix(records, RatingScale(*_synth.SCALE)), 0.8, 42)
        known = {rec.user for rec in test if train._user_index.get(rec.user) is not None}
        builds, ranks = [], []
        build, rank = SimilarityCache._build, cflevels.evaluate.recommend_top_n
        monkeypatch.setattr(SimilarityCache, "_build",
                            lambda self, ia, *rest: builds.append(ia) or build(self, ia, *rest))
        monkeypatch.setattr(cflevels.evaluate, "recommend_top_n",
                            lambda a, r, k, *rest, **kw: ranks.append((a, k)) or rank(a, r, k, *rest, **kw))

        def scored(metrics):
            base_calls.clear()
            builds.clear()
            ranks.clear()
            reports = evaluate_split(train, test, PCC, ks=(3, 20), r=5, relevance=4.0,
                                     metrics=metrics)
            return reports, len(base_calls)

        accuracy, _ = scored("accuracy")
        topn, topn_pairs = scored("topn")
        assert sorted(ranks) == sorted((user, k) for user in known for k in (3, 20))
        both, both_pairs = scored("all")
        assert topn_pairs > 1000
        assert both_pairs == topn_pairs
        users = train.users()
        assert sorted(users[ia] for ia in builds) == sorted(known)  # one build per known user
        assert sorted(ranks) == sorted((user, k) for user in known for k in (3, 20))
        assert both == [{**acc, **{name: top[name] for name in
                                   ("precision", "recall", "f1", "hit_rate_pct")}}
                        for acc, top in zip(accuracy, topn)]

    def test_commands_build_each_row_once(self, tmp_path, monkeypatch, capsys):
        # a row that does not cover a request is rebuilt, rescoring its pairs;
        # no command path may ask for that, so _build only meets new users
        rebuilt, builds = [], []
        build = SimilarityCache._build

        def spy(self, ia, *rest):
            builds.append(ia)
            if ia in self._done:
                rebuilt.append(ia)
            return build(self, ia, *rest)

        monkeypatch.setattr(SimilarityCache, "_build", spy)
        path = planted_file(tmp_path, 3, n_users=120, n_items=90)
        sweep = ["--ratings", path, "--methods", "pcc,wpcc,spcc,plus,static,dynamic",
                 "--folds", "3", "--k-sweep", "2:12:5"]
        for command in (["evaluate"], ["topn", "--r", "10"]):
            for form in ([], ["--negative-form", "eq8"]):
                assert main(command + sweep + form) == 0
        assert main(["evaluate", "--ratings", path]) == 0
        assert main(["recommend", "--ratings", path, "--user", "u000", "--r", "10"]) == 0
        capsys.readouterr()
        records = _synth.planted_records(seed=3, n_users=120, n_items=90)
        train, test = split_holdout(build_matrix(records, RatingScale(*_synth.SCALE)), 0.8, 42)
        evaluate_split(train, test, PCC, ks=(3, 20), r=5, relevance=4.0, metrics="all")
        assert len(builds) > 1000
        assert rebuilt == []

    def test_threads_sharing_a_restricted_cache_see_only_whole_rows(self, scale):
        m = random_matrix(random.Random(9), scale, n_users=40, n_items=20)
        assert_threads_see_whole_rows(m, grow=True)


class TestBitsets:
    """Item bitsets that drop co-raters sharing fewer than two items: lazy,
    one set per matrix object, bounded by the input, and no pair count moves."""

    @pytest.mark.parametrize("methods", ["pcc", "pcc,dynamic"])
    def test_bitsets_change_no_pair_count_on_a_planted_holdout(self, methods, base_calls,
                                                               monkeypatch):
        # every known test user's full row, each pair with 2+ co-rated items
        # scored once; 1,701 is also what a builder without bitsets scores here
        records = _synth.planted_records(seed=3, n_users=220, n_items=150)
        train, test = split_holdout(build_matrix(records, RatingScale(*_synth.SCALE)), 0.8, 42)
        sims = [make_method(name) for name in methods.split(",")]
        caches = SimilarityCache.siblings(sims, train)
        runs = []
        pearson = cflevels.cache._pearson
        monkeypatch.setattr(cflevels.cache, "_pearson",
                            lambda *args: runs.append(1) or pearson(*args))
        base_calls.clear()
        for sim, cache in zip(sims, caches):
            evaluate_split(train, test, sim, ks=(20,), r=5, relevance=4.0, cache=cache)
        by_user = train._by_user
        known = {ia for user, _, _ in test if (ia := train._user_index.get(user)) is not None}
        needed = {frozenset((ia, ib)) for ia in known for ib in range(train.user_count)
                  if ib != ia and len(by_user[ia].keys() & by_user[ib].keys()) >= 2}
        assert len(base_calls) == len(needed) == 1701
        # the formula runs once per distinct overlap, which repeats here
        assert len(runs) == len(set(base_calls)) == len(caches[0]._memo) < 0.5 * 1701

    def test_built_once_per_matrix_and_never_shared_with_a_cut(self, monkeypatch):
        prop = cflevels.ratings.RatingsMatrix.__dict__["_masks"]
        built = []
        func = prop.func
        monkeypatch.setattr(prop, "func", lambda m: built.append(m) or func(m))
        records = _synth.planted_records(seed=3, n_users=60, n_items=40)
        m = build_matrix(records, RatingScale(*_synth.SCALE))
        train, _ = split_holdout(m, 0.8, 42)
        assert built == []  # neither building nor cutting a matrix makes them
        for matrix in (m, train):
            cache = SimilarityCache(PCC, matrix)
            for ia in range(matrix.user_count):
                cache.row(ia)
            SimilarityCache(PCC, matrix).row(0)
        assert built == [m, train]
        assert train._masks is not m._masks
        for matrix in (m, train):
            assert matrix._masks == tuple(sum(1 << ii for ii in row) for row in matrix._by_user)

    def test_user_at_64_bits_per_rating_gets_none(self, scale):
        # every one of 200 items is rated, so item ids map to their own index
        records = [("all", f"i{ii:03d}", 3.0) for ii in range(200)]
        records += [("over", "i000", 4.0), ("over", "i128", 2.0),   # 128 = 64 * 2
                    ("under", "i000", 4.0), ("under", "i127", 2.0),
                    ("one", "i063", 1.0), ("one-over", "i064", 1.0)]
        m = build_matrix(records, scale)
        masks = dict(zip(m.users(), m._masks))
        assert masks["over"] is None and masks["one-over"] is None
        assert masks["under"] == 1 | 1 << 127 and masks["one"] == 1 << 63
        assert masks["all"] == (1 << 200) - 1
