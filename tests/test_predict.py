"""Neighborhood formation, rating prediction, and top-N recommendation."""

import math
import random

import pytest

import _synth
import cflevels.cache
import oracles
from cflevels import (PREDICTION_MODES, RatingScale, SimilarityCache, SimilarityMethod,
                      UnknownUserError, build_matrix, make_method,
                      neighborhood_for_item, predict, recommend_top_n)

PCC = make_method("pcc")


def oracle_sim(ratings):
    return lambda a, b: oracles.pearson(ratings, a, b)


class TestNeighborhood:
    def test_sample_u1_i4_is_empty(self, sample_matrix):
        # none of i4's raters correlates positively with u1
        hood = neighborhood_for_item("u1", "i4", 2, PCC, sample_matrix)
        assert hood == ()

    def test_positive_similarity_only(self, scale):
        m = build_matrix([("a", "i1", 1.0), ("a", "i2", 5.0),
                          ("b", "i1", 5.0), ("b", "i2", 1.0), ("b", "x", 3.0),
                          ("c", "i1", 1.0), ("c", "i2", 5.0), ("c", "x", 4.0)], scale)
        hood = neighborhood_for_item("a", "x", 5, PCC, m)
        assert [b for b, _ in hood] == ["c"]  # b anticorrelates

    def test_ties_break_on_ascending_id(self, scale):
        # b2 and b1 have identical rows, so identical similarity to a
        m = build_matrix([("a", "i1", 1.0), ("a", "i2", 5.0),
                          ("b2", "i1", 1.0), ("b2", "i2", 5.0), ("b2", "x", 4.0),
                          ("b1", "i1", 1.0), ("b1", "i2", 5.0), ("b1", "x", 2.0)], scale)
        hood = neighborhood_for_item("a", "x", 2, PCC, m)
        assert [b for b, _ in hood] == ["b1", "b2"]

    def test_k_truncates_and_saturates(self, scale):
        rng = random.Random(11)
        ratings = oracles.random_ratings(rng, n_users=12, n_items=8, density=0.9)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        item = sorted({i for row in ratings.values() for i in row})[0]
        user = sorted(ratings)[0]
        small = neighborhood_for_item(user, item, 2, PCC, m)
        big = neighborhood_for_item(user, item, 500, PCC, m)
        assert len(small) <= 2
        assert small == big[:len(small)]

    def test_k_validated(self, sample_matrix):
        with pytest.raises(ValueError):
            neighborhood_for_item("u1", "i4", 0, PCC, sample_matrix)

    def test_membership_and_order_match_oracle(self, scale):
        rng = random.Random(613)
        for _ in range(20):
            ratings = oracles.random_ratings(rng)
            m = build_matrix(oracles.ratings_to_records(ratings), scale)
            sim = oracle_sim(ratings)
            items = sorted({i for row in ratings.values() for i in row})
            for user in sorted(ratings):
                for item in items:
                    want = oracles.neighborhood(ratings, user, item, 3, sim)
                    got = neighborhood_for_item(user, item, 3, PCC, m)
                    assert [b for b, _ in got] == [b for b, _ in want]


class TestPredict:
    def test_none_when_no_positive_neighbors(self, sample_matrix):
        assert predict("u1", "i4", 2, PCC, sample_matrix) is None

    def test_none_for_unknown_user_or_item(self, sample_matrix):
        assert predict("u9", "i1", 2, PCC, sample_matrix) is None
        assert predict("u1", "i9", 2, PCC, sample_matrix) is None

    def test_matches_oracle_on_random_matrices(self, scale):
        rng = random.Random(471)
        for _ in range(20):
            ratings = oracles.random_ratings(rng)
            m = build_matrix(oracles.ratings_to_records(ratings), scale)
            sim = oracle_sim(ratings)
            items = sorted({i for row in ratings.values() for i in row})
            for user in sorted(ratings):
                for item in items:
                    if item in ratings[user]:
                        continue
                    want = oracles.predict(ratings, user, item, 4, sim, (1, 5))
                    got = predict(user, item, 4, PCC, m)
                    if want is None:
                        assert got is None
                    else:
                        assert got is not None
                        assert got.value == pytest.approx(want, abs=1e-9)

    def test_clamped_to_scale(self):
        # strong agreement pushes the raw value past the top of the scale
        scale = RatingScale(1.0, 5.0)
        m = build_matrix([("a", "i1", 4.0), ("a", "i2", 5.0),
                          ("b", "i1", 1.0), ("b", "i2", 2.0), ("b", "x", 5.0)], scale)
        p = predict("a", "x", 1, PCC, m)
        assert p is not None
        assert p.value == 5.0  # 4.5 + (5 - 8/3) would exceed rmax

    def test_all_zero_deviation_neighbors_yield_own_mean(self, scale):
        # every neighbor rates x exactly at their own mean, so the weighted
        # deviation sum vanishes and the prediction is the target's mean
        m = build_matrix([("a", "i1", 2.0), ("a", "i2", 4.0),
                          ("b", "i1", 2.0), ("b", "i2", 4.0), ("b", "x", 3.0)], scale)
        p = predict("a", "x", 2, PCC, m)
        assert p is not None
        assert p.value == pytest.approx(3.0)

    def test_removing_zero_deviation_neighbor_keeps_numerator(self, scale):
        # the deviation sum is unchanged, but the |w| normalizer shrinks, so
        # the predicted VALUE moves; both facts pinned here
        with_b = [("a", "i1", 2.0), ("a", "i2", 4.0),
                  ("b", "i1", 2.0), ("b", "i2", 4.0), ("b", "x", 3.0),
                  ("c", "i1", 1.0), ("c", "i2", 5.0), ("c", "x", 4.0)]
        m1 = build_matrix(with_b, scale)
        m2 = build_matrix([r for r in with_b if r[:2] != ("b", "x")], scale)
        p1 = predict("a", "x", 3, PCC, m1)
        p2 = predict("a", "x", 3, PCC, m2)
        assert p1 is not None and p2 is not None
        w1 = math.fsum(abs(s) for _, s in
                       neighborhood_for_item("a", "x", 3, PCC, m1))
        w2 = math.fsum(abs(s) for _, s in
                       neighborhood_for_item("a", "x", 3, PCC, m2))
        num1 = (p1.value - m1.mean_of("a")) * w1
        num2 = (p2.value - m2.mean_of("a")) * w2
        assert num1 == pytest.approx(num2, abs=1e-12)
        assert p1.value != pytest.approx(p2.value)

    def test_weighted_mean_mode(self, scale):
        m = build_matrix([("a", "i1", 1.0), ("a", "i2", 5.0),
                          ("b", "i1", 1.0), ("b", "i2", 5.0), ("b", "x", 4.0),
                          ("c", "i1", 2.0), ("c", "i2", 5.0), ("c", "x", 2.0)], scale)
        p = predict("a", "x", 2, PCC, m, mode="weighted_mean")
        s_b = PCC.score("a", "b", m)
        s_c = PCC.score("a", "c", m)
        want = (s_b * 4.0 + s_c * 2.0) / (abs(s_b) + abs(s_c))
        assert p is not None
        assert p.value == pytest.approx(want)

    def test_unknown_mode_rejected(self, sample_matrix):
        with pytest.raises(ValueError):
            predict("u1", "i4", 2, PCC, sample_matrix, mode="mystery")

    def test_support_counts_neighbors(self, scale):
        m = build_matrix([("a", "i1", 1.0), ("a", "i2", 5.0),
                          ("b", "i1", 1.0), ("b", "i2", 5.0), ("b", "x", 4.0),
                          ("c", "i1", 2.0), ("c", "i2", 5.0), ("c", "x", 2.0)], scale)
        p = predict("a", "x", 5, PCC, m)
        assert p is not None
        assert p.support == 2


class TestIndexPath:
    """``predict`` against the neighborhood it combines, formula kept here."""

    METHODS = (make_method("pcc"), make_method("static"), make_method("dynamic"),
               make_method("dynamic", negative_form="eq8"))

    @staticmethod
    def reference(a, item, hood, m, mode):
        weight_total = math.fsum(abs(s) for _, s in hood)
        if mode == "resnick":
            num = math.fsum(s * (m.rating(b, item) - m.mean_of(b)) for b, s in hood)
            raw = m.mean_of(a) + num / weight_total
        else:
            num = math.fsum(s * m.rating(b, item) for b, s in hood)
            raw = num / weight_total
        return m.scale.clamp(raw)

    def test_predict_equals_reference_bit_for_bit(self, scale):
        rng = random.Random(1994)
        predicted = 0
        for _ in range(4):
            ratings = oracles.random_ratings(rng, n_users=12, n_items=10, density=0.6)
            m = build_matrix(oracles.ratings_to_records(ratings), scale)
            items = sorted({i for row in ratings.values() for i in row}) + ["unknown-item"]
            for sim in self.METHODS:
                cache = SimilarityCache(sim, m)
                for a in sorted(ratings):
                    for item in items:
                        for k in (1, 3, 40):
                            hood = neighborhood_for_item(a, item, k, sim, m, cache)
                            for mode in PREDICTION_MODES:
                                got = predict(a, item, k, sim, m, cache, mode)
                                if not hood:
                                    assert got is None
                                    continue
                                assert got is not None
                                assert got.value == self.reference(a, item, hood, m, mode)
                                assert got.support == len(hood)
                                predicted += 1
        assert predicted > 1000


class TestRecommendTopN:
    @staticmethod
    def by_predict(user, k, sim, m, pool, mode, cache=None):
        """The whole ranking of ``pool`` (None: every item), one ``predict`` per candidate."""
        items = m.items() if pool is None else pool
        want = [(i, p.value) for i in items
                if i in m._item_index and m.rating(user, i) is None
                and (p := predict(user, i, k, sim, m, cache, mode))]
        want.sort(key=lambda pair: (-pair[1], pair[0]))
        return tuple(want)

    def test_sample_u3_has_no_recommendations(self, sample_matrix):
        # frozen oracle result: every candidate similarity is <= 0
        assert recommend_top_n("u3", 2, 3, PCC, sample_matrix) == ()

    def test_unknown_user_raises(self, sample_matrix):
        with pytest.raises(UnknownUserError):
            recommend_top_n("u9", 2, 3, PCC, sample_matrix)

    def test_r_validated(self, sample_matrix):
        with pytest.raises(ValueError):
            recommend_top_n("u3", 0, 3, PCC, sample_matrix)

    def test_mode_and_k_validated_with_an_empty_pool(self, scale):
        # a has rated every item, so no candidate ever reaches predict
        m = build_matrix([("a", "i1", 1.0), ("a", "i2", 5.0),
                          ("b", "i1", 2.0), ("b", "i2", 4.0)], scale)
        assert recommend_top_n("a", 3, 5, PCC, m) == ()
        with pytest.raises(ValueError, match="mode"):
            recommend_top_n("a", 3, 5, PCC, m, mode="bogus")
        with pytest.raises(ValueError, match="k must be"):
            recommend_top_n("a", 3, 0, PCC, m)

    def test_matches_oracle_on_random_matrices(self, scale):
        rng = random.Random(90210)
        for _ in range(15):
            ratings = oracles.random_ratings(rng)
            m = build_matrix(oracles.ratings_to_records(ratings), scale)
            sim = oracle_sim(ratings)
            for user in sorted(ratings):
                want = oracles.top_n(ratings, user, 4, 3, sim, (1, 5))
                got = recommend_top_n(user, 4, 3, PCC, m)
                assert [i for i, _ in got] == [i for i, _ in want]
                for (_, gv), (_, wv) in zip(got, want):
                    assert gv == pytest.approx(wv, abs=1e-9)

    def test_ranks_exactly_what_predict_returns(self, scale):
        # ranking combines neighbors itself; it must agree with predict bit for bit
        rng = random.Random(77)
        for _ in range(4):
            ratings = oracles.random_ratings(rng, n_users=14, n_items=12, density=0.5)
            m = build_matrix(oracles.ratings_to_records(ratings), scale)
            for sim in (make_method("dynamic", negative_form="eq8"), make_method("static")):
                for mode in PREDICTION_MODES:
                    for user in m.users():
                        for pool in (None, {"i001", "i004", "i009", "unknown-item"}):
                            got = recommend_top_n(user, 99, 3, sim, m, candidates=pool,
                                                  mode=mode)
                            assert got == self.by_predict(user, 3, sim, m, pool, mode)

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_walk_forms_the_single_item_neighborhoods(self, scale, k):
        # one best-first walk of the row for the pool, one raters lookup per
        # predict: k 1 and 5 fill many neighborhoods mid-walk, 40 none
        m = build_matrix(_synth.planted_records(seed=7, n_users=60, n_items=40,
                                                n_clusters=2), scale)
        sim = make_method("dynamic")
        cache = SimilarityCache(sim, m)
        pool = set(m.items()[::3]) | {"unknown-item"}
        for mode in PREDICTION_MODES:
            for user in m.users():
                for candidates in (None, pool):
                    got = recommend_top_n(user, m.item_count, k, sim, m, candidates,
                                          cache, mode)
                    assert got == self.by_predict(user, k, sim, m, candidates, mode, cache)

    def test_tie_at_the_kth_slot_goes_to_the_lower_user_id(self, scale):
        # b1 and b2 rate a's items alike, so they tie behind c for the second of
        # k=2 slots on both x and y; b1 must take it, whatever the record order
        tied = [("a", "i1", 1.0), ("a", "i2", 3.0), ("a", "i3", 5.0),
                ("c", "i1", 1.0), ("c", "i2", 3.0), ("c", "i3", 5.0),
                ("c", "x", 3.0), ("c", "y", 3.0),
                ("b2", "i1", 1.0), ("b2", "i2", 4.0), ("b2", "i3", 5.0),
                ("b2", "x", 2.0), ("b2", "y", 5.0),
                ("b1", "i1", 1.0), ("b1", "i2", 4.0), ("b1", "i3", 5.0),
                ("b1", "x", 5.0), ("b1", "y", 2.0)]
        m = build_matrix(tied, scale)
        assert 0.0 < PCC.score("a", "b1", m) == PCC.score("a", "b2", m) < PCC.score("a", "c", m)
        assert [b for b, _ in neighborhood_for_item("a", "x", 2, PCC, m)] == ["c", "b1"]
        without_b1 = build_matrix([t for t in tied if t[0] != "b1"], scale)
        without_b2 = build_matrix([t for t in tied if t[0] != "b2"], scale)
        for mode in PREDICTION_MODES:
            got = recommend_top_n("a", 5, 2, PCC, m, mode=mode)
            assert sorted(i for i, _ in got) == ["x", "y"]
            assert got == self.by_predict("a", 2, PCC, m, None, mode)
            assert got == recommend_top_n("a", 5, 2, PCC, without_b2, mode=mode)
            assert got != recommend_top_n("a", 5, 2, PCC, without_b1, mode=mode)

    def test_never_recommends_rated_items(self, scale):
        rng = random.Random(31)
        ratings = oracles.random_ratings(rng, density=0.7)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        for user in sorted(ratings):
            got = recommend_top_n(user, 10, 5, PCC, m)
            assert not ({i for i, _ in got} & set(ratings[user]))

    def test_candidate_pool_restriction(self, scale):
        # unknown items are skipped, and the caller's list or set is left as it was
        rng = random.Random(32)
        ratings = oracles.random_ratings(rng, density=0.7)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        user = "u005"  # rated i000, not i003, i007 or i009
        assert "i000" in ratings[user]
        known = {"i003", "i007", "i009"}
        for pool in (["i003", "unknown-item", "i007", "i000", "i009"],
                     {"i003", "unknown-item", "i007", "i000", "i009"}):
            before = pool.copy()
            for k in (1, 5):
                got = recommend_top_n(user, 10, k, PCC, m, candidates=pool)
                assert got and {i for i, _ in got} <= known
                assert pool == before

    def test_candidate_pool_scores_only_its_raters(self, monkeypatch):
        m = build_matrix(_synth.planted_records(seed=3, n_users=220, n_items=150),
                         RatingScale(*_synth.SCALE))
        calls = []
        pearson = cflevels.cache._pearson
        monkeypatch.setattr(cflevels.cache, "_pearson",
                            lambda *args: calls.append(1) or pearson(*args))
        user, pool = "u000", {"i001", "i050", "i120"}
        got = recommend_top_n(user, 5, 20, PCC, m, candidates=pool)
        # the raters, with >= 2 co-rated items, of the pool items the user has not rated
        ia = m._user_index[user]
        ra = m._by_user[ia]
        unrated = {i for i in pool if m._item_index[i] not in ra}
        raters = {ib for i in unrated for ib in m._by_item[m._item_index[i]]
                  if len(ra.keys() & m._by_user[ib].keys()) >= 2}
        assert len(calls) == len(raters)
        calls.clear()
        full = SimilarityCache(PCC, m)
        full.row(ia)
        assert len(calls) > len(raters)
        assert got and got == recommend_top_n(user, 5, 20, PCC, m, candidates=pool, cache=full)
        ratings = oracles.records_to_dict(m.records())
        want = oracles.top_n(ratings, user, 5, 20, oracle_sim(ratings), (1, 5), unrated)
        assert [i for i, _ in got] == [i for i, _ in want]
        assert all(abs(x - y) <= 1e-9 for (_, x), (_, y) in zip(got, want))

    def test_r_exceeding_candidates_returns_all(self, scale):
        m = build_matrix([("a", "i1", 1.0), ("a", "i2", 5.0),
                          ("b", "i1", 1.0), ("b", "i2", 5.0),
                          ("b", "x", 4.0), ("b", "y", 2.0)], scale)
        got = recommend_top_n("a", 99, 5, PCC, m)
        assert [i for i, _ in got] == ["x", "y"]

    def test_order_value_desc_then_item_asc(self, scale):
        # two candidates tie on predicted value -> item id decides
        m = build_matrix([("a", "i1", 1.0), ("a", "i2", 5.0),
                          ("b", "i1", 1.0), ("b", "i2", 5.0),
                          ("b", "y", 4.0), ("b", "x", 4.0)], scale)
        got = recommend_top_n("a", 5, 5, PCC, m)
        assert [i for i, _ in got] == ["x", "y"]

    def test_scores_each_pair_once_without_a_cache(self, scale):
        rng = random.Random(31)
        ratings = oracles.random_ratings(rng, n_users=12, n_items=15, density=0.5)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        calls = []

        def adjust(s, co, m_):
            calls.append((s, co, m_))
            return s

        counting = SimilarityMethod("pcc", adjust)
        a = m.users()[0]
        got = recommend_top_n(a, 5, 3, counting, m)
        # the zero-base calls of the cache being made, one per co-rated count
        # up to the longest row, then one row for a: each co-rater with a
        # nonzero Pearson base is adjusted once
        bases = [(PCC.score(a, b, m), len(co)) for b in m.users()
                 if b != a and (co := oracles.overlap(ratings, a, b))]
        probes = [(0.0, co) for co in range(max(len(row) for row in ratings.values()) + 1)]
        want = sorted(probes + [base for base in bases if base[0] != 0.0])
        assert len(want) > 6
        assert sorted((s, co) for s, co, _ in calls) == want
        assert got == recommend_top_n(a, 5, 3, counting, m, cache=SimilarityCache(counting, m))
