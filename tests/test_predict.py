"""Neighborhood formation, rating prediction, and top-N recommendation."""

import math
import random

import pytest

import oracles
from cflevels import (RatingScale, SimilarityCache, SimilarityMethod,
                      UnknownUserError, build_matrix, make_method,
                      neighborhood_for_item, pcc, predict, raters_of,
                      recommend_top_n)

PCC = make_method("pcc")


def oracle_sim(ratings):
    return lambda a, b: oracles.pearson(ratings, a, b)


class TestNeighborhood:
    def test_sample_u1_i4_is_empty(self, sample_matrix):
        # none of i4's raters correlates positively with u1
        hood = neighborhood_for_item("u1", "i4", 2, PCC, sample_matrix)
        assert hood.neighbors == ()

    def test_positive_similarity_only(self, scale):
        m = build_matrix([("a", "i1", 1.0), ("a", "i2", 5.0),
                          ("b", "i1", 5.0), ("b", "i2", 1.0), ("b", "x", 3.0),
                          ("c", "i1", 1.0), ("c", "i2", 5.0), ("c", "x", 4.0)], scale)
        hood = neighborhood_for_item("a", "x", 5, PCC, m)
        assert [b for b, _ in hood.neighbors] == ["c"]  # b anticorrelates

    def test_ties_break_on_ascending_id(self, scale):
        # b2 and b1 have identical rows, so identical similarity to a
        m = build_matrix([("a", "i1", 1.0), ("a", "i2", 5.0),
                          ("b2", "i1", 1.0), ("b2", "i2", 5.0), ("b2", "x", 4.0),
                          ("b1", "i1", 1.0), ("b1", "i2", 5.0), ("b1", "x", 2.0)], scale)
        hood = neighborhood_for_item("a", "x", 2, PCC, m)
        assert [b for b, _ in hood.neighbors] == ["b1", "b2"]

    def test_k_truncates_and_saturates(self, scale):
        rng = random.Random(11)
        ratings = oracles.random_ratings(rng, n_users=12, n_items=8, density=0.9)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        item = sorted({i for row in ratings.values() for i in row})[0]
        user = sorted(ratings)[0]
        small = neighborhood_for_item(user, item, 2, PCC, m)
        big = neighborhood_for_item(user, item, 500, PCC, m)
        assert len(small.neighbors) <= 2
        assert small.neighbors == big.neighbors[:len(small.neighbors)]

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
                    assert [b for b, _ in got.neighbors] == [b for b, _ in want]


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
                       neighborhood_for_item("a", "x", 3, PCC, m1).neighbors)
        w2 = math.fsum(abs(s) for _, s in
                       neighborhood_for_item("a", "x", 3, PCC, m2).neighbors)
        num1 = (p1.value - m1.mean_of("a")) * w1
        num2 = (p2.value - m2.mean_of("a")) * w2
        assert num1 == pytest.approx(num2, abs=1e-12)
        assert p1.value != pytest.approx(p2.value)

    def test_weighted_mean_mode(self, scale):
        m = build_matrix([("a", "i1", 1.0), ("a", "i2", 5.0),
                          ("b", "i1", 1.0), ("b", "i2", 5.0), ("b", "x", 4.0),
                          ("c", "i1", 2.0), ("c", "i2", 5.0), ("c", "x", 2.0)], scale)
        p = predict("a", "x", 2, PCC, m, mode="weighted_mean")
        s_b = pcc("a", "b", m)
        s_c = pcc("a", "c", m)
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


class TestRecommendTopN:
    def test_sample_u3_has_no_recommendations(self, sample_matrix):
        # frozen oracle result: every candidate similarity is <= 0
        assert recommend_top_n("u3", 2, 3, PCC, sample_matrix) == ()

    def test_unknown_user_raises(self, sample_matrix):
        with pytest.raises(UnknownUserError):
            recommend_top_n("u9", 2, 3, PCC, sample_matrix)

    def test_r_validated(self, sample_matrix):
        with pytest.raises(ValueError):
            recommend_top_n("u3", 0, 3, PCC, sample_matrix)

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

    def test_never_recommends_rated_items(self, scale):
        rng = random.Random(31)
        ratings = oracles.random_ratings(rng, density=0.7)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        for user in sorted(ratings):
            got = recommend_top_n(user, 10, 5, PCC, m)
            assert not ({i for i, _ in got} & set(ratings[user]))

    def test_candidate_pool_restriction(self, scale):
        rng = random.Random(32)
        ratings = oracles.random_ratings(rng, density=0.7)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        user = sorted(ratings)[0]
        pool = {"i003", "i007", "unknown-item"}
        got = recommend_top_n(user, 10, 5, PCC, m, candidates=pool)
        assert {i for i, _ in got} <= {"i003", "i007"}

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
        unrated = set(m.items()) - m.items_of(a)
        raters = set().union(*(raters_of(i, m) for i in unrated)) - {a}
        assert len(calls) == len(raters)
        assert got == recommend_top_n(a, 5, 3, counting, m, cache=SimilarityCache(counting, m))
