"""Rating store construction, lookups, and canonical ordering."""

import math
import pickle
import random

import pytest

import oracles
from cflevels import (OutOfScaleRatingError, RatingRecord, RatingScale,
                      UnknownUserError, build_matrix)


def rated_items(m, user):
    """Item ids in ``user``'s row of the forward index."""
    return {m.items()[ii] for ii in m._by_user[m._require_user(user)]}


class TestRatingScale:
    def test_rejects_inverted_or_empty_bounds(self):
        with pytest.raises(ValueError):
            RatingScale(5.0, 1.0)
        with pytest.raises(ValueError):
            RatingScale(3.0, 3.0)

    @pytest.mark.parametrize("bounds", [(1.0, math.inf), (-math.inf, 5.0)])
    def test_rejects_infinite_bounds(self, bounds):
        with pytest.raises(ValueError, match="must be finite"):
            RatingScale(*bounds)

    def test_every_way_to_make_one_checks_the_bounds(self):
        good = RatingScale(1.0, 5.0)
        for make in (lambda: RatingScale(5.0, 1.0), lambda: RatingScale(rmin=1.0, rmax=1.0),
                     lambda: good._replace(rmax=0.5), lambda: RatingScale._make((5.0, 1.0))):
            with pytest.raises(ValueError, match="rmin < rmax"):
                make()
        with pytest.raises(ValueError, match="must be finite"):
            good._replace(rmax=math.inf)
        assert good._replace(rmax=10.0) == RatingScale._make((1.0, 10.0)) == (1.0, 10.0)
        assert pickle.loads(pickle.dumps(good)) == good

    def test_span_contains_clamp(self):
        s = RatingScale(0.0, 10.0)
        assert s.span == 10.0
        assert s.contains(0.0) and s.contains(10.0)
        assert not s.contains(-0.001) and not s.contains(10.001)
        assert s.clamp(11.5) == 10.0
        assert s.clamp(-2.0) == 0.0
        assert s.clamp(7.25) == 7.25


class TestMatrixConstruction:
    def test_sample_shape(self, sample_matrix):
        assert sample_matrix.user_count == 4
        assert sample_matrix.item_count == 4
        assert sample_matrix.users() == ("u1", "u2", "u3", "u4")
        assert sample_matrix.items() == ("i1", "i2", "i3", "i4")
        assert len(sample_matrix.records()) == 13

    def test_out_of_scale_rejected(self, scale):
        records = [("u1", "i1", 3.0), ("u1", "i2", 6.0)]
        with pytest.raises(OutOfScaleRatingError):
            build_matrix(records, scale)

    def test_duplicate_pair_keeps_last(self, scale):
        m = build_matrix([("u1", "i1", 2.0), ("u2", "i1", 3.0), ("u1", "i1", 5.0)], scale)
        assert m.rating("u1", "i1") == 5.0
        assert len(m.records()) == 2

    def test_empty_matrix(self, scale):
        m = build_matrix([], scale)
        assert m.user_count == 0 and m.item_count == 0
        assert m.records() == []
        assert m.users() == () and m.items() == ()

    def test_records_canonical_order(self, sample_matrix):
        recs = sample_matrix.records()
        assert recs == sorted(recs, key=lambda rec: (rec.user, rec.item))
        assert recs[0] == RatingRecord("u1", "i1", 1.0)

    def test_construction_order_irrelevant(self, scale):
        rng = random.Random(5)
        shuffled = list(oracles.SAMPLE_RECORDS)
        rng.shuffle(shuffled)
        a = build_matrix(oracles.SAMPLE_RECORDS, scale)
        b = build_matrix(shuffled, scale)
        assert a.records() == b.records()


class TestLookups:
    def test_rating_present_and_absent(self, sample_matrix):
        assert sample_matrix.rating("u2", "i4") == 3.0
        assert sample_matrix.rating("u1", "i4") is None
        assert sample_matrix.rating("nobody", "i1") is None
        assert sample_matrix.rating("u1", "nothing") is None

    def test_items_of(self, sample_matrix):
        assert rated_items(sample_matrix, "u3") == {"i3", "i4"}
        with pytest.raises(UnknownUserError):
            rated_items(sample_matrix, "u9")

    def test_mean_of_full_row(self, sample_matrix):
        assert sample_matrix.mean_of("u1") == pytest.approx(2.0)
        assert sample_matrix.mean_of("u2") == pytest.approx(4.0)
        for u in sample_matrix.users():
            assert sample_matrix.mean_of(u) == pytest.approx(
                oracles.full_mean(oracles.SAMPLE_RATINGS, u))


class TestCoRated:
    """The overlap of two users' rows in the forward index, as the row builder takes it."""

    def test_matches_oracle_on_sample(self, sample_matrix):
        for a in sample_matrix.users():
            for b in sample_matrix.users():
                if a >= b:
                    continue
                want = set(oracles.overlap(oracles.SAMPLE_RATINGS, a, b))
                assert rated_items(sample_matrix, a) & rated_items(sample_matrix, b) == want

    def test_unknown_user_rejected(self, sample_matrix):
        with pytest.raises(UnknownUserError):
            rated_items(sample_matrix, "u1") & rated_items(sample_matrix, "u9")


class TestRandomMatrices:
    def test_means_match_oracle(self, scale):
        rng = random.Random(2024)
        for _ in range(25):
            ratings = oracles.random_ratings(rng)
            m = build_matrix(oracles.ratings_to_records(ratings), scale)
            for u in sorted(ratings):
                assert m.mean_of(u) == pytest.approx(oracles.full_mean(ratings, u), abs=1e-12)

    def test_roundtrip_records(self, scale):
        rng = random.Random(77)
        ratings = oracles.random_ratings(rng, n_users=15, n_items=12)
        records = oracles.ratings_to_records(ratings)
        m = build_matrix(records, scale)
        assert [(r.user, r.item, r.value) for r in m.records()] == records
