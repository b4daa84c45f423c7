"""The pair cache bound to one method and matrix: hits, misses, symmetry, transparency."""

import random

import pytest

import oracles
from cflevels import (FingerprintMismatchError, SimilarityCache, UnknownUserError,
                      build_matrix, get_or_compute, make_method, pcc)

PCC = make_method("pcc")


def fresh_cache(m, sim=PCC):
    return SimilarityCache(sim, m)


class TestGetOrCompute:
    def test_hit_returns_stored_value(self, sample_matrix):
        cache = fresh_cache(sample_matrix)
        cache.store[(0, 1)] = 0.123  # sentinel proves no recomputation
        got = get_or_compute(cache, "u1", "u2", PCC, sample_matrix)
        assert got == 0.123

    def test_miss_computes_and_stores(self, sample_matrix):
        cache = fresh_cache(sample_matrix)
        assert (0, 2) not in cache.store
        got = get_or_compute(cache, "u1", "u3", PCC, sample_matrix)
        assert got == pcc("u1", "u3", sample_matrix)
        assert (0, 2) in cache.store

    def test_symmetric_keys(self, sample_matrix):
        cache = fresh_cache(sample_matrix)
        ab = get_or_compute(cache, "u1", "u2", PCC, sample_matrix)
        ba = get_or_compute(cache, "u2", "u1", PCC, sample_matrix)
        assert ab == ba
        assert len([k for k in cache.store if k in ((0, 1), (1, 0))]) == 1

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
        assert len(cache) == len(users) * (len(users) - 1) // 2

    def test_fingerprint_mismatch(self, sample_matrix, scale):
        other = build_matrix([("x", "i1", 3.0), ("y", "i1", 4.0)], scale)
        cache = fresh_cache(other)
        with pytest.raises(FingerprintMismatchError):
            get_or_compute(cache, "u1", "u2", PCC, sample_matrix)
        wrong_method = fresh_cache(sample_matrix, make_method("spcc"))
        with pytest.raises(FingerprintMismatchError):
            get_or_compute(wrong_method, "u1", "u2", PCC, sample_matrix)
        # equal content is not enough: a cache serves only the objects it was made for
        copy = build_matrix(oracles.SAMPLE_RECORDS, scale)
        with pytest.raises(FingerprintMismatchError):
            get_or_compute(fresh_cache(sample_matrix), "u1", "u2", PCC, copy)
        with pytest.raises(FingerprintMismatchError):
            get_or_compute(fresh_cache(sample_matrix), "u1", "u2", make_method("pcc"),
                           sample_matrix)

    def test_unknown_user(self, sample_matrix):
        cache = fresh_cache(sample_matrix)
        with pytest.raises(UnknownUserError):
            get_or_compute(cache, "u1", "nobody", PCC, sample_matrix)
        with pytest.raises(UnknownUserError):
            get_or_compute(cache, "nobody", "u1", PCC, sample_matrix)
        assert len(cache) == 0
