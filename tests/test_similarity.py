"""Similarity measures against the brute-force oracle and each other."""

import math
import random

import pytest
from hypothesis import given, strategies as st

import oracles
from cflevels import (PlusParams, StaticParams, apply_spcc, apply_static,
                      apply_wpcc, build_matrix, make_method, pcc,
                      plus_adjust)

scores = st.floats(min_value=-1.0, max_value=1.0)
counts = st.integers(min_value=0, max_value=500)


class TestPcc:
    # all six pairs of the sample database, frozen from the oracle
    FROZEN = {
        ("u1", "u2"): -0.8660254037844385,
        ("u1", "u3"): 0.0,   # single co-rated item
        ("u1", "u4"): 0.0,   # zero variance on the overlap
        ("u2", "u3"): 0.0,   # zero variance on the overlap
        ("u2", "u4"): -0.5773502691896258,
        ("u3", "u4"): -0.9999999999999998,
    }

    def test_sample_pairs_frozen(self, sample_matrix):
        for (a, b), want in self.FROZEN.items():
            assert pcc(a, b, sample_matrix) == pytest.approx(want, abs=1e-9)

    def test_sample_pairs_match_oracle(self, sample_matrix):
        for a, b in self.FROZEN:
            want = oracles.pearson(oracles.SAMPLE_RATINGS, a, b)
            assert pcc(a, b, sample_matrix) == pytest.approx(want, abs=1e-9)

    def test_symmetry_on_sample(self, sample_matrix):
        for a, b in self.FROZEN:
            assert pcc(a, b, sample_matrix) == pcc(b, a, sample_matrix)

    def test_identical_rows_score_one(self, scale):
        m = build_matrix([("a", "i1", 1.0), ("a", "i2", 3.0), ("a", "i3", 5.0),
                          ("b", "i1", 1.0), ("b", "i2", 3.0), ("b", "i3", 5.0)], scale)
        assert pcc("a", "b", m) == pytest.approx(1.0)

    def test_opposite_rows_score_minus_one(self, scale):
        m = build_matrix([("a", "i1", 1.0), ("a", "i2", 5.0),
                          ("b", "i1", 5.0), ("b", "i2", 1.0)], scale)
        assert pcc("a", "b", m) == pytest.approx(-1.0)

    def test_no_overlap_scores_zero(self, scale):
        m = build_matrix([("a", "i1", 2.0), ("b", "i2", 4.0)], scale)
        assert pcc("a", "b", m) == 0.0

    def test_random_matrices_match_oracle(self, scale):
        rng = random.Random(314)
        for _ in range(30):
            ratings = oracles.random_ratings(rng)
            m = build_matrix(oracles.ratings_to_records(ratings), scale)
            users = sorted(ratings)
            for i, a in enumerate(users):
                for b in users[i + 1:]:
                    want = oracles.pearson(ratings, a, b)
                    assert pcc(a, b, m) == pytest.approx(want, abs=1e-9)

    def test_always_in_unit_interval(self, scale):
        rng = random.Random(99)
        for _ in range(20):
            ratings = oracles.random_ratings(rng, density=0.8)
            m = build_matrix(oracles.ratings_to_records(ratings), scale)
            users = sorted(ratings)
            for i, a in enumerate(users):
                for b in users[i + 1:]:
                    assert -1.0 <= pcc(a, b, m) <= 1.0


class TestWpcc:
    def test_damps_below_threshold(self):
        assert apply_wpcc(0.8, 30, 50) == pytest.approx(0.48)
        assert apply_wpcc(-0.5, 10, 50) == pytest.approx(-0.1)
        assert apply_wpcc(0.8, 0, 50) == 0.0

    def test_identity_at_or_above_threshold(self):
        assert apply_wpcc(0.8, 50, 50) == 0.8
        assert apply_wpcc(0.8, 120, 50) == 0.8

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            apply_wpcc(0.5, 3, 0)

    @pytest.mark.parametrize("big_t", [0, math.nan])
    def test_method_threshold_validated_at_construction(self, big_t):
        # checked when the method is made, not at its first scored pair
        with pytest.raises(ValueError, match="WPCC threshold"):
            make_method("wpcc", big_t=big_t)

    @given(s=scores, co=counts)
    def test_never_grows_magnitude(self, s, co):
        out = apply_wpcc(s, co, 50)
        assert abs(out) <= abs(s) + 1e-12
        assert out * s >= 0.0  # sign preserved (or zero)

    def test_matrix_layer_matches_oracle(self, sample_matrix):
        for a in sample_matrix.users():
            for b in sample_matrix.users():
                if a >= b:
                    continue
                for threshold in (2, 3, 50):
                    want = oracles.weighted_pearson(oracles.SAMPLE_RATINGS, a, b, threshold)
                    got = make_method("wpcc", big_t=threshold).score(a, b, sample_matrix)
                    assert got == pytest.approx(want, abs=1e-9)


class TestSpcc:
    def test_frozen_values(self):
        assert apply_spcc(0.6, 20) == pytest.approx(0.5999727612787785, abs=1e-12)
        assert apply_spcc(1.0, 0) == pytest.approx(0.5)

    @given(s=scores, co=counts)
    def test_shrinks_toward_zero(self, s, co):
        out = apply_spcc(s, co)
        assert abs(out) <= abs(s)
        assert out * s >= 0.0

    def test_matrix_layer_matches_oracle(self, sample_matrix):
        for a in sample_matrix.users():
            for b in sample_matrix.users():
                if a >= b:
                    continue
                want = oracles.sigmoid_pearson(oracles.SAMPLE_RATINGS, a, b)
                got = make_method("spcc").score(a, b, sample_matrix)
                assert got == pytest.approx(want, abs=1e-9)


class TestPlusAdjust:
    def test_frozen_values(self):
        p = PlusParams(alpha=100.0, beta=2.0)
        assert plus_adjust(0.5, p) == pytest.approx(25.0)
        assert plus_adjust(-0.5, p) == pytest.approx(-25.0)
        assert plus_adjust(0.0, p) == 0.0

    def test_matches_oracle(self):
        rng = random.Random(8)
        for _ in range(200):
            s = rng.uniform(-1, 1)
            alpha = rng.uniform(0.5, 120)
            beta = rng.uniform(0.5, 6)
            want = oracles.power_law(s, alpha, beta)
            got = plus_adjust(s, PlusParams(alpha=alpha, beta=beta))
            assert got == pytest.approx(want, abs=1e-9)

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            PlusParams(alpha=0.0, beta=2.0)
        with pytest.raises(ValueError):
            PlusParams(alpha=100.0, beta=-1.0)

    @pytest.mark.parametrize("knobs", [{"alpha": math.nan}, {"alpha": math.inf},
                                       {"beta": math.inf}],
                             ids=["alpha-nan", "alpha-inf", "beta-inf"])
    def test_non_finite_parameters_rejected(self, knobs):
        # each would score NaN, inf, or 0 for every |s| < 1
        with pytest.raises(ValueError, match="positive and finite"):
            make_method("plus", **knobs)

    @given(s=st.one_of(st.just(0.0), st.floats(1e-150, 1.0),
                       st.floats(-1.0, -1e-150)))
    def test_sign_preserved(self, s):
        # magnitudes below ~1e-154 underflow to zero under beta=2 (see
        # test_underflow_collapses_to_zero); correlations never get there
        out = plus_adjust(s, PlusParams(alpha=100.0, beta=2.0))
        assert (out > 0) == (s > 0)
        assert (out < 0) == (s < 0)

    def test_underflow_collapses_to_zero(self):
        # squaring a subnormal-range score leaves no sign to preserve
        assert plus_adjust(4e-212, PlusParams(alpha=100.0, beta=2.0)) == 0.0

    @given(a=scores, b=scores)
    def test_order_preserved(self, a, b):
        # monotone in s, the property neighborhood ranking relies on; adjacent
        # floats may collapse to equal outputs, hence non-strict here
        p = PlusParams(alpha=80.0, beta=5.0)
        if a < b:
            assert plus_adjust(a, p) <= plus_adjust(b, p)

    def test_order_strict_on_separated_scores(self):
        p = PlusParams(alpha=80.0, beta=5.0)
        grid = [x / 50.0 for x in range(-50, 51)]
        outputs = [plus_adjust(s, p) for s in grid]
        assert outputs == sorted(outputs)
        assert len(set(outputs)) == len(outputs)


class TestStatic:
    def test_positive_branch_doubles(self):
        p = StaticParams(t=10, y=0.20)
        assert apply_static(0.5, 10, p) == pytest.approx(1.0)
        assert apply_static(0.2, 40, p) == pytest.approx(0.4)

    def test_negative_branch_shrinks(self):
        p = StaticParams(t=10, y=0.20)
        assert apply_static(0.5, 9, p) == pytest.approx(0.5 / 1.25)
        assert apply_static(0.15, 40, p) == pytest.approx(0.15 / (1 + 0.15 ** 2))
        assert apply_static(-0.9, 40, p) == pytest.approx(-0.9 / 1.81)

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_non_finite_y_rejected(self, y):
        # NaN or inf would never double, -inf would double every overlap of t
        with pytest.raises(ValueError, match="must be finite"):
            make_method("static", y=y)

    def test_nan_t_rejected(self):
        # no co-rated count is >= NaN, so the method would never double
        with pytest.raises(ValueError, match="co-rated threshold"):
            make_method("static", t=math.nan)

    @given(s=scores, co=counts)
    def test_total_over_inputs(self, s, co):
        # every (score, count) lands in exactly one branch and yields a float
        p = StaticParams(t=10, y=0.20)
        out = apply_static(s, co, p)
        if co >= 10 and s >= 0.20:
            assert out == pytest.approx(2 * s)
        else:
            assert out == pytest.approx(s / (1 + s * s))

    def test_matrix_layer_matches_oracle(self, sample_matrix):
        for a in sample_matrix.users():
            for b in sample_matrix.users():
                if a >= b:
                    continue
                for t, y in ((2, 0.1), (10, 0.2), (3, -0.9)):
                    want = oracles.static_adjusted(oracles.SAMPLE_RATINGS, a, b, t, y)
                    got = make_method("static", t=t, y=y).score(a, b, sample_matrix)
                    assert got == pytest.approx(want, abs=1e-9)


class TestMethodWrapper:
    def test_dispatch_matches_direct_calls(self, sample_matrix):
        direct = pcc("u1", "u2", sample_matrix)
        co = len(oracles.overlap(oracles.SAMPLE_RATINGS, "u1", "u2"))
        assert make_method("pcc").score("u1", "u2", sample_matrix) == direct
        assert make_method("wpcc", big_t=5).score("u1", "u2", sample_matrix) == \
            apply_wpcc(direct, co, 5)
        assert make_method("plus").score("u1", "u2", sample_matrix) == \
            plus_adjust(direct, PlusParams())

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_method("cosine")

    def test_all_methods_symmetric(self, scale):
        rng = random.Random(4242)
        methods = [make_method("pcc"), make_method("wpcc", big_t=5),
                   make_method("spcc"), make_method("plus"),
                   make_method("static"), make_method("dynamic")]
        for _ in range(5):
            ratings = oracles.random_ratings(rng, n_users=12, n_items=40, density=0.6)
            m = build_matrix(oracles.ratings_to_records(ratings), scale)
            users = sorted(ratings)
            for method in methods:
                for i, a in enumerate(users):
                    for b in users[i + 1:]:
                        assert method.score(a, b, m) == method.score(b, a, m)
