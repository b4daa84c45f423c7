"""Similarity measures against the brute-force oracle and each other."""

import decimal
import math
import random

import pytest
from hypothesis import given, strategies as st

import oracles
from cflevels import (NEGATIVE_FORMS, RatingScale, SimilarityCache, apply_spcc, apply_static,
                      apply_wpcc, build_matrix, make_method, plus_adjust)
from cflevels.similarity import _exp_half

PCC = make_method("pcc")

scores = st.floats(min_value=-1.0, max_value=1.0)
counts = st.integers(min_value=0, max_value=500)

# matrices of several shapes (users, items); dynamic's bands follow the shape
SHAPES = [build_matrix([(f"u{j % users}", f"i{j % items}", 3.0)
                        for j in range(max(users, items))], RatingScale(1.0, 5.0))
          for users, items in ((10, 2), (40, 30), (220, 150), (800, 450), (2000, 1000))]
# positive and finite, extremes included
knobs = st.floats(min_value=0.0, max_value=math.inf, exclude_min=True, exclude_max=True)
# every make_method configuration, at drawn knobs
configs = st.one_of(
    st.tuples(st.sampled_from(("pcc", "spcc")), st.just({})),
    st.tuples(st.just("wpcc"), st.fixed_dictionaries({"big_t": st.integers(1, 400)})),
    st.tuples(st.just("plus"), st.fixed_dictionaries({"alpha": knobs, "beta": knobs})),
    st.tuples(st.just("static"), st.fixed_dictionaries(
        {"t": st.integers(1, 400), "y": st.floats(allow_nan=False, allow_infinity=False)})),
    st.tuples(st.just("dynamic"), st.fixed_dictionaries(
        {"negative_form": st.sampled_from(NEGATIVE_FORMS)})),
)


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
            assert PCC.score(a, b, sample_matrix) == pytest.approx(want, abs=1e-9)

    def test_sample_pairs_match_oracle(self, sample_matrix):
        for a, b in self.FROZEN:
            want = oracles.pearson(oracles.SAMPLE_RATINGS, a, b)
            assert PCC.score(a, b, sample_matrix) == pytest.approx(want, abs=1e-9)

    def test_symmetry_on_sample(self, sample_matrix):
        for a, b in self.FROZEN:
            assert PCC.score(a, b, sample_matrix) == PCC.score(b, a, sample_matrix)

    @staticmethod
    def assert_identical_rows_score_one(bounds, values):
        m = build_matrix([(u, f"i{n}", v) for u in "ab" for n, v in enumerate(values)], bounds)
        assert PCC.score("a", "b", m) == 1.0
        assert SimilarityCache(PCC, m).row(0) == {1: 1.0}

    @staticmethod
    def assert_opposite_rows_score_minus_one(bounds, values):
        m = build_matrix([("a", f"i{n}", v) for n, v in enumerate(values)]
                         + [("b", f"i{n}", v) for n, v in enumerate(reversed(values))], bounds)
        assert PCC.score("a", "b", m) == -1.0

    def test_identical_rows_score_one(self, scale):
        self.assert_identical_rows_score_one(scale, (1.0, 3.0, 5.0))

    def test_opposite_rows_score_minus_one(self, scale):
        self.assert_opposite_rows_score_minus_one(scale, (1.0, 5.0))

    # in-scale ratings whose squared deviations multiply out of float range
    # (down to 0, up to inf) though each user's sum of them stays in it
    EXTREMES = [pytest.param(RatingScale(0.0, 10.0), (0.0, 1e-160, 2e-160), id="tiny"),
                pytest.param(RatingScale(0.0, 1e200), (0.0, 1e150, 2e150), id="huge")]

    @pytest.mark.parametrize("bounds, values", EXTREMES)
    def test_identical_extreme_rows_score_one(self, bounds, values):
        self.assert_identical_rows_score_one(bounds, values)

    @pytest.mark.parametrize("bounds, values", EXTREMES)
    def test_opposite_extreme_rows_score_minus_one(self, bounds, values):
        self.assert_opposite_rows_score_minus_one(bounds, values)

    @pytest.mark.parametrize("unit", [1e-62, 1e-64])
    def test_score_does_not_depend_on_the_rating_unit(self, unit):
        # a's squared deviations times b's fall below the normal float range,
        # where a product keeps few significant bits, or to 0
        xs, ys = (0.0, 1.0, 3.0, 1.7), (0.0, 1.0, 2.0, 5.3)
        def score(x_unit, y_unit):
            return PCC.score("a", "b", build_matrix(
                [("a", f"i{n}", x * x_unit) for n, x in enumerate(xs)]
                + [("b", f"i{n}", y * y_unit) for n, y in enumerate(ys)], RatingScale(0.0, 10.0)))
        assert score(1e-100, unit) == pytest.approx(score(1.0, 1.0), abs=1e-12)

    def test_subnormal_scale_scores_the_unit_scale_bits(self):
        # deviations of ratings near 1e-160 square below the normal float
        # range, and near 2 ** -600 to 0; Pearson scales them by a power of
        # two first, which keeps every bit of the unit-scale score where the
        # ratings scale exactly, and all but rounding where they do not
        rng = random.Random(160)
        positive = 0
        for _ in range(300):
            n = rng.randint(2, 12)
            ratings = {u: {f"i{i:02d}": float(rng.randint(0, 10)) for i in range(n)} for u in "ab"}
            want = oracles.pearson(ratings, "a", "b")
            positive += want > 0.0
            for unit, tolerance in ((2.0 ** -600, 0.0), (1e-160, 1e-12)):
                scaled = {u: {i: v * unit for i, v in row.items()} for u, row in ratings.items()}
                m = build_matrix(oracles.ratings_to_records(scaled), RatingScale(0.0, 10.0))
                got = PCC.score("a", "b", m)
                assert abs(got - want) <= tolerance, (ratings, unit)
                assert got == oracles.pearson(scaled, "a", "b")
                # the row builder stops a pair at a covariance <= 0, which must not underflow
                assert SimilarityCache(PCC, m).row(0) == ({1: got} if got > 0.0 else {})
        assert positive > 100

    def test_squares_past_the_float_range_raise(self):
        # deviations of 1e200 square past the float range: an error, never a NaN clamped to -1
        ratings = {u: {f"i{n}": v for n, v in enumerate((0.0, 1e200, 2e200))} for u in "ab"}
        m = build_matrix(oracles.ratings_to_records(ratings), RatingScale(0.0, 1e300))
        with pytest.raises(OverflowError):
            PCC.score("a", "b", m)
        with pytest.raises(OverflowError):
            SimilarityCache(PCC, m).row(0)
        with pytest.raises(OverflowError):
            oracles.pearson(ratings, "a", "b")

    @pytest.mark.parametrize("values", [((0.0, 1e300, 2e300), (0.0, 1e300, 0.0)),
                                        ((1.7e308, 1.7e308, 0.0, 0.0),
                                         (0.0, 1.7e308, 0.0, 1.7e308))],
                             ids=["covariance", "rating-sum"])
    def test_sums_fsum_refuses_raise_the_librarys_message(self, values):
        # deviation products of opposite signs that overflow to inf and -inf,
        # also after rating sums that leave the float range (the means are
        # then taken from scaled sums): math.fsum raises its own ValueError,
        # which _pearson words as the library's
        ratings = {u: {f"i{n}": v for n, v in enumerate(row)} for u, row in zip("ab", values)}
        m = build_matrix(oracles.ratings_to_records(ratings), RatingScale(0.0, 1.7e308))
        message = "a sum of ratings or of rating deviation products is past the float range"
        with pytest.raises(OverflowError, match=f"^{message}$"):
            PCC.score("a", "b", m)
        with pytest.raises(OverflowError, match=f"^{message}$"):
            SimilarityCache(PCC, m).row(0)

    def test_rating_sum_past_the_float_range_scores_zero(self):
        # a's ratings sum past the float range, though their mean does not: a
        # has no variance on the overlap, so the pair scores 0, as at any scale
        m = build_matrix([("a", "x", 1.7e308), ("a", "y", 1.7e308),
                          ("b", "x", 1.0), ("b", "y", 5.0)], RatingScale(0.0, 1.7e308))
        assert PCC.score("a", "b", m) == 0.0
        assert SimilarityCache(PCC, m).row(0) == {}

    def test_no_overlap_scores_zero(self, scale):
        m = build_matrix([("a", "i1", 2.0), ("b", "i2", 4.0)], scale)
        assert PCC.score("a", "b", m) == 0.0

    @staticmethod
    def assert_random_matrices_match_oracle(bounds, unit):
        rng = random.Random(314)
        for _ in range(30):
            ratings = {u: {i: v * unit for i, v in row.items()}
                       for u, row in oracles.random_ratings(rng).items()}
            m = build_matrix(oracles.ratings_to_records(ratings), bounds)
            users = sorted(ratings)
            for i, a in enumerate(users):
                for b in users[i + 1:]:
                    want = oracles.pearson(ratings, a, b)
                    assert PCC.score(a, b, m) == pytest.approx(want, abs=1e-9)

    def test_random_matrices_match_oracle(self, scale):
        self.assert_random_matrices_match_oracle(scale, 1.0)

    # the same matrices in other rating units; the squared deviations still
    # sum to normal floats, as they do not at 1e-160 (subnormal: both scale
    # the deviations first, see test_subnormal_scale_scores_the_unit_scale_bits)
    @pytest.mark.parametrize("bounds, unit", [
        pytest.param(RatingScale(0.0, 10.0), 1e-100, id="tiny"),
        pytest.param(RatingScale(0.0, 1e200), 1e100, id="huge")])
    def test_scaled_random_matrices_match_oracle(self, bounds, unit):
        self.assert_random_matrices_match_oracle(bounds, unit)

    def test_float_ratings_match_oracle_exactly(self):
        # fractional ratings have deviations whose squares ** 2 can round
        # apart from d * d; top-k ties need engine and oracle to agree to the bit
        rng = random.Random(2718)
        for _ in range(40):
            ratings = {f"u{u:02d}": {f"i{i:02d}": rng.uniform(0.0, 10.0)
                                     for i in range(30) if rng.random() < 0.6}
                       for u in range(12)}
            m = build_matrix(oracles.ratings_to_records(ratings), RatingScale(0.0, 10.0))
            users = sorted(ratings)
            for i, a in enumerate(users):
                for b in users[i + 1:]:
                    assert PCC.score(a, b, m) == oracles.pearson(ratings, a, b), (a, b)

    def test_always_in_unit_interval(self, scale):
        rng = random.Random(99)
        for _ in range(20):
            ratings = oracles.random_ratings(rng, density=0.8)
            m = build_matrix(oracles.ratings_to_records(ratings), scale)
            users = sorted(ratings)
            for i, a in enumerate(users):
                for b in users[i + 1:]:
                    assert -1.0 <= PCC.score(a, b, m) <= 1.0


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

    @pytest.mark.parametrize("threshold", [math.nan, math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        # inf would score every pair 0, NaN would never damp
        with pytest.raises(ValueError, match="WPCC threshold"):
            apply_wpcc(0.5, 3, threshold)

    @pytest.mark.parametrize("big_t", [0, math.nan, math.inf])
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

    def test_factor_takes_a_correctly_rounded_exp(self):
        # exp(-co / 2) is the 100-digit value rounded to a float, whatever the
        # host's C library gives; the factor keeps its float steps 1 / (1 + e):
        # rounding the whole factor once would move counts 4, 5, 6, 10, ...
        with decimal.localcontext() as ctx:
            ctx.prec = 100
            for co in range(3000):  # subnormal from 1,417, 0.0 from 1,491
                e = float((decimal.Decimal(-co) / 2).exp())
                assert _exp_half(co) == e
                assert apply_spcc(1.0, co) == 1.0 / (1.0 + e)
                assert apply_spcc(-0.75, co) == -0.75 * (1.0 / (1.0 + e))
        assert _exp_half(1500) == _exp_half(20000) == 0.0
        assert apply_spcc(0.5, 20000) == 0.5

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
        assert plus_adjust(0.5, 100.0, 2.0) == pytest.approx(25.0)
        assert plus_adjust(-0.5, 100.0, 2.0) == pytest.approx(-25.0)
        assert plus_adjust(0.0, 100.0, 2.0) == 0.0

    def test_matches_oracle(self):
        rng = random.Random(8)
        for _ in range(200):
            s = rng.uniform(-1, 1)
            alpha = rng.uniform(0.5, 120)
            beta = rng.uniform(0.5, 6)
            want = oracles.power_law(s, alpha, beta)
            got = plus_adjust(s, alpha, beta)
            assert got == pytest.approx(want, abs=1e-9)

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            make_method("plus", alpha=0.0, beta=2.0)
        with pytest.raises(ValueError):
            make_method("plus", alpha=100.0, beta=-1.0)

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
        out = plus_adjust(s, 100.0, 2.0)
        assert (out > 0) == (s > 0)
        assert (out < 0) == (s < 0)

    def test_underflow_collapses_to_zero(self):
        # squaring a subnormal-range score leaves no sign to preserve
        assert plus_adjust(4e-212, 100.0, 2.0) == 0.0

    @given(a=scores, b=scores)
    def test_order_preserved(self, a, b):
        # monotone in s, the property neighborhood ranking relies on; adjacent
        # floats may collapse to equal outputs, hence non-strict here
        if a < b:
            assert plus_adjust(a, 80.0, 5.0) <= plus_adjust(b, 80.0, 5.0)

    def test_order_strict_on_separated_scores(self):
        grid = [x / 50.0 for x in range(-50, 51)]
        outputs = [plus_adjust(s, 80.0, 5.0) for s in grid]
        assert outputs == sorted(outputs)
        assert len(set(outputs)) == len(outputs)


class TestStatic:
    def test_positive_branch_doubles(self):
        assert apply_static(0.5, 10, 10, 0.20) == pytest.approx(1.0)
        assert apply_static(0.2, 40, 10, 0.20) == pytest.approx(0.4)

    def test_negative_branch_shrinks(self):
        assert apply_static(0.5, 9, 10, 0.20) == pytest.approx(0.5 / 1.25)
        assert apply_static(0.15, 40, 10, 0.20) == pytest.approx(0.15 / (1 + 0.15 ** 2))
        assert apply_static(-0.9, 40, 10, 0.20) == pytest.approx(-0.9 / 1.81)

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_non_finite_y_rejected(self, y):
        # NaN or inf would never double, -inf would double every overlap of t
        with pytest.raises(ValueError, match="must be finite"):
            make_method("static", y=y)

    def test_nan_t_rejected(self):
        # no co-rated count is >= NaN, so the method would never double
        with pytest.raises(ValueError, match="co-rated threshold"):
            make_method("static", t=math.nan)

    def test_inf_t_rejected(self):
        # no co-rated count reaches inf either: the same never-doubling method
        with pytest.raises(ValueError, match="co-rated threshold"):
            make_method("static", t=math.inf)

    @given(s=scores, co=counts)
    def test_total_over_inputs(self, s, co):
        # every (score, count) lands in exactly one branch and yields a float
        out = apply_static(s, co, 10, 0.20)
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
        direct = PCC.score("u1", "u2", sample_matrix)
        co = len(oracles.overlap(oracles.SAMPLE_RATINGS, "u1", "u2"))
        assert make_method("pcc").score("u1", "u2", sample_matrix) == direct
        assert make_method("wpcc", big_t=5).score("u1", "u2", sample_matrix) == \
            apply_wpcc(direct, co, 5)
        assert make_method("plus").score("u1", "u2", sample_matrix) == \
            plus_adjust(direct, 100.0, 2.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError) as err:
            make_method("cosine")
        assert str(err.value) == ("unknown similarity method 'cosine'; "
                                  "expected one of pcc, wpcc, spcc, plus, static, dynamic")

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

    @given(config=configs, base=st.one_of(st.sampled_from((-1.0, -1e-9, -0.0, 0.0)),
                                          st.floats(-1.0, 0.0)),
           co=st.integers(0, 200), m=st.sampled_from(SHAPES))
    def test_declared_sign_keeping_methods_score_non_positive_bases_at_most_0(
            self, config, base, co, m):
        # rows stop a pair at a covariance <= 0 on the strength of this
        name, kw = config
        sim = make_method(name, **kw)
        if sim.lifts_negatives:
            assert (name, kw.get("negative_form")) == ("dynamic", "eq8")
        else:
            assert sim.adjust(base, co, m) <= 0.0

    def test_eq8_lifts_negatives(self):
        sim = make_method("dynamic", negative_form="eq8")
        assert sim.lifts_negatives
        assert all(sim.adjust(-0.5, co, m) > 0.0 for m in SHAPES for co in range(5))
