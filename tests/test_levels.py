"""Band derivation from dataset shape and the multi-level adjustment."""

import random

import pytest

import oracles
from cflevels import (MIN_CO_RATED, Band, TooFewItemsError, TooFewUsersError, apply_dynamic,
                      apply_static, build_level_table, build_matrix, derive_dvi,
                      derive_dvu, derive_step, make_method, similarity)

# (users, items) -> (dvu, dvi, step, bands); frozen from the oracle
FROZEN_TABLES = {
    (39363, 22610): (5, 14, 3, ((14, None, 1), (11, 13, 2), (8, 10, 3), (5, 7, 4))),
    (6000, 4000): (4, 12, 3, ((12, None, 1), (9, 11, 2), (6, 8, 3), (5, 5, 4))),
    (49290, 139738): (5, 17, 3, ((17, None, 1), (14, 16, 2), (11, 13, 3), (8, 10, 4), (5, 7, 5))),
    (500, 300): (3, 8, 3, ((8, None, 1), (5, 7, 2))),
}


class TestDerivations:
    def test_frozen_roundings(self):
        # the half-away-from-zero readings the published example depends on
        assert derive_dvu(39363) == 5      # log10 = 4.595...
        assert derive_dvi(22610) == 14     # log2 = 14.46...
        assert derive_step(14, 5) == 3     # 2.8
        assert derive_dvu(6000) == 4       # 3.778...
        assert derive_dvi(4000) == 12      # 11.96...

    def test_step_never_below_one(self):
        assert derive_step(1, 5) == 1
        assert derive_step(0, 3) == 1
        with pytest.raises(ValueError, match="dvu must be >= 1"):
            derive_step(5, 0)

    def test_too_few_users(self):
        with pytest.raises(TooFewUsersError):
            derive_dvu(9)
        assert derive_dvu(10) == 1

    def test_too_few_items(self):
        with pytest.raises(TooFewItemsError):
            derive_dvi(1)
        assert derive_dvi(2) == 1


class TestBuildLevelTable:
    def test_frozen_tables(self):
        for (users, items), (dvu, dvi, step, bands) in FROZEN_TABLES.items():
            table = build_level_table(users, items)
            assert (table.dvu, table.dvi, table.step) == (dvu, dvi, step)
            got = tuple((b.lower, b.upper, b.divisor) for b in table.bands)
            assert got == bands

    def test_matches_oracle_over_shape_grid(self):
        for users in (10, 37, 120, 999, 5000, 39363, 2_000_000):
            for items in (2, 9, 64, 300, 4000, 22610, 139738):
                dvu, dvi, step, bands = oracles.level_bounds(users, items)
                table = build_level_table(users, items)
                assert (table.dvu, table.dvi, table.step) == (dvu, dvi, step)
                assert [(b.lower, b.upper, b.divisor) for b in table.bands] == bands

    def test_divisors_count_up_from_one(self):
        table = build_level_table(39363, 22610)
        assert [b.divisor for b in table.bands] == list(range(1, len(table.bands) + 1))

    def test_tiny_item_count_clamps_first_band(self):
        # dvi below the minimum co-rated threshold: one open band at 5
        table = build_level_table(1000, 4)
        assert table.dvi == 2
        assert [(b.lower, b.upper, b.divisor) for b in table.bands] == [(5, None, 1)]

    def test_partition_of_co_rated_range(self):
        for users, items in FROZEN_TABLES:
            table = build_level_table(users, items)
            for co in range(5, 200):
                holders = [b for b in table.bands if b.contains(co)]
                assert len(holders) == 1, (users, items, co)
            for co in range(0, 5):
                assert table.divisor_for(co) is None


class TestDivisorFor:
    def test_band_lookup(self):
        table = build_level_table(39363, 22610)
        assert table.divisor_for(40) == 1
        assert table.divisor_for(14) == 1
        assert table.divisor_for(13) == 2
        assert table.divisor_for(10) == 3
        assert table.divisor_for(7) == 4
        assert table.divisor_for(5) == 4
        assert table.divisor_for(4) is None
        assert table.divisor_for(0) is None


class TestApplyDynamic:
    def test_positive_bands_boost(self):
        table = build_level_table(39363, 22610)
        assert apply_dynamic(0.4, 20, table) == pytest.approx(0.8)        # /1
        assert apply_dynamic(0.4, 12, table) == pytest.approx(0.6)        # /2
        assert apply_dynamic(0.4, 9, table) == pytest.approx(0.4 + 0.4 / 3)
        assert apply_dynamic(0.4, 6, table) == pytest.approx(0.5)         # /4

    def test_negative_forms_frozen(self):
        table = build_level_table(39363, 22610)
        assert apply_dynamic(0.4, 3, table, "eq4") == pytest.approx(0.3448275862068966, abs=1e-12)
        assert apply_dynamic(0.4, 3, table, "eq8") == pytest.approx(-0.05517241379310347, abs=1e-12)
        assert apply_dynamic(0.4, 3, table, "alg1") == pytest.approx(0.0574712643678161, abs=1e-12)

    def test_negative_forms_bit_for_bit(self):
        # each shrink against its formula as written, compared by its bits,
        # so a moved last bit or the sign of a zero shows; static's shrink is eq4
        formulas = {"eq4": lambda s: s * (1.0 / (1.0 + s * s)),
                    "eq8": lambda s: s * (1.0 / (1.0 + s * s) - 1.0),
                    "alg1": lambda s: s * (1.0 / (1.0 + s * s)) / 6.0}
        eq4 = formulas["eq4"]
        table = build_level_table(39363, 22610)
        for size in (0.0, 5e-324, 1e-300, 0.2, 0.4, 1.0):
            for s in (size, -size):
                for form, formula in formulas.items():
                    for co in range(MIN_CO_RATED):
                        assert apply_dynamic(s, co, table, form).hex() == formula(s).hex()
                assert apply_static(s, 3, 10, 0.2).hex() == eq4(s).hex()
                assert apply_static(s, 10, 10, 2.0).hex() == eq4(s).hex()
        assert [apply_dynamic(0.4, 3, table, form) for form in formulas] == [
            0.3448275862068966, -0.055172413793103475, 0.0574712643678161]

    def test_eq4_keeps_sign_and_shrinks(self):
        table = build_level_table(39363, 22610)
        for s in (-1.0, -0.3, 0.0, 0.2, 0.9):
            out = apply_dynamic(s, 2, table, "eq4")
            assert out * s >= 0.0
            assert abs(out) <= abs(s)

    def test_unknown_form_rejected(self):
        table = build_level_table(39363, 22610)
        with pytest.raises(ValueError):
            apply_dynamic(0.4, 3, table, "eq9")
        with pytest.raises(ValueError):
            make_method("dynamic", negative_form="eq9")
        # also where a band boosts the pair and no below-threshold form runs
        assert table.divisor_for(100) is not None
        with pytest.raises(ValueError, match="unknown negative_form 'bogus'"):
            apply_dynamic(0.5, 100, table, "bogus")


class TestDynamicSim:
    def test_matches_oracle_on_random_matrices(self, scale):
        rng = random.Random(271)
        for _ in range(10):
            ratings = oracles.random_ratings(rng, n_users=14, n_items=24, density=0.6)
            m = build_matrix(oracles.ratings_to_records(ratings), scale)
            users = sorted(ratings)
            for form in ("eq4", "eq8", "alg1"):
                method = make_method("dynamic", negative_form=form)
                for i, a in enumerate(users):
                    for b in users[i + 1:]:
                        want = oracles.dynamic_adjusted(
                            ratings, a, b, m.user_count, m.item_count, form)
                        got = method.score(a, b, m)
                        assert got == pytest.approx(want, abs=1e-9)

    def test_method_derives_one_table_per_shape(self, scale):
        rng = random.Random(7)
        ratings = oracles.random_ratings(rng, n_users=16, n_items=30, density=0.5)
        m = build_matrix(oracles.ratings_to_records(ratings), scale)
        method, pearson = make_method("dynamic"), make_method("pcc")
        table = build_level_table(m.user_count, m.item_count)
        similarity._band_table.cache_clear()
        users = sorted(ratings)
        for i, a in enumerate(users):
            for b in users[i + 1:]:
                co = len(oracles.overlap(ratings, a, b))
                assert method.score(a, b, m) == apply_dynamic(pearson.score(a, b, m), co, table)
        info = similarity._band_table.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits == len(users) * (len(users) - 1) // 2 - 1

    def test_bands_follow_each_matrix_shape(self, scale):
        # one pair with 5 co-rated items, padded out to three shapes whose
        # bands put 5 co-rated items at divisor 1, 2 and 3: a band table
        # remembered by anything but (user count, item count) misreads one
        pair = [("a", f"i{n}", float(va)) for n, va in enumerate((1, 2, 3, 4, 5))] + [
            ("b", f"i{n}", float(vb)) for n, vb in enumerate((2, 1, 4, 3, 5))]

        def padded(users, items):
            extra = [(f"p{n}", "i0", 3.0) for n in range(users - 2)]
            extra += [("p0", f"i{n}", 3.0) for n in range(5, items)]
            return build_matrix(pair + extra, scale)

        method = make_method("dynamic")
        divisors = []
        for users, items in ((10, 16), (10, 400), (400, 400)):
            m = padded(users, items)
            assert (m.user_count, m.item_count) == (users, items)
            ratings = oracles.records_to_dict(m.records())
            want = oracles.dynamic_adjusted(ratings, "a", "b", users, items, "eq4")
            assert method.score("a", "b", m) == pytest.approx(want, abs=1e-12)
            divisors.append(build_level_table(users, items).divisor_for(5))
        assert divisors == [1, 2, 3]

    def test_method_requires_enough_users(self, sample_matrix):
        # the 4-user sample is below the 10-user derivation floor
        method = make_method("dynamic")
        with pytest.raises(TooFewUsersError):
            method.score("u1", "u2", sample_matrix)


class TestBandType:
    def test_contains(self):
        band = Band(lower=8, upper=10, divisor=3)
        assert not band.contains(7)
        assert band.contains(8) and band.contains(10)
        assert not band.contains(11)
        open_band = Band(lower=14, upper=None, divisor=1)
        assert open_band.contains(14) and open_band.contains(10_000)
        assert not open_band.contains(13)
