"""The similarity row builder against brute force, bit for bit.

A row built by :class:`SimilarityCache` must equal the pair-by-pair row
``{ib: s for ib in raters if (s := sim.adjust(*_base(ra, rb), m)) > 0}``
over the raters of the items it covers, whatever order rows are built and
rebuilt in, whichever siblings share the builder, whether or not they let
the builder stop a pair at a covariance <= 0, whether or not the target
and its co-raters have item bitsets to drop those sharing fewer than two
items, and whether or not the matrix has few enough distinct ratings for
the builder to score each distinct overlap once, from a memo.
"""

import math
import random

import pytest

import _synth
import cflevels.cache
import cflevels.similarity
import oracles
from cflevels import (MIN_CO_RATED, RatingScale, SimilarityCache, SimilarityMethod, build_matrix,
                      make_method)
from cflevels.similarity import _base

SCALE = RatingScale(*_synth.SCALE)

# a method made by hand, without the keyword: it rates anti-correlated pairs
FLIPPED = SimilarityMethod("flipped", lambda s, co, m: -s)

SIBLING_SETS = {
    "sign-keeping": lambda: [make_method(name) for name in
                             ("pcc", "wpcc", "spcc", "plus", "static", "dynamic")]
    + [make_method("dynamic", negative_form="alg1"), make_method("static", t=1, y=-0.5)],
    "eq8-alone": lambda: [make_method("dynamic", negative_form="eq8")],
    "eq8-mixed": lambda: [make_method("pcc"), make_method("dynamic", negative_form="eq8"),
                          make_method("static", t=1, y=-0.5), make_method("dynamic")],
    "hand-made-alone": lambda: [FLIPPED],
    "hand-made-mixed": lambda: [make_method("pcc"), FLIPPED, make_method("wpcc")],
    # knobs at which a method's per-count table holds more than one value
    # over the counts of BANDED, the matrix on which dynamic has three bands
    "tabled": lambda: [make_method("wpcc", big_t=1), make_method("wpcc", big_t=5),
                       make_method("static", t=3), make_method("spcc"), make_method("dynamic"),
                       make_method("dynamic", negative_form="alg1")],
}


def mixed_bitsets(rng):
    """Users with item bitsets and users over the 64-bits-per-rating bound.

    Twenty users rate 40 of 300 items each, so nearly every item is live and
    each of them gets a bitset. Fifteen rate 2-3 of the first 12 items and
    one of the last 20, an item index above 64 times their rating count, so
    none of them gets one; they still share items with both kinds.
    """
    ratings = {f"d{u:02d}": {f"i{ii:03d}": float(rng.randint(1, 5))
                             for ii in rng.sample(range(300), 40)} for u in range(20)}
    for u in range(15):
        items = rng.sample(range(12), rng.randint(2, 3)) + [rng.randrange(280, 300)]
        ratings[f"s{u:02d}"] = {f"i{ii:03d}": float(rng.randint(1, 5)) for ii in items}
    return build_matrix(oracles.ratings_to_records(ratings), SCALE)


def wide_sparse(rng):
    """A wide sparse random shape in which no user gets an item bitset.

    Each of 120 users rates 2-3 of ten shared items, 5 of 600 middle items
    that no other user rates, and one of 50 items sorted after those: its
    index, 610 or more, is above 64 times any user's rating count (at most 9).
    """
    middle = rng.sample(range(600), 600)
    ratings = {}
    for u in range(120):
        items = ([f"a{ii}" for ii in rng.sample(range(10), rng.randint(2, 3))]
                 + [f"m{ii:03d}" for ii in middle[5 * u:5 * u + 5]] + [f"z{rng.randrange(50):02d}"])
        ratings[f"w{u:03d}"] = {item: float(rng.randint(1, 5)) for item in items}
    return build_matrix(oracles.ratings_to_records(ratings), SCALE)


def valued(rng, values, scale, n_users=24, n_items=16, density=0.6):
    """A random matrix whose ratings are drawn from ``values``, each used at least once."""
    ratings = {f"v{u:02d}": {f"i{ii:02d}": rng.choice(values) for ii in range(n_items)
                             if rng.random() < density} for u in range(n_users)}
    for n, v in enumerate(values):
        ratings[f"v{n % n_users:02d}"][f"i{n % n_items:02d}"] = v
    return build_matrix(oracles.ratings_to_records(ratings), scale)


def banded(rng):
    """Forty users who rate from 15% to 90% of 40 shared items and 75 items of their own.

    The 3,040 items and 40 users give dynamic three bands (co-rated counts 5,
    6-11 and 12 up), and the pairs' co-rated counts run from 0 to over 30.
    """
    ratings = {}
    for u in range(40):
        p = rng.uniform(0.15, 0.9)
        row = {f"c{ii:02d}": float(rng.randint(1, 5)) for ii in range(40) if rng.random() < p}
        row.update({f"t{u:02d}{j:02d}": float(rng.randint(1, 5)) for j in range(75)})
        ratings[f"b{u:02d}"] = row
    return build_matrix(oracles.ratings_to_records(ratings), SCALE)


def matrices():
    """Random matrices of several densities, planted-cluster ones, two whose
    users have bitsets in part or not at all, a heavy-tailed sparse one,
    three that pin the memo of overlap codes: 16 distinct ratings, which
    take it, 17, which do not, and -0.0 beside 0.0, which share a code; and
    one on which dynamic derives three bands."""
    rng = random.Random(20)
    for density in (0.2, 0.45, 0.8):
        ratings = oracles.random_ratings(rng, n_users=24, n_items=16, density=density)
        yield build_matrix(oracles.ratings_to_records(ratings), SCALE)
    for seed in (3, 4):
        yield build_matrix(_synth.planted_records(seed=seed, n_users=60, n_items=40), SCALE)
    yield mixed_bitsets(rng)
    yield wide_sparse(rng)
    yield build_matrix(_synth.zipf_records(seed=13, n_users=150, n_items=900), SCALE)
    yield valued(rng, [1 + 0.25 * n for n in range(16)], SCALE)
    yield valued(rng, [1 + 0.25 * n for n in range(17)], SCALE)
    yield valued(rng, [-1.0, -0.0, 0.0, 1.0], RatingScale(-1.0, 1.0), density=0.3)
    yield banded(random.Random(21))


MATRICES = list(matrices())
MIXED, WIDE, ZIPF, SIXTEEN, SEVENTEEN, SIGNED_ZEROS, BANDED = MATRICES[-7:]


def brute_row(sim, m, ia, items=None):
    """a's row by scoring every candidate pair on its own."""
    ra = m._by_user[ia]
    raters = range(m.user_count) if items is None else set().union(
        *(m._by_item[ii] for ii in items))
    return {ib: s for ib in raters
            if ib != ia and (s := sim.adjust(*_base(ra, m._by_user[ib]), m)) > 0.0}


def covered_items(cache, ia):
    cover = cache._done[ia][0]
    return None if cover is None else sorted(cover)


def assert_published_rows_are_brute(caches, sims, m):
    for ia in list(caches[0]._done):
        items = covered_items(caches[0], ia)
        for sim, cache in zip(sims, caches):
            assert cache.rows[ia] == brute_row(sim, m, ia, items)


@pytest.mark.parametrize("sibling_set", sorted(SIBLING_SETS))
@pytest.mark.parametrize("mi", range(len(MATRICES)))
def test_full_partial_and_twice_extended_rows_equal_brute_force(sibling_set, mi):
    m = MATRICES[mi]
    sims = SIBLING_SETS[sibling_set]()
    rng = random.Random(mi)
    caches = SimilarityCache.siblings(sims, m)
    order = list(range(m.user_count))
    rng.shuffle(order)
    for n, ia in enumerate(order):
        cache = caches[rng.randrange(len(caches))]  # any sibling builds all
        if n % 3 == 0:  # a full row at once
            cache.row(ia)
        else:  # items, then (every other user) items the row does not cover
            first = rng.sample(range(m.item_count), 2)
            cache.row(ia, first)
            assert covered_items(cache, ia) == sorted(set(first))
            if n % 3 == 1:  # the partial row is rebuilt as the full row
                for sim, sib in zip(sims, caches):
                    assert sib.rows[ia] == brute_row(sim, m, ia, first)
                cache.row(ia, rng.sample(range(m.item_count), 3))
                assert covered_items(cache, ia) is None
        for sim, sib in zip(sims, caches):
            assert sib.rows[ia] == brute_row(sim, m, ia, covered_items(sib, ia))
    assert_published_rows_are_brute(caches, sims, m)
    # rows built one by one, without reuse, agree as well
    for sim in sims:
        alone = SimilarityCache(sim, m)
        for ia in order[:8]:
            assert alone.row(ia) == brute_row(sim, m, ia)


@pytest.mark.parametrize("sibling_set", ["eq8-alone", "eq8-mixed", "hand-made-alone",
                                         "hand-made-mixed"])
def test_methods_that_lift_negatives_keep_negative_base_pairs(sibling_set):
    # every such method rates some pair whose base is negative
    sims = SIBLING_SETS[sibling_set]()
    lifted = 0
    for m in MATRICES:
        caches = SimilarityCache.siblings(sims, m)
        for ia in range(m.user_count):
            caches[0].row(ia)
        for sim, cache in zip(sims, caches):
            if sim.lifts_negatives:
                lifted += sum(1 for ia, row in cache.rows.items() for ib in row
                              if _base(m._by_user[ia], m._by_user[ib])[0] < 0.0)
        assert_published_rows_are_brute(caches, sims, m)
    assert lifted > 50


@pytest.mark.parametrize("sibling_set,keep", [("sign-keeping", False), ("eq8-alone", True),
                                              ("eq8-mixed", True), ("hand-made-mixed", True)])
def test_builder_stops_at_covariance_only_when_no_sibling_lifts_negatives(
        sibling_set, keep, monkeypatch):
    kept = []
    pearson = cflevels.cache._pearson
    monkeypatch.setattr(cflevels.cache, "_pearson",
                        lambda xs, ys, keep_negative: kept.append(keep_negative)
                        or pearson(xs, ys, keep_negative))
    m = MATRICES[1]
    caches = SimilarityCache.siblings(SIBLING_SETS[sibling_set](), m)
    for ia in range(m.user_count):
        caches[0].row(ia)
    assert len(kept) > 100
    assert set(kept) == {keep}


def test_matrices_mix_targets_and_co_raters_with_and_without_bitsets():
    # the shapes the rows above are checked on: in MIXED each kind is a
    # target whose row holds the other kind; in WIDE no user has a bitset
    assert WIDE._masks == (None,) * WIDE.user_count
    wide = SimilarityCache(make_method("pcc"), WIDE)
    assert sum(len(wide.row(ia)) for ia in range(WIDE.user_count)) > 100
    masks = MIXED._masks
    assert [user[0] for user, mask in zip(MIXED.users(), masks)] == ["d"] * 20 + ["s"] * 15
    assert [mask is None for mask in masks] == [False] * 20 + [True] * 15
    caches = SimilarityCache.siblings(SIBLING_SETS["eq8-mixed"](), MIXED)
    kinds = set()
    for ia in range(MIXED.user_count):
        kinds.update((masks[ia] is None, masks[ib] is None) for ib in caches[1].row(ia))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_zipf_matrix_is_the_sparse_regime():
    # most co-rating pairs share one to four items; the item count, bound by
    # the rating count, gives every user with 9 or more ratings a bitset and
    # most others none, so targets of both kinds build rows
    overlaps = [len(ZIPF._by_user[ia].keys() & ZIPF._by_user[ib].keys())
                for ia in range(ZIPF.user_count) for ib in range(ia)]
    shared = [n for n in overlaps if n]
    assert sum(n <= 4 for n in shared) > 0.8 * len(shared)
    cache = SimilarityCache(make_method("pcc"), ZIPF)
    entries = {True: 0, False: 0}  # row entries by whether the target has no bitset
    for ia, mask in enumerate(ZIPF._masks):
        entries[mask is None] += len(cache.row(ia))
    assert min(entries.values()) > 100


def test_matrices_take_the_memo_up_to_16_distinct_ratings():
    # the shapes the rows above are checked on: 16 distinct ratings get a
    # one-byte code per (x, y) pair, 17 keep the two float lists; -0.0 and
    # 0.0 share one code, which can move only a zero base, left out anyway
    assert SIXTEEN._codes is not None and SEVENTEEN._codes is None
    assert [len({v for row in m._by_user for v in row.values()})
            for m in (SIXTEEN, SEVENTEEN)] == [16, 17]
    signs = {math.copysign(1.0, v) for row in SIGNED_ZEROS._by_user for v in row.values() if v == 0.0}
    assert signs == {-1.0, 1.0}
    x_code, y_code, _, _ = SIGNED_ZEROS._codes
    assert len(y_code) == 3 and x_code[-0.0] == x_code[0.0] and y_code[-0.0] == y_code[0.0]
    # overlaps that share a key but not the signs of their zeros
    caches = SimilarityCache.siblings(SIBLING_SETS["eq8-mixed"](), SIGNED_ZEROS)
    by_user, signs = SIGNED_ZEROS._by_user, {}
    for ia, ra in enumerate(by_user):
        caches[0].row(ia)
        for ib, rb in enumerate(by_user):
            pairs = [(ra[ii], rb[ii]) for ii in ra.keys() & rb.keys()]
            key = bytes(sorted(x_code[x] + y_code[y] for x, y in pairs))
            signs.setdefault(key, set()).add(tuple(sorted(
                (x_code[x] + y_code[y], math.copysign(1.0, x), math.copysign(1.0, y))
                for x, y in pairs)))
    assert set(caches[0]._memo) <= set(signs)
    assert sum(len(found) > 1 for key, found in signs.items() if len(key) >= 2) > 10


# every make_method method, with knobs that make its table hold several values
TABLED = [make_method(name, **kw) for name, kw in (
    ("pcc", {}), ("wpcc", {}), ("wpcc", {"big_t": 1}), ("wpcc", {"big_t": 5}), ("spcc", {}),
    ("plus", {}), ("plus", {"alpha": 3.0, "beta": 0.5}), ("static", {}), ("static", {"t": 3}),
    ("static", {"t": 1, "y": -0.5}), ("dynamic", {}), ("dynamic", {"negative_form": "eq8"}),
    ("dynamic", {"negative_form": "alg1"}))]


@pytest.mark.parametrize("sim", TABLED, ids=[f"{sim.name}-{sim.params}" for sim in TABLED])
def test_row_scorer_gives_the_bits_of_adjust(sim):
    # the row builder scores each base through the method's scorer, which
    # reads a table of what depends only on the co-rated count; at every
    # count a pair can have, and one past it, each score above 0 must be
    # adjust's, and no other base may score
    bases = [0.0, 5e-324, 1e-300, 0.2, 0.5, 1.0]
    if "y" in sim.params:
        y = sim.params["y"]
        bases += [math.nextafter(y, -math.inf), y, math.nextafter(y, math.inf)]
    bases += [-base for base in bases]
    for m in (BANDED, MATRICES[3], SIGNED_ZEROS):
        n = max(map(len, m._by_user)) + 2
        triples = [(i, base, co) for i, (co, base) in enumerate(
            (co, base) for co in range(n) for base in bases)]
        want = {i: s for i, base, co in triples if (s := sim.adjust(base, co, m)) > 0.0}
        assert sim._scorer(m, n)(triples) == want
        assert len(want) > n


@pytest.mark.parametrize("form", ["eq8", "alg1"])
def test_dynamic_rows_shrink_from_the_table_without_calling_adjust(form, monkeypatch):
    # below MIN_CO_RATED every negative form's shrink comes from the table
    # the band divisors sit beside, so filling a row calls no banded rule
    calls = []
    rule = cflevels.similarity._banded_rule
    monkeypatch.setattr(cflevels.similarity, "_banded_rule",
                        lambda *args: calls.append(args) or rule(*args))
    sim = make_method("dynamic", negative_form=form)
    cache = SimilarityCache(sim, BANDED)
    for ia in range(BANDED.user_count):
        cache.row(ia)
    assert calls == []
    # the rows hold shrunk scores, and the counter sees adjust's calls
    by_user = BANDED._by_user
    shrunk = sum(1 for ia, row in cache.rows.items() for ib in row
                 if len(by_user[ia].keys() & by_user[ib].keys()) < MIN_CO_RATED)
    assert shrunk > 50
    sim.adjust(0.4, MIN_CO_RATED - 1, BANDED)
    assert len(calls) == 1
