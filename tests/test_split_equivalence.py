"""Splits cut from the parent's indexes equal splits rebuilt from records.

``split_holdout`` and ``kfold_split`` cut each train matrix from the parent
matrix's index rows. The reference here is the record-level split: shuffle
the canonical record list with the same seed, test on a slice, and
``build_matrix`` the rest. Both must agree in every index, in iteration
order too, and in every user mean bit for bit. The train matrix orders
string-keyed indexes, so CI also runs this file under fixed hash seeds.
"""

import random

import pytest

import _synth
import oracles
from cflevels import ConfigError, build_matrix, kfold_split, split_holdout


def reference_folds(m, seed, bounds):
    """(train, test) per (lo, hi) of ``bounds``, rebuilt from shuffled records."""
    ordered = sorted(m.records(), key=lambda rec: (rec.user, rec.item))
    random.Random(seed).shuffle(ordered)
    return [(build_matrix(ordered[:lo] + ordered[hi:], m.scale), ordered[lo:hi])
            for lo, hi in bounds]


def layout(m):
    """Every index of ``m`` as plain values, iteration order included."""
    return {
        "scale": m.scale,
        "users": m._users,
        "items": m._items,
        "user_index": list(m._user_index.items()),
        "item_index": list(m._item_index.items()),
        "rows": [list(row.items()) for row in m._by_user],
        "by_item": m._by_item,
        "means": [mean.hex() for mean in m._user_means],
    }


def assert_index_shape(m):
    """Each item's raters are a tuple of user indexes, ascending."""
    assert type(m._by_item) is tuple
    for raters in m._by_item:
        assert type(raters) is tuple and raters
        assert list(raters) == sorted(set(raters))


def assert_same_split(got, want):
    (train, test), (want_train, want_test) = got, want
    assert_index_shape(train)
    assert_index_shape(want_train)
    assert layout(train) == layout(want_train)
    assert test == want_test
    assert train.records() == want_train.records()


def random_matrix(seed, n_users, n_items, density, scale):
    ratings = oracles.random_ratings(random.Random(seed), n_users=n_users,
                                     n_items=n_items, density=density)
    return build_matrix(oracles.ratings_to_records(ratings), scale)


# (seed, users, items, density): from a handful of ratings, where users and
# items often live only in the test part, to a sparse mid-sized matrix
SHAPES = [(1, 3, 3, 0.6), (2, 4, 5, 0.5), (3, 6, 4, 0.4), (4, 12, 9, 0.3),
          (5, 25, 18, 0.45), (6, 60, 40, 0.15), (7, 40, 60, 0.7)]


@pytest.mark.parametrize("seed", (0, 1, 42))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[1]}x{s[2]}")
def test_holdout_equals_rebuilt(shape, seed, scale):
    m = random_matrix(*shape, scale)
    assert_index_shape(m)
    n = len(m.records())
    for ratio in (0.5, 0.8):
        n_train = int(round(n * ratio))
        if n_train in (0, n):
            continue
        got = split_holdout(m, ratio, seed)
        assert_same_split(got, reference_folds(m, seed, [(n_train, n)])[0])


@pytest.mark.parametrize("seed", (0, 1, 42))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[1]}x{s[2]}")
def test_every_fold_equals_rebuilt(shape, seed, scale):
    m = random_matrix(*shape, scale)
    n = len(m.records())
    for folds in (2, 3, 5):
        if folds > n:
            continue
        base, extra = divmod(n, folds)
        cuts = [i * base + min(i, extra) for i in range(folds + 1)]
        want = reference_folds(m, seed, list(zip(cuts, cuts[1:])))
        got = list(kfold_split(m, folds, seed))
        assert len(got) == folds
        for pair, want_pair in zip(got, want):
            assert_same_split(pair, want_pair)


def test_users_and_items_only_in_test_are_dropped(scale):
    # u3 and i3 each have one rating; some seed puts each only in the test part
    records = [("u1", "i1", 1.0), ("u1", "i2", 2.0), ("u2", "i1", 3.0),
               ("u2", "i2", 4.0), ("u3", "i1", 5.0), ("u1", "i3", 2.0)]
    m = build_matrix(records, scale)
    lost_user = lost_item = False
    for seed in range(40):
        for got, want in zip(kfold_split(m, 3, seed), reference_folds(m, seed, [(0, 2), (2, 4), (4, 6)])):
            assert_same_split(got, want)
            train = got[0]
            lost_user |= "u3" not in train._user_index
            lost_item |= "i3" not in train._item_index
    assert lost_user and lost_item


def test_duplicate_lines_split_like_their_last_value(scale):
    records = _synth.planted_records(seed=3, n_users=30, n_items=20)
    dupes = [(u, i, 6.0 - v) for u, i, v in records[::3]]
    m = build_matrix(records + dupes + records[::5], scale)
    n = len(m.records())
    assert n == len(records)
    n_train = int(round(n * 0.8))
    assert_same_split(split_holdout(m, 0.8, 11), reference_folds(m, 11, [(n_train, n)])[0])
    base, extra = divmod(n, 4)
    cuts = [i * base + min(i, extra) for i in range(5)]
    for got, want in zip(kfold_split(m, 4, 11), reference_folds(m, 11, list(zip(cuts, cuts[1:])))):
        assert_same_split(got, want)


def test_planted_holdout_equals_rebuilt(scale):
    m = build_matrix(_synth.planted_records(seed=13, n_users=120, n_items=90), scale)
    n = len(m.records())
    n_train = int(round(n * 0.8))
    assert_same_split(split_holdout(m, 0.8, 42), reference_folds(m, 42, [(n_train, n)])[0])


def test_empty_part_texts_unchanged(scale):
    m = build_matrix([(f"u{n}", "i1", 3.0) for n in range(10)], scale)
    with pytest.raises(ConfigError) as caught:
        split_holdout(m, 0.04, 1)
    assert str(caught.value) == ("a 0.04 holdout of 10 ratings trains on 0 "
                                 "and tests 10; both need at least one")
    with pytest.raises(ConfigError) as caught:
        split_holdout(m, 0.96, 1)
    assert str(caught.value) == ("a 0.96 holdout of 10 ratings trains on 10 "
                                 "and tests 0; both need at least one")
    with pytest.raises(ConfigError) as caught:
        kfold_split(m, 12, 1)
    assert str(caught.value) == "12 folds of 10 ratings leave 2 with nothing to test"
