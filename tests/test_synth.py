"""The sparse, heavy-tailed profile of ``tests/_synth.py``: the regime the
co-rated-count adjustment targets. (``planted_records``, which feeds the
benchmark, is pinned byte for byte in ``test_bench_contract.py``.)"""

import collections
import statistics

import _synth


def test_zipf_records_are_seeded():
    assert _synth.zipf_records(seed=5) == _synth.zipf_records(seed=5)
    assert _synth.zipf_records(seed=5) != _synth.zipf_records(seed=6)


def test_zipf_records_are_sparse_and_heavy_tailed():
    records = _synth.zipf_records(seed=7, n_users=1000, n_items=3000)
    assert len({(u, i) for u, i, _ in records}) == len(records)
    assert all(_synth.SCALE[0] <= v <= _synth.SCALE[1] for _, _, v in records)
    per_user = collections.Counter(u for u, _, _ in records)
    assert len(per_user) == 1000 and min(per_user.values()) == 2
    assert 12.5 < statistics.mean(per_user.values()) < 15.0
    # a few items hold a large share of the ratings, and most have one or two
    popularity = collections.Counter(i for _, i, _ in records)
    counts = sorted(popularity.values(), reverse=True)
    assert sum(counts[:30]) > 0.25 * len(records)
    assert statistics.median(counts) <= 2
    # popularity ranks map to shuffled ids, not to the lowest ones
    top = sorted(popularity, key=lambda i: (-popularity[i], i))[:10]
    assert max(top) > "i1500"
