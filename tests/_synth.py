"""Seeded ratings generators for desk-scale benchmarks and tests.

``planted_records``: users come in clusters that share a preferred block of
items. Inside the block a cluster rates an item around its own quality draw
(4-5 stars); outside it the quality draw is low (1-2 stars). Ratings add a
little per-user noise, so pairs with many co-rated items correlate strongly
while pairs with only a couple of shared items can correlate spuriously.

``zipf_records``: the sparse, heavy-tailed regime the co-rated-count
adjustment is for, shaped like Epinions (about 13.5 ratings per user, a few
very popular items and a long tail). Most co-rating pairs share only a
handful of items.
"""

import itertools
import random

N_USERS = 500
N_ITEMS = 300
N_CLUSTERS = 10
SCALE = (1.0, 5.0)


def planted_records(seed=13, n_users=N_USERS, n_items=N_ITEMS,
                    n_clusters=N_CLUSTERS, in_group_p=0.42, out_group_p=0.022):
    """List of (user, item, rating) triples; ~6% of the matrix is filled.

    in_group_p controls how reliable same-cluster overlap is; out_group_p
    controls how many low-overlap cross-cluster pairs exist. The defaults
    keep same-cluster pairs mostly at 5+ co-rated items while sprinkling
    enough cross-cluster ratings that a few spuriously high correlations
    appear on 2-4 co-rated items.
    """
    rng = random.Random(seed)
    per_cluster = n_users // n_clusters
    group_size = n_items // n_clusters

    # one quality draw per (cluster, item): high inside the cluster's block
    quality = []
    for c in range(n_clusters):
        lo = c * group_size
        hi = lo + group_size
        quality.append([rng.choice((4.0, 5.0)) if lo <= j < hi
                        else rng.choice((1.0, 2.0)) for j in range(n_items)])

    records = []
    for ui in range(n_users):
        c = min(ui // per_cluster, n_clusters - 1)
        lo = c * group_size
        hi = lo + group_size
        for j in range(n_items):
            p = in_group_p if lo <= j < hi else out_group_p
            if rng.random() >= p:
                continue
            value = quality[c][j] + rng.choice((-1.0, 0.0, 0.0, 0.0, 1.0))
            records.append((f"u{ui:03d}", f"i{j:03d}",
                            min(SCALE[1], max(SCALE[0], value))))
    return records


def zipf_records(seed=13, n_users=150, n_items=900, mean_count=13.5,
                 n_clusters=N_CLUSTERS):
    """List of (user, item, rating) triples with heavy-tailed item popularity.

    Item popularity follows Zipf with s = 1 over shuffled item ids: the item
    of popularity rank r is drawn with weight 1/r, and ranks map to ids in a
    seeded random order, so popular items are spread over the sorted item
    index. Each user rates max(2, round(x)) distinct items, x exponential
    with mean ``mean_count``, at most ``n_items``. Users fall into
    ``n_clusters`` clusters by index; a cluster rates each item around its
    own 1-5 quality draw, with the same per-rating noise as
    :func:`planted_records`. Standard library ``random`` only.
    """
    rng = random.Random(seed)
    ids = [f"i{j:0{len(str(n_items - 1))}d}" for j in range(n_items)]
    rng.shuffle(ids)
    user_width = len(str(n_users - 1))
    cum = list(itertools.accumulate(1.0 / rank for rank in range(1, n_items + 1)))
    quality = [[rng.choice((1.0, 2.0, 3.0, 4.0, 5.0)) for _ in range(n_items)]
               for _ in range(n_clusters)]
    ranks = range(n_items)
    records = []
    for ui in range(n_users):
        count = min(n_items, max(2, round(rng.expovariate(1.0 / mean_count))))
        rated = set()
        while len(rated) < count:
            rated.update(rng.choices(ranks, cum_weights=cum, k=count - len(rated)))
        cluster = quality[ui % n_clusters]
        for rank in sorted(rated):
            value = cluster[rank] + rng.choice((-1.0, 0.0, 0.0, 0.0, 1.0))
            records.append((f"u{ui:0{user_width}d}", ids[rank],
                            min(SCALE[1], max(SCALE[0], value))))
    return records
