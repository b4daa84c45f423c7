"""Brute-force reference implementations used to cross-check the library.

Everything here is written as plain loops over plain dicts, with no imports
from ``cflevels``, so a bug in the library cannot hide in a shared code path.
Ratings are represented as ``{user: {item: rating}}``.
"""

import math
import random
import sys


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------

def overlap(ratings, a, b):
    """Items rated by both users, as a sorted list."""
    return sorted(set(ratings[a]) & set(ratings[b]))


def pearson(ratings, a, b):
    """Pearson correlation over the co-rated items, means over that set.

    Degenerate pairs (fewer than 2 co-rated items, or zero variance on the
    overlap for either user) score 0. Sums use math.fsum (the exactly
    rounded sum), so top-k cuts over near-tied scores are reproducible and
    comparable bit-for-bit against any other exactly-summing implementation.
    """
    items = overlap(ratings, a, b)
    if len(items) < 2:
        return 0.0
    ra = [ratings[a][i] for i in items]
    rb = [ratings[b][i] for i in items]
    ma = math.fsum(ra) / len(ra)
    mb = math.fsum(rb) / len(rb)
    num = math.fsum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    dx = math.fsum((x - ma) ** 2 for x in ra)
    dy = math.fsum((y - mb) ** 2 for y in rb)
    if dx == 0.0 or dy == 0.0:
        return 0.0
    # the root of the product keeps the bits that top-k ties depend on; where
    # the product leaves the normal float range, as with in-scale ratings
    # near 1e-100 or 1e100, the two roots keep the score right
    prod = dx * dy
    if sys.float_info.min <= prod < math.inf:
        den = math.sqrt(prod)
    else:
        den = math.sqrt(dx) * math.sqrt(dy)
    return max(-1.0, min(1.0, num / den))


def weighted_pearson(ratings, a, b, threshold):
    s = pearson(ratings, a, b)
    n = len(overlap(ratings, a, b))
    if n < threshold:
        return (n / threshold) * s
    return s


def sigmoid_pearson(ratings, a, b):
    s = pearson(ratings, a, b)
    n = len(overlap(ratings, a, b))
    return s * (1.0 / (1.0 + math.exp(-n / 2.0)))


def power_law(s, alpha, beta):
    """Sign-preserving power-law rescaling of a similarity score."""
    if s == 0.0:
        return 0.0
    sign = 1.0 if s > 0 else -1.0
    return alpha * sign * (abs(s) ** beta)


def static_adjusted(ratings, a, b, t, y):
    s = pearson(ratings, a, b)
    n = len(overlap(ratings, a, b))
    if n >= t and s >= y:
        return s + s
    return s * (1.0 / (1.0 + s * s))


def round_half_away(x):
    return math.copysign(math.floor(abs(x) + 0.5), x)


def level_bounds(user_count, item_count, min_co_rated=5):
    """Band bounds as a list of (lower, upper, divisor); upper None = open.

    Built by walking down from the first-level bound in steps, clamping any
    band that straddles the minimum co-rated threshold.
    """
    dvu = int(round_half_away(math.log10(user_count)))
    dvi = int(round_half_away(math.log2(item_count)))
    step = max(1, int(round_half_away(dvi / dvu)))
    bands = [(max(dvi, min_co_rated), None, 1)]
    divisor = 2
    upper = max(dvi, min_co_rated) - 1
    while upper >= min_co_rated:
        lower = max(upper - step + 1, min_co_rated)
        bands.append((lower, upper, divisor))
        divisor += 1
        upper = lower - 1
    return dvu, dvi, step, bands


def dynamic_adjusted(ratings, a, b, user_count, item_count, form="eq4"):
    s = pearson(ratings, a, b)
    n = len(overlap(ratings, a, b))
    _, _, _, bands = level_bounds(user_count, item_count)
    for lower, upper, divisor in bands:
        if n >= lower and (upper is None or n <= upper):
            return s + s / divisor
    if form == "eq4":
        return s * (1.0 / (1.0 + s * s))
    if form == "eq8":
        return s * (1.0 / (1.0 + s * s) - 1.0)
    if form == "alg1":
        return (s * (1.0 / (1.0 + s * s))) / 6.0
    raise ValueError(form)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def full_mean(ratings, u):
    vals = [ratings[u][i] for i in sorted(ratings[u])]
    return math.fsum(vals) / len(vals)


def neighborhood(ratings, a, item, k, sim):
    """Top-k positively similar raters of ``item``, ties by ascending id."""
    cands = []
    for b in sorted(ratings):
        if b == a or item not in ratings[b]:
            continue
        s = sim(a, b)
        if s > 0.0:
            cands.append((b, s))
    cands.sort(key=lambda p: (-p[1], p[0]))
    return cands[:k]


def predict(ratings, a, item, k, sim, scale):
    """Mean-centered weighted average over the neighborhood, or None."""
    if a not in ratings or item in ratings.get(a, {}):
        pass  # callers only ask about unrated items; tolerate otherwise
    neigh = neighborhood(ratings, a, item, k, sim)
    if not neigh:
        return None
    num = math.fsum(s * (ratings[b][item] - full_mean(ratings, b)) for b, s in neigh)
    den = math.fsum(abs(s) for _, s in neigh)
    if den == 0.0:
        return None
    value = full_mean(ratings, a) + num / den
    return max(scale[0], min(scale[1], value))


def top_n(ratings, a, r, k, sim, scale, candidates=None):
    if candidates is None:
        all_items = set()
        for u in ratings:
            all_items.update(ratings[u])
        candidates = all_items - set(ratings.get(a, {}))
    scored = []
    for item in sorted(candidates):
        p = predict(ratings, a, item, k, sim, scale)
        if p is not None:
            scored.append((item, p))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:r]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def mae(pairs):
    return sum(abs(p - r) for p, r in pairs) / len(pairs)


def nmae(mae_value, scale):
    return mae_value / (scale[1] - scale[0])


def rmse(pairs):
    return math.sqrt(sum((p - r) ** 2 for p, r in pairs) / len(pairs))


def precision_recall_f1(recommended, relevant):
    hits = len(set(recommended) & set(relevant))
    p = hits / len(recommended) if recommended else 0.0
    r = hits / len(relevant) if relevant else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def hit_rate_pct(hit_counts):
    if not hit_counts:
        return 0.0
    return 100.0 * sum(1 for h in hit_counts if h > 0) / len(hit_counts)


# ---------------------------------------------------------------------------
# splitting (shares the library's published contract so runs line up)
# ---------------------------------------------------------------------------

def holdout_split(records, ratio, seed):
    """records: list of (user, item, value). Returns (train, test) lists."""
    ordered = sorted(records, key=lambda t: (t[0], t[1]))
    rng = random.Random(seed)
    rng.shuffle(ordered)
    n_train = int(round(len(ordered) * ratio))
    return ordered[:n_train], ordered[n_train:]


def records_to_dict(records):
    out = {}
    for u, i, v in records:
        out.setdefault(u, {})[i] = v
    return out


def run_holdout_experiment(records, ratio, seed, k, r, relevance, scale):
    """End-to-end holdout evaluation with plain-PCC similarity.

    Returns a dict with the same quantities the library reports.
    """
    train_recs, test_recs = holdout_split(records, ratio, seed)
    train = records_to_dict(train_recs)
    sim = lambda a, b: pearson(train, a, b)

    pairs = []
    misses = 0
    for u, i, actual in sorted(test_recs, key=lambda t: (t[0], t[1])):
        if u not in train:
            misses += 1
            continue
        p = predict(train, u, i, k, sim, scale)
        if p is None:
            misses += 1
        else:
            pairs.append((p, actual))

    test_users = sorted({u for u, _, _ in test_recs})
    per_user = []
    hit_counts = []
    for u in test_users:
        if u in train:
            recs = [item for item, _ in top_n(train, u, r, k, sim, scale)]
        else:
            recs = []
        relevant = {i for uu, i, v in test_recs if uu == u and v >= relevance}
        hits = len(set(recs) & relevant)
        hit_counts.append(hits)
        if relevant:
            per_user.append(precision_recall_f1(recs, relevant))

    precision = sum(p for p, _, _ in per_user) / len(per_user) if per_user else 0.0
    recall = sum(r_ for _, r_, _ in per_user) / len(per_user) if per_user else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return {
        "n_train": len(train_recs),
        "n_test": len(test_recs),
        "pairs": pairs,
        "mae": mae(pairs) if pairs else None,
        "nmae": nmae(mae(pairs), scale) if pairs else None,
        "rmse": rmse(pairs) if pairs else None,
        "coverage_misses": misses,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "hit_rate_pct": hit_rate_pct(hit_counts),
    }


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

# The 4x4 sample database used across the unit tests: 13 ratings on a 1-5
# scale, with '-' cells absent.
SAMPLE_RATINGS = {
    "u1": {"i1": 1.0, "i2": 2.0, "i3": 3.0},
    "u2": {"i1": 5.0, "i2": 5.0, "i3": 3.0, "i4": 3.0},
    "u3": {"i3": 4.0, "i4": 2.0},
    "u4": {"i1": 1.0, "i2": 1.0, "i3": 1.0, "i4": 5.0},
}

SAMPLE_RECORDS = [
    (u, i, v)
    for u in sorted(SAMPLE_RATINGS)
    for i, v in sorted(SAMPLE_RATINGS[u].items())
]


def ratings_to_records(ratings):
    """Dict-of-dicts to sorted (user, item, value) triples."""
    return [(u, i, v)
            for u in sorted(ratings)
            for i, v in sorted(ratings[u].items())]


def random_ratings(rng, n_users=10, n_items=10, density=0.5, scale=(1, 5)):
    """Random dense-ish rating dict with integer ratings, for property tests."""
    ratings = {}
    for ui in range(n_users):
        u = f"u{ui:03d}"
        row = {}
        for ii in range(n_items):
            if rng.random() < density:
                row[f"i{ii:03d}"] = float(rng.randint(scale[0], scale[1]))
        if row:
            ratings[u] = row
    return ratings
