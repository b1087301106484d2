"""Independent brute-force oracles the engine's fast paths are checked against.

These deliberately avoid the library's packed-word kernels: distances come
from elementwise comparison on unpacked arrays, grouping from plain dicts,
and Shapley values from permutation enumeration rather than weighted
coalition sums.
"""

from itertools import permutations

import numpy as np


def nn_scan_oracle(query_x: np.ndarray, target_x: np.ndarray):
    """Nearest target row per query row; ties to the smallest target index."""
    idx = np.empty(query_x.shape[0], dtype=np.int64)
    dist = np.empty(query_x.shape[0], dtype=np.float64)
    d = query_x.shape[1]
    for i, row in enumerate(query_x):
        counts = (row[None, :] != target_x).sum(axis=1)
        j = int(np.argmin(counts))
        idx[i] = j
        dist[i] = counts[j] / d
    return idx, dist


def nn_random_tie_oracle(query_x: np.ndarray, target_x: np.ndarray, seed: int) -> np.ndarray:
    """Nearest target row per query row; a tie is drawn uniformly from the
    query row's tied targets with the PCG64 stream of ``(seed, row)``."""
    idx = np.empty(query_x.shape[0], dtype=np.int64)
    for i, row in enumerate(query_x):
        counts = (row[None, :] != target_x).sum(axis=1)
        ties = np.flatnonzero(counts == counts.min())
        if ties.size > 1:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
            idx[i] = int(rng.choice(ties))
        else:
            idx[i] = ties[0]
    return idx


def bucket_oracle(x: np.ndarray, y: np.ndarray):
    """Group identical rows (first-occurrence order) and average their targets."""
    groups: dict[bytes, list[int]] = {}
    order: list[bytes] = []
    for i, row in enumerate(x):
        key = row.tobytes()
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(i)
    xs, counts, means = [], [], []
    for key in order:
        members = groups[key]
        xs.append(x[members[0]])
        counts.append(len(members))
        means.append(float(np.mean([y[i] for i in members])))
    return np.array(xs), np.array(counts), np.array(means)


def shapley_permutation_oracle(x, predictor, dictionary) -> np.ndarray:
    """Average marginal contribution over all player orderings, for one sample."""
    m = dictionary.n_features
    phi = np.zeros(m)
    orderings = list(permutations(range(m)))
    for order in orderings:
        active = np.zeros(m, dtype=bool)
        prev = predictor(x[None], active[None])[0, 0]
        for player in order:
            active[player] = True
            cur = predictor(x[None], active[None])[0, 0]
            phi[player] += cur - prev
            prev = cur
    return phi / len(orderings)


def household_sum_oracle(household_ids, sample_y) -> dict[str, float]:
    totals: dict[str, float] = {}
    for h, v in zip(household_ids, sample_y):
        totals[str(h)] = totals.get(str(h), 0.0) + float(v)
    return totals


def sorted_mse_oracle(a, b) -> float:
    sa, sb = sorted(a), sorted(b)
    return sum((u - v) ** 2 for u, v in zip(sa, sb)) / len(sa)
