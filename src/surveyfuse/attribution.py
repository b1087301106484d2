"""Exact Shapley attribution of predictions to harmonized features.

Players are whole features, not individual one-hot columns: a feature's
bit group is switched on or off as a unit.  A predictor is any callable
``predictor(x, active)`` taking an (n, d) batch of bit-vectors and a
(c, m) boolean matrix of feature-presence masks, one coalition per row,
and returning the (n, c) table of predicted targets.  Values are computed
exactly from that table over all 2^m coalitions with the classical
factorial weights, which is cheap for the harmonized six-feature set and
capped at twelve features.

The default predictor looks up the mean target of the nearest donor
bucket after zeroing inactive features' columns; a zeroed group is the
encoding's representation of "missing", so no background dataset is
needed.  It packs the batch once and masks the packed rows with each
coalition's words; all n * c masked rows are matched in one kernel call.
An empty presence mask predicts the donor pool's global mean.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .dataset import EncodedDataset, bit_mask, pack_rows, unpack_rows
from .errors import FusionError
from .matching import build_buckets, nearest_rows
from .schema import MISSING_LABEL, FeatureDictionary

MAX_EXACT_FEATURES = 12

Predictor = Callable[[np.ndarray, np.ndarray], np.ndarray]


class BucketMeanPredictor:
    """Mean target of the Hamming-nearest donor bucket, under feature masking."""

    name = "bucket-mean"

    def __init__(self, candidate: EncodedDataset) -> None:
        self.dictionary = candidate.dictionary
        self.buckets = build_buckets(candidate)
        self.global_mean = float(candidate.y.mean())
        d = self.dictionary.dimension
        slices = self.dictionary.group_slices()
        self._masks = np.array([bit_mask(sl.start, sl.stop, d) for sl in slices])  # (m, words)
        self.matches: list[dict] = []  # MatchAssignment.diagnostics() per call

    def __call__(self, x: np.ndarray, active: np.ndarray) -> np.ndarray:
        active = np.asarray(active, dtype=bool)
        n, c = x.shape[0], active.shape[0]
        # (c, words): a bit is kept where its feature is in the coalition
        keep = np.bitwise_or.reduce(np.where(active[:, :, None], self._masks, np.uint64(0)), axis=1)
        masked = (pack_rows(x)[:, None, :] & keep).reshape(n * c, keep.shape[1])
        match = nearest_rows(masked, self.buckets.words, dimension=self.buckets.dimension)
        self.matches.append(match.diagnostics())
        values = self.buckets.y_mean[match.target_index].reshape(n, c)
        values[:, ~active.any(axis=1)] = self.global_mean
        return values


def shapley(
    x: np.ndarray,
    predictor: Predictor,
    dictionary: FeatureDictionary,
) -> np.ndarray:
    """Exact per-feature Shapley values, (n, m), for an (n, d) batch of samples.

    One predictor call fills the (n, 2^m) coalition-value table, keyed by
    bitmask over features; the value of feature i is the factorially
    weighted average of its marginal contribution ``v(S + i) - v(S)`` over
    coalitions S not containing i.
    """
    m = dictionary.n_features
    if m > MAX_EXACT_FEATURES:
        raise FusionError(
            f"exact Shapley enumeration is limited to {MAX_EXACT_FEATURES} features, "
            f"got {m}; no sampling mode is provided"
        )
    x = np.asarray(x, dtype=np.uint8)
    coalitions = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(bool)
    values = predictor(x, coalitions)

    fact = [math.factorial(i) for i in range(m + 1)]
    weight = [fact[s] * fact[m - s - 1] / fact[m] for s in range(m)]

    phi = np.zeros((x.shape[0], m))
    players = range(m)
    for i in players:
        for size in range(m):
            for coalition in combinations([p for p in players if p != i], size):
                bits = sum(1 << j for j in coalition)
                phi[:, i] += weight[size] * (values[:, bits | (1 << i)] - values[:, bits])
    return phi


@dataclass
class AttributionEntry:
    feature: str
    category: str  # the sample's own category, or the missing label
    mean_value: float
    n_samples: int

    @property
    def direction(self) -> str:
        if self.mean_value > 0:
            return "more-deliveries"
        if self.mean_value < 0:
            return "fewer-deliveries"
        return "neutral"


@dataclass
class AttributionReport:
    entries: list[AttributionEntry]
    n_evaluated: int
    seed: int
    predictor: str
    efficiency_max_error: float  # max |sum(values) - (v(full) - v(empty))| seen

    def to_json_dict(self) -> dict:
        return {
            **asdict(self),
            "entries": [{**asdict(e), "direction": e.direction} for e in self.entries],
        }


def sample_rows(n: int, limit: int, seed: int) -> np.ndarray:
    """The rows of n that ``attribute_dataset`` explains: ``min(limit, n)``
    drawn from ``rng_stream(seed)`` without replacement, ascending."""
    from .streams import sample

    return sample(seed, n, min(limit, n))


def attribute_dataset(
    ds: EncodedDataset,
    predictor: Predictor,
    sample_limit: int = 500,
    seed: int = 0,
) -> AttributionReport:
    """Shapley values over a seeded sample subset, aggregated per (feature, category).

    Each evaluated sample's value for feature f lands in the group of the
    sample's own category of f (its missing group when the bit group is
    all zero); groups report the mean signed value, summed in sample order
    by one ``np.bincount`` per feature.
    """
    if ds.n_samples == 0:
        raise FusionError("cannot attribute an empty dataset")
    chosen = sample_rows(ds.n_samples, sample_limit, seed)

    dictionary = ds.dictionary
    m = dictionary.n_features

    xs = unpack_rows(ds.words[chosen], dictionary.dimension)
    phis = shapley(xs, predictor, dictionary)
    ends = predictor(xs, np.array([[True] * m, [False] * m]))  # v(full), v(empty)
    gaps = np.abs(phis.sum(axis=1) - (ends[:, 0] - ends[:, 1]))
    eff_err = float(gaps.max(initial=0.0))

    entries = []
    groups = zip(dictionary.features, dictionary.categories, dictionary.group_slices(), phis.T)
    for name, cats, sl, phi in groups:
        group = xs[:, sl]
        labels = [*cats, MISSING_LABEL]
        # each sample's category: its hot bit, or the missing label for an all-zero group
        code = np.column_stack([group, ~group.any(axis=1)]).argmax(axis=1)
        counts = np.bincount(code, minlength=len(labels)).tolist()
        sums = np.bincount(code, weights=phi, minlength=len(labels)).tolist()
        entries += [
            AttributionEntry(feature=name, category=label, mean_value=s / n, n_samples=n)
            for label, s, n in zip(labels, sums, counts)
            if n
        ]
    entries.sort(key=lambda e: (-abs(e.mean_value), e.feature, e.category))
    predictor_name = getattr(predictor, "name", type(predictor).__name__)
    return AttributionReport(
        entries=entries,
        n_evaluated=chosen.size,
        seed=seed,
        predictor=predictor_name,
        efficiency_max_error=eff_err,
    )
