"""Future-year dataset synthesis via nested nearest-neighbor matching.

Three coordinate-compatible datasets are chained: future-year samples
(source2) match to prior-year samples (source1), which match to donor
buckets (from candidate).  The two matchings form a tri-partite graph;
each bucket reachable from at least one future-year sample receives a
hierarchically averaged target and becomes one entry of the synthetic
output.

Per bucket, every matched source1 sample contributes ``w1 * w2 * mean(y
of its matched future-year samples)``; samples that attracted no
future-year match contribute zero.  The default normalization divides by
the number of source1 samples matched to the bucket.  The literal
alternative (``literal_v2_norm=True``) divides by all of |source1|
instead, which shrinks every bucket by the same global factor; it is kept
selectable because the published pseudocode can be read either way.

Only per-source1 sums reach the formula, so the future-year matching is
consumed a block of source2 rows at a time (``matching.match_blocks``):
each block's labeled rows add their counts and targets to their matched
source1 samples, in row order, and no per-row assignment of source2 is
kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import EncodedDataset, index_sum, require_same_dictionary
from .errors import DataError, MatchError
from . import matching
from .matching import BucketSet, MatchAssignment, MatchSummary, build_buckets, nearest_rows
from .schema import FeatureDictionary


@dataclass
class TriPartiteGraph:
    """Nested matching across three datasets.

    Every source1 node carries exactly one edge to a bucket (``mu1``) and
    every labeled source2 node exactly one edge to a source1 node
    (``mu2``); the nested matching is their composition.  Averaging reads
    the source2 edges only as per-source1 counts and target sums, so the
    graph keeps those and ``mu2``'s diagnostics, not the edges.
    """

    buckets: BucketSet
    mu1: MatchAssignment  # source1 sample -> bucket
    mu2: MatchSummary  # labeled source2 sample -> source1 sample: its diagnostics alone
    source2_counts: np.ndarray  # (n_source1,) intp, labeled source2 samples matched to each
    source2_sums: np.ndarray  # (n_source1,) float64, their targets summed in source2 row order
    n_source1: int
    candidate: EncodedDataset  # the donors the buckets group

    @property
    def n_source2(self) -> int:
        return self.mu2.n_query

    def default_weights(self) -> tuple[float, float]:
        """(w1, w2) from sample counts, source2 counted after its missing-y drop."""
        return self.n_source1 / self.candidate.n_samples, self.n_source2 / self.n_source1


def nested_match(
    source2: EncodedDataset,
    source1: EncodedDataset,
    candidate: EncodedDataset,
    *,
    tie_break: str = "index",
    seed: int | None = None,
) -> TriPartiteGraph:
    """Build the tri-partite graph source2 -> source1 -> buckets(candidate).

    Source2 samples with missing targets carry no usable value for the
    averaging step and are dropped before matching.  Source2 is matched
    ``matching._QUERY_BLOCK`` rows at a time; each block's labeled rows
    add their counts and targets to the source1 samples they matched, so
    no labeled copy of source2 and no per-row assignment of it is made.
    """
    require_same_dictionary(source2, source1, candidate)
    if source1.n_samples == 0 or candidate.n_samples == 0:
        raise MatchError("source1 and candidate must be non-empty")
    n_missing = source2.n_missing
    if n_missing == source2.n_samples:
        raise MatchError("source2 has no labeled samples to project from")

    buckets = build_buckets(candidate)
    d = buckets.dimension
    mu1 = nearest_rows(source1.words, buckets.words, dimension=d, tie_break=tie_break, seed=seed)
    step = matching._QUERY_BLOCK
    starts = range(0, source2.n_samples, step)

    def labeled(array: np.ndarray, s: int) -> np.ndarray:
        """Rows s to s + step of a source2 array, those with a target."""
        block = array[s : s + step]
        return block[~np.isnan(source2.y[s : s + step])] if n_missing else block

    # query row i is the i-th labeled row, which numbers its random-tie stream
    mu2, blocks = matching.match_blocks(
        (labeled(source2.words, s) for s in starts),
        source1.words,
        dimension=d,
        tie_break=tie_break,
        seed=seed,
    )
    counts = np.zeros(source1.n_samples, dtype=np.intp)
    sums = np.zeros(source1.n_samples)
    for (target_index, _), s in zip(blocks, starts):
        # in row order across blocks, as one np.add.at over every row adds
        np.add.at(counts, target_index, 1)
        np.add.at(sums, target_index, labeled(source2.y, s))
    return TriPartiteGraph(
        buckets=buckets,
        mu1=mu1,
        mu2=mu2,
        source2_counts=counts,
        source2_sums=sums,
        n_source1=source1.n_samples,
        candidate=candidate,
    )


@dataclass
class SyntheticDataset:
    """Synthesized future-year entries, one per reachable bucket."""

    dictionary: FeatureDictionary
    bucket_index: np.ndarray  # (r,) indices into the graph's bucket set
    words: np.ndarray  # (r, ceil(d/64)) uint64, packed covariate row per entry
    y: np.ndarray  # (r,) synthesized target, >= 0
    n_matched_samples: np.ndarray  # (r,) source1 samples matched to the bucket
    n_matched_donors: np.ndarray  # (r,) source2 samples reaching the bucket
    covered_households: tuple[str, ...]  # candidate households inside reachable buckets
    w1: float
    w2: float
    literal_v2_norm: bool
    matches: tuple[dict, ...]  # diagnostics() of the mu1 and mu2 matchings

    @property
    def n_entries(self) -> int:
        return int(self.bucket_index.shape[0])

    def to_encoded_dataset(self, survey_id: str, year: int) -> EncodedDataset:
        """Re-emit as an encoded dataset so synthesis output feeds back
        into matching and evaluation; entry ids are synthetic bucket labels."""
        ids = np.array([f"b{int(b):06d}" for b in self.bucket_index], dtype=np.str_)
        return EncodedDataset(
            dictionary=self.dictionary,
            survey_id=survey_id,
            year=year,
            households=ids,
            household_code=np.arange(ids.size, dtype=np.int32),
            words=self.words.copy(),
            y=self.y.copy(),
        )


def synthesize(
    graph: TriPartiteGraph,
    w1: float,
    w2: float,
    *,
    literal_v2_norm: bool = False,
) -> SyntheticDataset:
    """Hierarchically average future-year targets onto reachable buckets."""
    if w1 <= 0 or w2 <= 0:
        raise DataError(f"weights must be positive, got w1={w1}, w2={w2}")
    k = len(graph.buckets)
    n1 = graph.n_source1

    # per source1 sample: how many source2 samples matched it, and their mean y
    g_counts, g_sums = graph.source2_counts, graph.source2_sums
    g_mean = np.divide(g_sums, g_counts, out=np.zeros(n1), where=g_counts > 0)
    contribution = w1 * w2 * g_mean  # zero where no source2 sample matched

    # per bucket: matched source1 samples and total reaching source2 samples
    s_counts = index_sum(graph.mu1.target_index, k)
    bucket_sum = index_sum(graph.mu1.target_index, k, contribution)
    donor_counts = index_sum(graph.mu1.target_index, k, g_counts).astype(np.int64, copy=False)

    reachable = donor_counts > 0
    denom = float(n1) if literal_v2_norm else s_counts[reachable].astype(np.float64)
    y = bucket_sum[reachable] / denom

    bucket_index = np.flatnonzero(reachable)
    candidate = graph.candidate
    covered_mask = np.zeros(candidate.n_households(), dtype=bool)
    covered_mask[candidate.household_code[reachable[graph.buckets.inverse]]] = True
    covered = tuple(sorted(candidate.households[covered_mask].tolist()))

    return SyntheticDataset(
        dictionary=candidate.dictionary,
        bucket_index=bucket_index.astype(np.int64),
        words=graph.buckets.words[bucket_index],
        y=y,
        n_matched_samples=s_counts[reachable].astype(np.int64),
        n_matched_donors=donor_counts[reachable],
        covered_households=covered,
        w1=float(w1),
        w2=float(w2),
        literal_v2_norm=literal_v2_norm,
        matches=(graph.mu1.diagnostics(), graph.mu2.diagnostics()),
    )


def generate_future(
    source2: EncodedDataset,
    source1: EncodedDataset,
    candidate: EncodedDataset,
    *,
    literal_v2_norm: bool = False,
    tie_break: str = "index",
    seed: int | None = None,
) -> SyntheticDataset:
    """End-to-end synthesis: nested matching, default weights, averaging."""
    graph = nested_match(source2, source1, candidate, tie_break=tie_break, seed=seed)
    w1, w2 = graph.default_weights()
    return synthesize(graph, w1, w2, literal_v2_norm=literal_v2_norm)
