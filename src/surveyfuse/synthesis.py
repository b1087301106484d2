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

Only per-source1 sums reach the formula, so source2 is read a block of
rows at a time, from memory or straight from its ``.enc`` file
(``EncodedDataset.stream``), and the future-year matching consumes the
blocks as they come (``matching.match_blocks``): each block's labeled
rows add their counts and targets to their matched source1 samples, in
row order.  No full-length array of source2 and no per-row assignment of
it is made.  Source1 is matched on its words alone, a dataset's own or
read from a stream's blocks, so it too can be a stream, of which no
household id and no target is kept.  A file's rows are checked as they are read, source1's
first, after the candidate is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import EncodedDataset, EncodedStream, index_sum, require_same_dictionary
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
    source2: EncodedDataset | EncodedStream,
    source1: EncodedDataset | EncodedStream,
    candidate: EncodedDataset,
    *,
    tie_break: str = "index",
    seed: int | None = None,
) -> TriPartiteGraph:
    """Build the tri-partite graph source2 -> source1 -> buckets(candidate).

    Source1's words are a dataset's own, or a stream's ``blocks()`` made
    in one array, to its end before any error of this function's own.
    Source2 is read a block at a time (``blocks()``), from memory or
    straight from its file (``EncodedDataset.stream``).  Its samples with
    missing targets carry no usable value for the averaging step and are
    dropped from each block; the labeled rows are matched
    ``matching._QUERY_BLOCK`` or more at a time, and each query block's
    rows add their counts and targets to the source1 samples they matched.
    So no full-length array of source2 and no per-row assignment of it is
    made.  The "no labeled samples" error comes after the last block.
    """
    require_same_dictionary(source2, source1, candidate)
    n1, d = source1.n_samples, candidate.dictionary.dimension
    if isinstance(source1, EncodedDataset):
        words1 = source1.words
    else:  # the stream's words are made in place, as load makes them
        words1 = np.empty((n1, (d + 63) // 64), np.uint64)
        for _ in source1.blocks((words1, None)):
            pass
    if n1 == 0 or candidate.n_samples == 0:
        raise MatchError("source1 and candidate must be non-empty")

    buckets = build_buckets(candidate)
    mu1 = nearest_rows(words1, buckets.words, dimension=d, tie_break=tie_break, seed=seed)
    targets = []  # the labeled targets of the query block being matched

    def labeled():
        """Source2's labeled rows, its blocks' gathered into query blocks of
        ``matching._QUERY_BLOCK`` rows or more: a matching costs per block
        as well as per row."""
        words, y = [], []
        for block_words, block_y in source2.blocks():
            has = ~np.isnan(block_y)
            words.append(block_words[has])
            y.append(block_y[has])
            if sum(map(len, y)) >= matching._QUERY_BLOCK:
                block, words = np.concatenate(words), []  # the parts are freed first
                targets.append(np.concatenate(y))
                y = []
                yield block
        if y:
            targets.append(np.concatenate(y))
            yield np.concatenate(words)

    # query row i is the i-th labeled row, which numbers its random-tie stream
    mu2, blocks = matching.match_blocks(
        labeled(), words1, dimension=d, tie_break=tie_break, seed=seed
    )
    counts = np.zeros(n1, dtype=np.intp)
    sums = np.zeros(n1)
    for target_index, _ in blocks:
        # in row order across blocks, as one np.add.at over every row adds
        np.add.at(counts, target_index, 1)
        np.add.at(sums, target_index, targets.pop())
    if mu2.n_query == 0:
        raise MatchError("source2 has no labeled samples to project from")
    return TriPartiteGraph(
        buckets=buckets,
        mu1=mu1,
        mu2=mu2,
        source2_counts=counts,
        source2_sums=sums,
        n_source1=n1,
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
    g_mean *= w1 * w2  # each one's contribution, zero where no source2 sample matched

    # per bucket: matched source1 samples and total reaching source2 samples
    s_counts = index_sum(graph.mu1.target_index, k)
    bucket_sum = index_sum(graph.mu1.target_index, k, g_mean)
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
    source2: EncodedDataset | EncodedStream,
    source1: EncodedDataset | EncodedStream,
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
