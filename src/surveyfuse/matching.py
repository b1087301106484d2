"""Bucketed nearest-neighbor imputation under normalized Hamming distance.

The donor (candidate) dataset is grouped into buckets of identical
covariate vectors carrying the mean target of their members.  Every
source sample is matched to its nearest bucket by Hamming distance and
receives the bucket mean divided by the sample-count weight
``w = |source| / |candidate|``; per-household totals are the sums of the
per-sample values.

A matching runs in four steps, each exact under both tie rules:

1. One dedup over the targets followed by the queries collapses identical
   vectors to their first occurrences, which reduces realistic one-hot
   workloads by orders of magnitude: identical rows are at the same
   distance from every other row, so a winner maps back to its
   smallest-index copy and a random tie draws from the same expanded tie
   set as a scan over all rows would.
2. A query vector that shares a target vector's rank is at distance 0 from
   it and from no other unique target, so it is answered without a scan.
3. For single-word rows (d <= 64), each other unique query looks up its d
   one-bit flips among the sorted unique target keys.  It has no target at
   distance 0, so the flips found are exactly its nearest unique targets,
   at distance 1: the smallest rank answers the index rule and all of them,
   in ascending order, are the random rule's tie set.  The join stops at
   radius 1: radius 2 would take d (d - 1) / 2 lookups per query, 325 at
   d = 26, which costs more than scanning a few thousand targets.
4. The remaining unique queries are scanned against the unique targets.

Rows arrive packed into 64-bit words, as an ``EncodedDataset`` holds them
(``dataset.pack_rows``).  The scan kernel XOR-popcounts a block
of queries against the targets one word at a time and sums the counts;
the block height keeps (rows x targets x words) 8-byte words within a
budget sized for a core's L2 cache, as do the join's (d x rows) flip
matrices.  One pass over the scan blocks, inline in the calling thread,
serves both tie rules: each block yields its first minimum and, for
random ties, the set of all minima.

Everything here is exact: no approximate neighbors, no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import (
    EncodedDataset,
    concat_datasets,
    first_occurrence,
    first_occurrence_of_parts,
    household_sums,
    require_same_dictionary,
    rng_stream,
)
from .errors import DataError, DimensionError, MatchError

# Byte budget for the scan's (block x targets) XOR buffer, small
# enough to stay in a 2 MiB per-core L2 cache; the block height follows from
# it, so memory does not grow with the target count.
_SCAN_BUFFER_BYTES = 1 << 20

_TIE_BREAKS = ("index", "random")


def _unique_rows(*parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-occurrence-ordered unique row indices and the inverse map of
    the packed rows of ``parts``, one after another.

    A single-word row (d <= 64) is keyed on its uint64 value, with no copy
    of the parts besides the dedup's own; wider rows on an opaque fixed-size
    record view of their concatenation.  Both keys give the same output.
    """
    if parts[0].shape[1] == 1:
        return first_occurrence_of_parts(*(p[:, 0] for p in parts))
    packed = np.ascontiguousarray(parts[0]) if len(parts) == 1 else np.concatenate(parts)
    key = packed.view(np.dtype((np.void, packed.shape[1] * packed.itemsize))).ravel()
    return first_occurrence(key)


@dataclass
class BucketSet:
    """Donor groups with identical covariates, ordered by first occurrence.

    ``inverse`` maps each candidate sample to its bucket, so member
    lookups (e.g. which households a bucket covers) stay cheap.
    """

    words: np.ndarray  # (k, ceil(d/64)) uint64, the shared packed covariate row per bucket
    dimension: int  # d, the bits of a row
    member_count: np.ndarray  # (k,) int64
    y_mean: np.ndarray  # (k,) float64
    inverse: np.ndarray  # (n_candidate,) int64, sample -> bucket

    def __len__(self) -> int:
        return int(self.words.shape[0])


def build_buckets(candidate: EncodedDataset) -> BucketSet:
    """Group identical donor vectors and average their targets.

    Every candidate sample must carry a target; pre-filter with
    ``candidate.labeled()`` if needed.
    """
    if candidate.n_missing:
        raise DataError(
            f"candidate has {candidate.n_missing} samples with missing targets; "
            "donors must be fully labeled"
        )
    first, inverse = _unique_rows(candidate.words)
    counts = np.bincount(inverse, minlength=first.size)
    sums = np.bincount(inverse, weights=candidate.y, minlength=first.size)
    return BucketSet(
        words=candidate.words[first],
        dimension=candidate.dictionary.dimension,
        member_count=counts.astype(np.int64),
        y_mean=sums / counts,
        inverse=inverse.astype(np.int64),
    )


@dataclass
class MatchAssignment:
    """A total nearest-neighbor matching from query rows to target rows.

    Per query row it holds 5 bytes at d <= 255: the matched target row and
    the Hamming count to it.
    """

    target_index: np.ndarray  # (n,) int32 (intp at 2**31 targets), matched row per query row
    hamming_count: np.ndarray  # (n,) np.min_scalar_type(dimension), differing bits to that row
    dimension: int
    n_target: int  # target rows
    n_unique_query: int  # distinct query vectors
    n_unique_target: int  # distinct target vectors the scan ran against
    n_exact_query: int  # distinct query vectors answered by an identical target, unscanned
    n_near_query: int  # distinct query vectors answered by the distance-1 join, unscanned
    distance_histogram: np.ndarray  # (dimension + 1,) int64, query rows at distance k / d

    @property
    def n(self) -> int:
        return int(self.target_index.shape[0])

    @property
    def distance(self) -> np.ndarray:
        """(n,) float64 normalized Hamming distance ``hamming_count / dimension``
        in [0, 1]: a new array each call, not for hot paths."""
        return self.hamming_count / self.dimension

    def diagnostics(self) -> dict:
        """Workload shape and distance histogram, as a run manifest records them."""
        return {
            "query_rows": self.n,
            "target_rows": self.n_target,
            "unique_query_rows": self.n_unique_query,
            "unique_target_rows": self.n_unique_target,
            "n_exact_query": self.n_exact_query,
            "n_near_query": self.n_near_query,
            "distance_histogram": self.distance_histogram.tolist(),
        }


def _block_rows(t_packed: np.ndarray) -> int:
    """Scan block height whose XOR buffer against ``t_packed`` fits the budget."""
    return max(1, _SCAN_BUFFER_BYTES // (8 * t_packed.shape[1] * t_packed.shape[0]))


def _block_counts(block: np.ndarray, t_packed: np.ndarray) -> np.ndarray:
    """(rows x targets) Hamming counts summed word by word: uint8 at one word, int32 above."""
    counts = np.bitwise_count(block[:, 0, None] ^ t_packed[:, 0])
    for w in range(1, block.shape[1]):
        counts = np.add(counts, np.bitwise_count(block[:, w, None] ^ t_packed[:, w]), dtype=np.int32)
    return counts


def _near_join(
    q_keys: np.ndarray, t_keys: np.ndarray, d: int, ties: bool
) -> tuple[np.ndarray, list]:
    """Positions of the distinct target keys one bit from each query key.

    Each query's d one-bit flips are looked up among the sorted target
    keys, in blocks whose (d x rows) flip matrix fits ``_SCAN_BUFFER_BYTES``.
    Returns each query's smallest target position at distance 1
    (``t_keys.size`` where there is none) and, with ``ties``, per query all
    such positions in ascending order (``None`` where there is none).
    """
    n_t = t_keys.size
    order = np.argsort(t_keys)
    keys = t_keys[order]
    flips = np.uint64(1) << np.arange(d, dtype=np.uint64)
    rows = max(1, _SCAN_BUFFER_BYTES // (8 * d))
    nearest = np.empty(q_keys.size, dtype=np.intp)
    tie_sets = [None] * q_keys.size if ties else []
    for s in range(0, q_keys.size, rows):
        queries = s + np.argsort(q_keys[s : s + rows])
        # a row per flip over ascending queries: searchsorted's lookups stay local
        cand = flips[:, None] ^ q_keys[queries]
        pos = np.searchsorted(keys, cand)
        np.minimum(pos, n_t - 1, out=pos)
        miss = keys[pos] != cand
        hit = order[pos]
        hit[miss] = n_t
        if ties:
            hit.sort(axis=0)
            for i, h, k in zip(queries, hit.T, np.count_nonzero(hit < n_t, axis=0)):
                if k:
                    tie_sets[i] = h[:k].copy()
        nearest[queries] = hit[0] if ties else hit.min(axis=0)
    return nearest, tie_sets


def nearest_rows(
    query_words: np.ndarray,
    target_words: np.ndarray,
    *,
    dimension: int,
    tie_break: str = "index",
    seed: int | None = None,
) -> MatchAssignment:
    """Exact nearest target row per query row under Hamming distance.

    Rows are packed, ``ceil(dimension / 64)`` uint64 words each, as
    ``dataset.pack_rows`` writes them.  Ties resolve to the smallest target
    index, or uniformly at random per query row with ``tie_break="random"``
    (stream derived from ``(seed, query row index)``).

    The steps follow the module docstring, each exact under both tie
    rules: only the first occurrences of distinct query and target vectors
    take part; a query vector identical to a target vector is answered by
    the distance-0 join; at d <= 64, a query vector one bit from a target
    vector is answered by the distance-1 join; the rest are scanned.  The
    returned assignment records how many unique queries each join answered.

    One scan pass over blocks of the remaining unique queries serves both
    tie rules.
    """
    d = dimension
    width = (d + 63) // 64
    for name, words in (("query", query_words), ("target", target_words)):
        if words.dtype != np.uint64 or words.ndim != 2 or words.shape[1] != width:
            raise DimensionError(
                f"{name} rows are a {words.shape} {words.dtype} array, expected "
                f"{width} uint64 words a row for dimension {d}"
            )
    if target_words.shape[0] == 0:
        raise MatchError("cannot match against an empty target set")
    if tie_break not in _TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {_TIE_BREAKS}, got {tie_break!r}")
    if tie_break == "random" and seed is None:
        raise ValueError("tie_break='random' requires a seed")

    n_t = target_words.shape[0]
    # One dedup over the targets followed by the queries: identical rows share
    # a rank, in order of first occurrence, so the ranks below n_ut are the
    # unique targets and a query of such a rank equals that target.
    first, rank = _unique_rows(target_words, query_words)
    t_rank, q_rank = rank[:n_t], rank[n_t:]
    n_ut = int(np.searchsorted(first, n_t))
    n_other = first.size - n_ut  # unique queries without an identical target
    ut_packed = target_words[first[:n_ut]]
    o_packed = query_words[first[n_ut:] - n_t]
    random = tie_break == "random"
    # an exact query's answer is its own rank at count 0; the join and the scan
    # fill the other queries' entries, and their tie sets for random ties
    u_idx = np.arange(first.size)
    u_cnt = np.zeros(first.size, dtype=np.int64)
    o_ties = [None] * n_other if random else []
    scan = np.arange(n_other)  # the other queries left to scan
    if ut_packed.shape[1] == 1:  # d <= 64: a flip away from a target is distance 1
        near, o_ties = _near_join(o_packed[:, 0], ut_packed[:, 0], d, random)
        u_idx[n_ut:] = near  # the scan overwrites the queries without a hit
        u_cnt[n_ut:] = near < n_ut
        scan = np.flatnonzero(near == n_ut)
        o_packed = o_packed[scan]
    rows = _block_rows(ut_packed)
    for s in range(0, scan.size, rows):
        e = min(s + rows, scan.size)
        counts = _block_counts(o_packed[s:e], ut_packed)
        idx = np.argmin(counts, axis=1)  # first minimum = smallest target index
        best = counts[np.arange(e - s), idx]
        u_idx[n_ut + scan[s:e]] = idx
        u_cnt[n_ut + scan[s:e]] = best
        if random:
            for p, c, b in zip(scan[s:e], counts, best):
                o_ties[p] = np.flatnonzero(c == b)

    # first ascends, so the first unique minimum is the smallest tied row.
    target_index = first[u_idx].astype(np.int32 if n_t < 2**31 else np.intp)[q_rank]

    if random:
        # each tied unique target stands for all its rows, in ascending order
        members = np.split(
            np.argsort(t_rank, kind="stable"),
            np.cumsum(np.bincount(t_rank))[:-1],
        )
        ties = members + [np.sort(np.concatenate([members[j] for j in t])) for t in o_ties]
        n_ties = np.array([t.size for t in ties], dtype=np.int64)
        for i in np.flatnonzero(n_ties[q_rank] > 1):
            target_index[i] = int(rng_stream(seed, i).choice(ties[q_rank[i]]))

    q_rows = np.bincount(q_rank, minlength=first.size)  # query rows per unique vector
    n_exact = int(np.count_nonzero(q_rows[:n_ut]))
    return MatchAssignment(
        target_index=target_index,
        hamming_count=u_cnt.astype(np.min_scalar_type(d))[q_rank],
        dimension=d,
        n_target=n_t,
        n_unique_query=n_exact + n_other,
        n_unique_target=n_ut,
        n_exact_query=n_exact,
        n_near_query=n_other - scan.size,
        distance_histogram=np.bincount(u_cnt, q_rows, minlength=d + 1).astype(np.int64),
    )


def augment_candidate(source: EncodedDataset, candidate: EncodedDataset) -> EncodedDataset:
    """Donor pool per the imputation protocol: candidate plus labeled source samples."""
    require_same_dictionary(source, candidate)
    labeled = source.labeled()
    if labeled.n_samples == 0:
        return candidate
    return concat_datasets(
        [candidate, labeled],
        survey_id=f"{candidate.survey_id}+{source.survey_id}-labeled",
        year=candidate.year,
    )


@dataclass
class ImputationResult:
    """Per-sample imputed targets and their per-household sums."""

    sample_y: np.ndarray  # (n,) float64, >= 0
    imputed_mask: np.ndarray  # (n,) bool, True where the value was filled in
    household_ids: np.ndarray  # unique ids, ordered by first appearance
    household_y: np.ndarray  # aligned with household_ids
    weight: float
    assignment: MatchAssignment | None = None

    def household_totals(self) -> dict[str, float]:
        return {str(h): float(t) for h, t in zip(self.household_ids, self.household_y)}


def impute(
    source: EncodedDataset,
    candidate: EncodedDataset,
    *,
    impute_all: bool = False,
    tie_break: str = "index",
    seed: int | None = None,
    household_weight: bool = False,
) -> ImputationResult:
    """Fill source targets from the nearest donor bucket's mean.

    Matched bucket means are divided by ``w = |source| / |candidate|``
    (sample counts).  With the default ``impute_all=False`` only missing
    targets are filled; observed values are kept as reported.

    ``household_weight=True`` replaces the global ``w`` with each
    household's own sample count, so a household's total becomes the mean
    of its samples' matched bucket means.  This is an interpretation of
    the weighting rationale, not the published rule; the default follows
    the published rule.
    """
    require_same_dictionary(source, candidate)
    if candidate.n_samples == 0:
        raise MatchError("candidate dataset is empty")
    buckets = build_buckets(candidate)
    assignment = nearest_rows(
        source.words, buckets.words, dimension=buckets.dimension, tie_break=tie_break, seed=seed
    )
    w = source.n_samples / candidate.n_samples
    filled = buckets.y_mean[assignment.target_index]  # matched means, divided in place
    code = source.household_code
    if household_weight:  # each sample's household size
        filled /= np.bincount(code, minlength=source.households.size)[code]
    else:
        filled /= w
    if impute_all:
        sample_y = filled
        imputed_mask = np.ones(source.n_samples, dtype=bool)
    else:
        imputed_mask = source.missing_mask
        sample_y = filled  # observed targets copied over the matched means
        np.copyto(sample_y, source.y, where=~imputed_mask)
    ids, totals = household_sums(source.households, sample_y, code)
    return ImputationResult(
        sample_y=sample_y,
        imputed_mask=imputed_mask,
        household_ids=ids,
        household_y=totals,
        weight=w,
        assignment=assignment,
    )
