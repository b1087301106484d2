"""Bucketed nearest-neighbor imputation under normalized Hamming distance.

The donor (candidate) dataset is grouped into buckets of identical
covariate vectors carrying the mean target of their members.  Every
source sample is matched to its nearest bucket by Hamming distance and
receives the bucket mean divided by the sample-count weight
``w = |source| / |candidate|``; per-household totals are the sums of the
per-sample values.

A matching runs in four steps, each exact under both tie rules:

1. The targets are deduplicated once.  The query rows are then taken a
   block at a time, and each block is deduplicated together with the
   distinct vectors already answered: the unique targets, then the
   distinct queries of earlier blocks.  So every distinct vector is
   answered once, in the block where it first appears, and the dedup's
   buffers follow the block and the distinct vectors, not the query
   count.  Identical rows are at the same distance from every other row,
   so a winner maps back to its smallest-index copy and a random tie
   draws from the same expanded tie set as a scan over all rows would,
   numbered by the query row's index among all blocks.
2. A query vector that shares a target vector's rank is at distance 0 from
   it and from no other unique target, so it is answered without a scan.
3. For single-word rows (d <= 64), each other new query vector looks up
   its d one-bit flips among the sorted unique target keys.  It has no
   target at distance 0, so the flips found are exactly its nearest unique
   targets, at distance 1: the smallest rank answers the index rule and all
   of them, in ascending order, are the random rule's tie set.  The join
   stops at radius 1: radius 2 would take d (d - 1) / 2 lookups per query,
   325 at d = 26, which costs more than scanning a few thousand targets.
4. The remaining new query vectors are scanned against the unique targets.

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

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .dataset import (
    EncodedDataset,
    concat_datasets,
    first_occurrence,
    first_occurrence_of_parts,
    household_sums,
    index_sum,
    require_same_dictionary,
)
from .errors import DataError, DimensionError, MatchError

# Byte budget for the scan's (block x targets) XOR buffer, small
# enough to stay in a 2 MiB per-core L2 cache; the block height follows from
# it, so memory does not grow with the target count.
_SCAN_BUFFER_BYTES = 1 << 20

# Bytes a (d x rows) entry of a ``_near_join`` block holds: the flips
# (uint64), their searchsorted positions (intp), the keys found there
# (uint64), the miss mask (bool) and the target positions hit (intp).
_JOIN_BYTES = 8 + 8 + 8 + 1 + 8

# Query rows per block of a matching.  A block's dedup holds 13 bytes a row
# of the block, the unique targets and the distinct queries answered before
# it; 32,768 rows take a 364k-row source in 12 blocks.
_QUERY_BLOCK = 1 << 15

# Query rows per block of the random tie draws, whose streams hold a few
# hundred bytes a row while they draw.
_TIE_BLOCK = 1 << 13

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
class MatchSummary:
    """A matching's workload shape and distance histogram, as a run
    manifest records them."""

    dimension: int
    n_query: int  # query rows
    n_target: int  # target rows
    n_unique_query: int  # distinct query vectors
    n_unique_target: int  # distinct target vectors the scan ran against
    n_exact_query: int  # distinct query vectors answered by an identical target, unscanned
    n_near_query: int  # distinct query vectors answered by the distance-1 join, unscanned
    distance_histogram: np.ndarray  # (dimension + 1,) int64, query rows at distance k / d

    def diagnostics(self) -> dict:
        """Workload shape and distance histogram, as a run manifest records them."""
        return {
            "query_rows": self.n_query,
            "target_rows": self.n_target,
            "unique_query_rows": self.n_unique_query,
            "unique_target_rows": self.n_unique_target,
            "n_exact_query": self.n_exact_query,
            "n_near_query": self.n_near_query,
            "distance_histogram": self.distance_histogram.tolist(),
        }


@dataclass
class MatchAssignment(MatchSummary):
    """A total nearest-neighbor matching from query rows to target rows.

    Per query row it holds 5 bytes at d <= 255: the matched target row and
    the Hamming count to it.
    """

    target_index: np.ndarray  # (n,) int32 (intp at 2**31 targets), matched row per query row
    hamming_count: np.ndarray  # (n,) np.min_scalar_type(dimension), differing bits to that row

    @property
    def n(self) -> int:
        return self.n_query

    @property
    def distance(self) -> np.ndarray:
        """(n,) float64 normalized Hamming distance ``hamming_count / dimension``
        in [0, 1]: a new array each call, not for hot paths."""
        return self.hamming_count / self.dimension


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
    q_keys: np.ndarray, order: np.ndarray, keys: np.ndarray, d: int, ties: bool
) -> tuple[np.ndarray, list]:
    """Positions of the distinct target keys one bit from each query key.

    The target keys come sorted, ``keys``, with their positions, ``order``
    (``keys = t_keys[order]``).  Each query's d one-bit flips are looked
    up among them, in blocks whose (d x rows) arrays fit
    ``_SCAN_BUFFER_BYTES``.  Returns each query's smallest target position
    at distance 1 (``keys.size`` where there is none) and, with ``ties``,
    per block the (queries, target positions) pairs at distance 1.
    """
    n_t = keys.size
    flips = np.uint64(1) << np.arange(d, dtype=np.uint64)
    rows = max(1, _SCAN_BUFFER_BYTES // (_JOIN_BYTES * d))
    nearest = np.empty(q_keys.size, dtype=np.int32 if n_t < 2**31 else np.intp)
    pairs = []
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
            flip, q = np.nonzero(~miss)
            pairs.append((queries[q], hit[flip, q]))
        nearest[queries] = hit.min(axis=0)
        del cand, pos, miss, hit  # before the next block's are allocated
    return nearest, pairs


def _answer(
    o_packed: np.ndarray, ut_packed: np.ndarray, sorted_keys: tuple | None, d: int, ties: bool
) -> tuple[np.ndarray, np.ndarray, int, list]:
    """Nearest unique target of each distinct query vector equal to none.

    At d <= 64, where ``sorted_keys`` holds the unique targets' key order
    and sorted keys, the distance-1 join answers the vectors one bit from
    a target; the scan answers the rest.  Returns each vector's smallest
    nearest unique target position and its Hamming count, how many the
    join answered and, with ``ties``, the (vector, unique target) pairs at
    the nearest distance.
    """
    n_ut = ut_packed.shape[0]
    u_cnt = np.zeros(o_packed.shape[0], dtype=np.min_scalar_type(d))
    pairs = []
    if sorted_keys is not None:  # d <= 64: a flip away from a target is distance 1
        u_idx, pairs = _near_join(o_packed[:, 0], *sorted_keys, d, ties)
        u_cnt[:] = u_idx < n_ut  # the scan overwrites the vectors without a hit
        scan = np.flatnonzero(u_idx == n_ut).astype(u_idx.dtype)  # the vectors left to scan
        o_packed = o_packed[scan]
    else:
        u_idx = np.empty(o_packed.shape[0], dtype=np.int32 if n_ut < 2**31 else np.intp)
        scan = np.arange(o_packed.shape[0], dtype=u_idx.dtype)
    rows = _block_rows(ut_packed)
    for s in range(0, scan.size, rows):
        e = min(s + rows, scan.size)
        counts = _block_counts(o_packed[s:e], ut_packed)
        idx = np.argmin(counts, axis=1)  # first minimum = smallest target index
        best = counts[np.arange(e - s), idx]
        u_idx[scan[s:e]] = idx
        u_cnt[scan[s:e]] = best
        if ties:
            q, t = np.nonzero(counts == best[:, None])
            pairs.append((scan[s:e][q], t))
    return u_idx, u_cnt, u_idx.size - scan.size, pairs


def _tie_sets(
    pairs: list, n_o: int, members: np.ndarray, member_count: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The tied target rows of ``n_o`` distinct query vectors, in CSR form.

    Each (vector, unique target) pair contributes that target's rows,
    ``members`` grouped by unique target with ``member_count`` rows each.
    Returns every vector's rows, ascending, one vector after another, and
    how many each has.
    """
    n_t = members.size
    owner = np.concatenate([np.empty(0, dtype=np.intp), *(q for q, _ in pairs)])
    tied = np.concatenate([np.empty(0, dtype=np.intp), *(t for _, t in pairs)])
    # the e-th expanded row of a pair is members[end of its target's run -
    # end of the pair's + e]
    lens = member_count[tied]
    at = np.repeat(np.cumsum(member_count)[tied] - np.cumsum(lens), lens) + np.arange(lens.sum())
    key = np.repeat(owner.astype(np.int64) * n_t, lens) + members[at]
    key.sort()  # by vector, then target row
    return (key % n_t).astype(members.dtype), index_sum(owner, n_o, lens)


def match_blocks(
    query_blocks: Iterable[np.ndarray],
    target_words: np.ndarray,
    *,
    dimension: int,
    tie_break: str = "index",
    seed: int | None = None,
) -> tuple[MatchSummary, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """Nearest target rows of query rows that arrive a block at a time.

    ``query_blocks`` yields packed query rows laid out as ``target_words``.
    The returned iterator yields, per block, the rows' matched target rows
    and Hamming counts, as ``nearest_rows`` gives them for all blocks
    together; query row i of the concatenation numbers its random-tie
    stream.  The summary counts the blocks matched so far.
    """
    d = dimension
    _check_words("target", target_words, d)
    if target_words.shape[0] == 0:
        raise MatchError("cannot match against an empty target set")
    if tie_break not in _TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {_TIE_BREAKS}, got {tie_break!r}")
    if tie_break == "random" and seed is None:
        raise ValueError("tie_break='random' requires a seed")
    first, t_rank = _unique_rows(target_words)
    summary = MatchSummary(
        dimension=d,
        n_query=0,
        n_target=target_words.shape[0],
        n_unique_query=0,
        n_unique_target=first.size,
        n_exact_query=0,
        n_near_query=0,
        distance_histogram=np.zeros(d + 1, dtype=np.int64),
    )
    seed = seed if tie_break == "random" else None
    return summary, _blocks(query_blocks, target_words[first], first, t_rank, seed, summary)


def _blocks(
    query_blocks: Iterable[np.ndarray],
    ut_packed: np.ndarray,
    first: np.ndarray,
    t_rank: np.ndarray,
    seed: int | None,
    summary: MatchSummary,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``match_blocks``' generator, with random ties where ``seed`` is
    given: each block is deduplicated together with the unique targets and
    the distinct queries already answered, and only its new vectors are
    answered."""
    d = summary.dimension
    n_ut = first.size
    index = np.int32 if t_rank.size < 2**31 else np.intp
    ties = seed is not None
    if ties:
        # per rank, its tie set in CSR form over members followed by others:
        # a unique target's own rows, then an answered query's tied target rows
        members = np.argsort(t_rank, kind="stable").astype(index)
        member_count = index_sum(t_rank, n_ut)
        others, size = members[:0], member_count
    del t_rank
    # per rank of a block's dedup (the unique targets', then those of the
    # distinct queries answered so far): its packed row, its target row
    # under the index rule and the Hamming count to it
    answered = ut_packed[:0]
    row = first.astype(index)
    count = np.zeros(n_ut, dtype=np.min_scalar_type(d))
    hit = np.zeros(n_ut + 1, dtype=bool)  # unique targets a query row equals, then any other
    sorted_keys = None
    if ut_packed.shape[1] == 1:  # the distance-1 join's lookup table
        order = np.argsort(ut_packed[:, 0])
        sorted_keys = order, ut_packed[order, 0]
    for block in query_blocks:
        m = row.size
        b_first, rank = _unique_rows(ut_packed, answered, block)
        q_rank = rank[m:]
        new = block[b_first[m:] - m]  # the block's vectors not answered before
        del b_first  # one entry per distinct vector: freed before the answers
        u_idx, u_cnt, n_near, pairs = _answer(new, ut_packed, sorted_keys, d, ties)
        answered = np.concatenate([answered, new])
        row = np.concatenate([row, first[u_idx].astype(index)])  # first ascends
        count = np.concatenate([count, u_cnt])
        target_index = row[q_rank]
        hamming_count = count[q_rank]
        if ties:
            new_flat, new_size = _tie_sets(pairs, new.shape[0], members, member_count)
            others = np.concatenate([others, new_flat])
            size = np.concatenate([size, new_size])
            # the summary counts the query rows before the block
            _draw_ties(target_index, q_rank, summary.n_query, members, others, size, seed)
        hit[np.minimum(q_rank, n_ut)] = True
        summary.n_query += block.shape[0]
        summary.n_exact_query = int(np.count_nonzero(hit[:n_ut]))
        summary.n_unique_query = summary.n_exact_query + row.size - n_ut
        summary.n_near_query += n_near
        summary.distance_histogram += np.bincount(hamming_count, minlength=d + 1)
        yield target_index, hamming_count


def _draw_ties(
    target_index: np.ndarray,
    q_rank: np.ndarray,
    start: int,
    members: np.ndarray,
    others: np.ndarray,
    size: np.ndarray,
    seed: int,
) -> None:
    """Redraw a block's ``target_index`` uniformly over each row's tie set.

    Rank u's tied target rows, ascending, are positions ``offset[u]`` to
    ``offset[u] + size[u]`` of ``members`` followed by ``others``, which
    are kept apart so that no block copies every target row.  Query row i
    of the matching (``start`` plus its row in the block) with a tie set
    of ``n_i > 1`` rows takes its ``below(seed, i, n_i)``-th row, as
    ``rng_stream(seed, i).choice`` of that set would.
    """
    from .streams import below

    n_t = members.size
    offset = np.cumsum(size) - size
    multi = size > 1
    for s in range(0, q_rank.size, _TIE_BLOCK):
        draw = s + np.flatnonzero(multi[q_rank[s : s + _TIE_BLOCK]])
        rank = q_rank[draw]
        pos = offset[rank] + below(seed, start + draw, size[rank])
        own = pos < n_t  # a unique target's own rows
        target_index[draw[own]] = members[pos[own]]
        target_index[draw[~own]] = others[pos[~own] - n_t]


def _check_words(name: str, words: np.ndarray, d: int) -> None:
    width = (d + 63) // 64
    if words.dtype != np.uint64 or words.ndim != 2 or words.shape[1] != width:
        raise DimensionError(
            f"{name} rows are a {words.shape} {words.dtype} array, expected "
            f"{width} uint64 words a row for dimension {d}"
        )


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
    rules: the query rows are matched ``_QUERY_BLOCK`` at a time by
    ``match_blocks``, and only the first occurrences of distinct query and
    target vectors take part; a query vector identical to a target vector
    is answered by the distance-0 join; at d <= 64, a query vector one bit
    from a target vector is answered by the distance-1 join; the rest are
    scanned.  The returned assignment records how many unique queries each
    join answered.
    """
    _check_words("query", query_words, dimension)
    n = query_words.shape[0]
    summary, blocks = match_blocks(
        (query_words[s : s + _QUERY_BLOCK] for s in range(0, n, _QUERY_BLOCK)),
        target_words,
        dimension=dimension,
        tie_break=tie_break,
        seed=seed,
    )
    target_index = np.empty(n, dtype=np.int32 if target_words.shape[0] < 2**31 else np.intp)
    hamming_count = np.empty(n, dtype=np.min_scalar_type(dimension))
    s = 0
    for idx, cnt in blocks:
        target_index[s : s + idx.size] = idx
        hamming_count[s : s + idx.size] = cnt
        s += idx.size
    return MatchAssignment(**vars(summary), target_index=target_index, hamming_count=hamming_count)


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
        filled /= index_sum(code, source.households.size)[code]
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
