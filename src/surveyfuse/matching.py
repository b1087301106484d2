"""Bucketed nearest-neighbor imputation under normalized Hamming distance.

The donor (candidate) dataset is grouped into buckets of identical
covariate vectors carrying the mean target of their members.  Every
source sample is matched to its nearest bucket by Hamming distance and
receives the bucket mean divided by the sample-count weight
``w = |source| / |candidate|``; per-household totals are the sums of the
per-sample values.

An imputation is one block path (``impute_blocks``): the source, a
dataset or a stream read once from its ``.enc`` file, gives its packed
rows and its observed targets; the query rows are then matched, divided
and summed into the household totals a block at a time, and the blocks
are handed on as they come, to a CSV writer or to ``impute``, which
collects them.  No per-row output is made for all rows at once unless
``impute`` collects it.

A matching runs in four steps, each exact under both tie rules:

1. The targets are deduplicated once.  The query rows are then taken a
   block at a time; each block is deduplicated alone, and its distinct
   vectors are looked up among the sorted keys of those already answered:
   the unique targets, then the distinct queries of earlier blocks.  So
   every distinct vector is answered once, in the block where it first
   appears, and a block's work and buffers follow the block, not the
   query count or the vectors answered before it.  Identical rows are at
   the same distance from every other row, so a winner maps back to its
   smallest-index copy and a random tie draws from the same expanded tie
   set as a scan over all rows would, numbered by the query row's index
   among all blocks.
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
    EncodedStream,
    concat_datasets,
    first_occurrence,
    household_sums,  # unused here since impute sums per block; bench/tracer.py patches it
    index_sum,
    require_same_dictionary,
)
from .errors import DataError, DimensionError, FusionError, MatchError

# Byte budget for the scan's (block x targets) XOR buffer, small
# enough to stay in a 2 MiB per-core L2 cache; the block height follows from
# it, so memory does not grow with the target count.
_SCAN_BUFFER_BYTES = 1 << 20

# Bytes a (d x rows) entry of a ``_near_join`` block holds: the flips
# (uint64), their searchsorted positions (intp), the keys found there
# (uint64), the miss mask (bool) and the target positions hit (intp).
_JOIN_BYTES = 8 + 8 + 8 + 1 + 8

# Query rows per block of ``nearest_rows``.  A block's dedup and lookup hold
# a few dozen bytes a row of the block; 32,768 rows take a 364k-row source
# in 12 blocks.
_QUERY_BLOCK = 1 << 15

# Query rows per block of the random tie draws, whose streams hold a few
# hundred bytes a row while they draw.
_TIE_BLOCK = 1 << 13

_TIE_BREAKS = ("index", "random")


def _keys(words: np.ndarray) -> np.ndarray:
    """The dedup key of each packed row: its uint64 word at d <= 64, with
    no copy; an opaque fixed-size record view of its words above."""
    if words.shape[1] == 1:
        return words[:, 0]
    words = np.ascontiguousarray(words)
    return words.view(np.dtype((np.void, words.shape[1] * words.itemsize))).ravel()


def _unique_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-occurrence-ordered unique row indices of packed rows and the
    inverse map, keyed on ``_keys``."""
    return first_occurrence(_keys(words))


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
    return _buckets(candidate.words, candidate.y, candidate.dictionary.dimension)


def _buckets(words: np.ndarray, y: np.ndarray, d: int) -> BucketSet:
    """``build_buckets`` of donor rows given as packed words and targets."""
    n_missing = int(np.count_nonzero(np.isnan(y)))
    if n_missing:
        raise DataError(
            f"candidate has {n_missing} samples with missing targets; "
            "donors must be fully labeled"
        )
    first, inverse = _unique_rows(words)
    counts = np.bincount(inverse, minlength=first.size)
    sums = np.bincount(inverse, weights=y, minlength=first.size)
    return BucketSet(
        words=words[first],
        dimension=d,
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
    given: each block is deduplicated alone, its distinct keys are looked
    up among the sorted keys of the vectors answered before it (the unique
    targets, then the distinct queries of earlier blocks), and only its new
    vectors are answered."""
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
    # the vectors answered so far, numbered in order of first appearance
    # (their rank): the unique targets, then the distinct queries.  Per
    # rank, its target row under the index rule and the Hamming count to
    # it; and their keys, sorted, with the rank of each
    row = first.astype(index)
    count = np.zeros(n_ut, dtype=np.min_scalar_type(d))
    known = _keys(ut_packed)
    order = np.argsort(known).astype(index)
    known, known_rank = known[order], order
    sorted_keys = (order, known) if ut_packed.shape[1] == 1 else None  # the distance-1 join's
    hit = np.zeros(n_ut + 1, dtype=bool)  # unique targets a query row equals, then any other
    for block in query_blocks:
        q_rank, u_rank, new, at, keys, ranks = _rank_block(block, known, known_rank, row.size)
        hit[np.minimum(u_rank, n_ut)] = True
        known = np.insert(known, at, keys)  # still sorted
        known_rank = np.insert(known_rank, at, ranks)
        del u_rank, at, keys, ranks
        u_idx, u_cnt, n_near, pairs = _answer(new, ut_packed, sorted_keys, d, ties)
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
        summary.n_query += block.shape[0]
        summary.n_exact_query = int(np.count_nonzero(hit[:n_ut]))
        summary.n_unique_query = summary.n_exact_query + row.size - n_ut
        summary.n_near_query += n_near
        summary.distance_histogram += np.bincount(hamming_count, minlength=d + 1)
        yield target_index, hamming_count


def _rank_block(
    block: np.ndarray, known: np.ndarray, known_rank: np.ndarray, m: int
) -> tuple[np.ndarray, ...]:
    """Rank each row of a block among the distinct vectors answered before
    it, whose keys are ``known``, sorted, with the rank of each in
    ``known_rank``; the block's other vectors take ranks m, m + 1, ... in
    order of appearance.  Returns the rows' ranks, the block's distinct
    vectors' ranks, its new vectors, and where their keys and ranks go
    into ``known`` and ``known_rank``, with those keys and ranks."""
    b_first, b_rank = _unique_rows(block)
    keys = _keys(block)[b_first]
    by_key = np.argsort(keys)  # sorted keys are searchsorted's fast case
    keys = keys[by_key]
    pos = np.searchsorted(known, keys)
    seen = known[np.minimum(pos, known.size - 1)] == keys
    u_rank = np.empty(b_first.size, dtype=known_rank.dtype)
    u_rank[by_key[seen]] = known_rank[pos[seen]]
    fresh = np.sort(by_key[~seen])  # in order of appearance
    u_rank[fresh] = np.arange(m, m + fresh.size, dtype=u_rank.dtype)
    new = block[b_first[fresh]]
    return u_rank[b_rank], u_rank, new, pos[~seen], keys[~seen], u_rank[by_key[~seen]]


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
    source: EncodedDataset | EncodedStream,
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

    The source is a dataset or a stream with coded household ids
    (``EncodedStream(path, coded=True)``); the blocks of ``impute_blocks``
    are collected into per-sample arrays, as ``nearest_rows`` collects
    ``match_blocks``.
    """
    run, blocks = impute_blocks(
        source,
        candidate,
        impute_all=impute_all,
        tie_break=tie_break,
        seed=seed,
        household_weight=household_weight,
    )
    n = run.household_code.size
    sample_y = np.empty(n)
    target_index = np.empty(n, dtype=np.int32 if run.match.n_target < 2**31 else np.intp)
    hamming_count = np.empty(n, dtype=np.min_scalar_type(run.match.dimension))
    for rows, idx, cnt, y in blocks:
        target_index[rows] = idx
        hamming_count[rows] = cnt
        sample_y[rows] = y
    imputed_mask = np.ones(n, dtype=bool)
    if not impute_all:
        imputed_mask[run.observed] = False
    return ImputationResult(
        sample_y=sample_y,
        imputed_mask=imputed_mask,
        household_ids=run.households,
        household_y=run.household_y,
        weight=run.weight,
        assignment=MatchAssignment(
            **vars(run.match), target_index=target_index, hamming_count=hamming_count
        ),
    )


@dataclass
class Imputation:
    """An imputation whose rows come a block at a time (``impute_blocks``).

    All but the last two fields are known once the source is read;
    ``household_y`` and ``match`` count the blocks yielded so far.
    """

    households: np.ndarray  # the source's distinct ids, in first-appearance order
    household_code: np.ndarray  # (n,) int32, each source row's position among them
    observed: np.ndarray  # ascending source rows with an observed target
    weight: float  # w = |source| / |donor pool|
    n_donors: int  # rows of the donor pool
    n_imputed: int  # rows whose value is filled in
    household_y: np.ndarray  # (k,) float64, each household's sum over the rows so far
    match: MatchSummary


def impute_blocks(
    source: EncodedDataset | EncodedStream,
    candidate: EncodedDataset,
    *,
    augment: bool = False,
    impute_all: bool = False,
    tie_break: str = "index",
    seed: int | None = None,
    household_weight: bool = False,
) -> tuple[Imputation, Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]]:
    """``impute`` a block of source rows at a time.

    The source is read once, now: a stream's packed rows are made in one
    array, and of its targets only the observed ones are kept, with their
    rows.  A stream's row checks raise at the end of that read, before any
    match.  With ``augment`` the donor pool is the candidate followed by
    the source's labeled rows, as ``augment_candidate`` makes it, else the
    candidate alone; the buckets group that pool.  The returned iterator
    then matches ``_QUERY_BLOCK`` rows at a time (``match_blocks``) and
    yields, per block, its rows, their matched buckets and Hamming counts,
    and their values: the matched means divided by ``w`` or by each row's
    household size, with the observed targets copied in unless
    ``impute_all``.  Each block's values are added to ``household_y`` in
    row order, so the totals are bit-identical to one sum over all rows.
    """
    require_same_dictionary(source, candidate)
    if source.households is None:
        raise FusionError(
            f"{source.path}: impute needs the household ids coded: open the stream "
            "with EncodedStream(path, coded=True)"
        )
    n, d = source.n_samples, source.dictionary.dimension
    if isinstance(source, EncodedDataset):
        words, blocks = source.words, source.blocks()
    else:  # the stream's words are made in place, as load makes them
        words = np.empty((n, (d + 63) // 64), np.uint64)
        blocks = source.blocks((words, None))
    observed, observed_y, s = [np.empty(0, np.intp)], [np.empty(0)], 0
    for _, y in blocks:
        has = np.flatnonzero(~np.isnan(y))
        observed.append(s + has)
        observed_y.append(y[has])
        s += y.size
    observed, observed_y = np.concatenate(observed), np.concatenate(observed_y)
    pool_words, pool_y = candidate.words, candidate.y
    if augment and observed.size:
        pool_words = np.concatenate([pool_words, words[observed]])
        pool_y = np.concatenate([pool_y, observed_y])
    n_donors = pool_y.size
    if n_donors == 0:
        raise MatchError("candidate dataset is empty")
    buckets = _buckets(pool_words, pool_y, d)
    del pool_words, pool_y
    summary, matched = match_blocks(
        (words[s : s + _QUERY_BLOCK] for s in range(0, n, _QUERY_BLOCK)),
        buckets.words,
        dimension=d,
        tie_break=tie_break,
        seed=seed,
    )
    code, k = source.household_code, source.households.size
    run = Imputation(
        households=source.households,
        household_code=code,
        observed=observed,
        weight=n / n_donors,
        n_donors=n_donors,
        n_imputed=n if impute_all else n - observed.size,
        household_y=np.zeros(k),
        match=summary,
    )
    # each household's size, gathered per block from one k-long count
    divisor = index_sum(code, k) if household_weight else None

    def values():
        start = 0
        for target_index, hamming_count in matched:
            rows = slice(start, start + target_index.size)
            filled = buckets.y_mean[target_index]  # matched means, divided in place
            filled /= run.weight if divisor is None else divisor[code[rows]]
            if not impute_all:  # observed targets copied over the matched means
                a, b = np.searchsorted(observed, (rows.start, rows.stop))
                filled[observed[a:b] - start] = observed_y[a:b]
            np.add.at(run.household_y, code[rows], filled)
            yield rows, target_index, hamming_count, filled
            start = rows.stop

    return run, values()
