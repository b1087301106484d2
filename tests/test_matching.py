import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surveyfuse import (
    DataError,
    DictionaryMismatchError,
    DimensionError,
    FeatureDictionary,
    MatchError,
    augment_candidate,
    build_buckets,
    impute,
    nearest_rows,
)
from surveyfuse import matching
from surveyfuse.dataset import household_index, household_sums
from surveyfuse import dataset
from surveyfuse.dataset import pack_rows, unpack_rows
from conftest import make_dataset, random_one_hot
from oracles import (
    bucket_oracle,
    hamming,
    household_sum_oracle,
    nn_random_tie_oracle,
    nn_scan_oracle,
    pack_rows_padded_oracle,
)

bitvec = lambda d: arrays(np.uint8, (d,), elements=st.integers(0, 1))


def nearest(src, tgt, **kwargs):
    """``nearest_rows`` of two (n, d) 0/1 matrices, packed here."""
    src, tgt = np.asarray(src, np.uint8), np.asarray(tgt, np.uint8)
    return nearest_rows(pack_rows(src), pack_rows(tgt), dimension=src.shape[1], **kwargs)


class TestHamming:
    def test_half_differing(self):
        assert hamming(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 1])) == 0.5

    def test_identity(self):
        v = np.array([1, 0, 1])
        assert hamming(v, v) == 0.0

    def test_complement(self):
        assert hamming(np.ones(4, np.uint8), np.zeros(4, np.uint8)) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            hamming(np.array([1, 0]), np.array([1, 0, 1]))

    def test_empty_vectors(self):
        with pytest.raises(DimensionError):
            hamming(np.array([]), np.array([]))

    @given(bitvec(26), bitvec(26))
    def test_symmetry(self, a, b):
        assert hamming(a, b) == hamming(b, a)

    @given(bitvec(16), bitvec(16))
    def test_identity_of_indiscernibles(self, a, b):
        assert (hamming(a, b) == 0.0) == bool(np.array_equal(a, b))

    @given(bitvec(26), bitvec(26), bitvec(26))
    def test_triangle_inequality(self, a, b, c):
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c) + 1e-12

    @given(st.sampled_from([8, 26, 64]), st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_matches_packed_popcount(self, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, d, dtype=np.uint8)
        b = rng.integers(0, 2, d, dtype=np.uint8)
        pa, pb = pack_rows(a[None, :]), pack_rows(b[None, :])
        packed_count = int(np.bitwise_count(pa ^ pb).sum())
        assert hamming(a, b) == packed_count / d


class TestPackRows:
    @pytest.mark.parametrize("n", [0, 1, 37])
    @pytest.mark.parametrize("d", [1, 7, 8, 9, 26, 63, 64, 65, 130])
    def test_matches_padded_oracle(self, d, n):
        x = np.random.default_rng(d * 100 + n).integers(0, 2, (n, d), dtype=np.uint8)
        packed = pack_rows(x)
        assert packed.dtype == np.uint64 and packed.shape == (n, (d + 63) // 64)
        assert np.array_equal(packed, pack_rows_padded_oracle(x))

    @pytest.mark.parametrize("chunks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 0)])
    @pytest.mark.parametrize("d", [1, 26, 63, 64, 65, 130])
    def test_chunk_boundaries(self, d, chunks, extra):
        n = chunks * dataset._PACK_ROWS + extra
        x = np.random.default_rng(d * 7 + n).integers(0, 2, (n, d), dtype=np.uint8)
        packed = pack_rows(x)
        assert packed.dtype == np.uint64 and packed.shape == (n, (d + 63) // 64)
        assert np.array_equal(packed, pack_rows_padded_oracle(x))

    def test_memory_follows_the_words(self):
        """No (n, 64 * words) byte copy: 200k rows of d = 26 peak under 4 x n x 8 bytes."""
        n = 200_000
        x = np.random.default_rng(3).integers(0, 2, (n, 26), dtype=np.uint8)
        tracemalloc.start()
        try:
            packed = pack_rows(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert packed.shape == (n, 1)
        assert peak < 4 * n * 8, peak


class TestBlockCounts:
    """The one XOR-popcount kernel against unpacked ``!=`` sums, at every row width."""

    @pytest.mark.parametrize("d", [1, 26, 63, 64, 65, 128, 255, 256, 300])
    def test_matches_unpacked_counts(self, d):
        rng = np.random.default_rng(d)
        q = rng.integers(0, 2, (9, d), dtype=np.uint8)
        t = rng.integers(0, 2, (11, d), dtype=np.uint8)
        q[0], q[1], t[0] = 1, 0, 0  # all ones and all zeros against all zeros
        counts = matching._block_counts(pack_rows(q), pack_rows(t))
        assert counts.dtype == (np.uint8 if d <= 64 else np.int32)
        assert np.array_equal(counts, (q[:, None, :] != t[None, :, :]).sum(axis=2))
        assert counts[0, 0] == d and counts[1, 0] == 0  # a uint8 sum wraps d at 256

    def test_memory_is_one_word_deep(self):
        """No (rows x targets x words) XOR: a d = 300 block peaks below half its bytes."""
        t = pack_rows(np.random.default_rng(5).integers(0, 2, (1_000, 300), dtype=np.uint8))
        block = t[: matching._block_rows(t)].copy()
        tracemalloc.start()
        try:
            counts = matching._block_counts(block, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.shape == (block.shape[0], t.shape[0]) and t.shape[1] == 5
        assert peak < block.shape[0] * t.shape[0] * t.shape[1] * 8 // 2, peak


class TestBuildBuckets:
    def test_grouping_and_means(self, single_dictionary):
        ds = make_dataset(single_dictionary, [[0, 1], [0, 1], [1, 0]], [0, 2, 1])
        b = build_buckets(ds)
        assert len(b) == 2
        assert unpack_rows(b.words, b.dimension).tolist() == [[0, 1], [1, 0]]  # first occurrence
        assert b.member_count.tolist() == [2, 1]
        assert b.y_mean.tolist() == [1.0, 1.0]

    def test_all_distinct(self, single_dictionary):
        ds = make_dataset(single_dictionary, [[1, 0], [0, 1], [0, 0]], [1, 2, 3])
        assert len(build_buckets(ds)) == 3

    def test_all_identical(self, single_dictionary):
        ds = make_dataset(single_dictionary, [[1, 0]] * 4, [0, 1, 2, 3])
        b = build_buckets(ds)
        assert len(b) == 1
        assert b.y_mean[0] == 1.5

    def test_missing_target_rejected(self, single_dictionary):
        ds = make_dataset(single_dictionary, [[1, 0]], [np.nan])
        with pytest.raises(DataError, match="labeled"):
            build_buckets(ds)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariants_on_random_datasets(self, seed, pair_dictionary):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        x = random_one_hot(rng, pair_dictionary, n, missing_rate=0.2)
        y = rng.uniform(0, 5, n)
        ds = make_dataset(pair_dictionary, x, y)
        b = build_buckets(ds)
        ox, ocounts, omeans = bucket_oracle(x, y)
        assert b.member_count.sum() == n
        bucket_x = unpack_rows(b.words, b.dimension)
        assert np.array_equal(bucket_x, ox)
        assert b.member_count.tolist() == ocounts.tolist()
        np.testing.assert_allclose(b.y_mean, omeans, atol=1e-12)
        # inverse maps every sample back to a bucket with its own vector
        assert np.array_equal(bucket_x[b.inverse], x)


class TestNearestRows:
    def test_exact_match(self):
        idx, = nearest(
            np.array([[0, 1, 1, 0]], np.uint8),
            np.array([[0, 1, 1, 0], [1, 0, 0, 1]], np.uint8),
        ).target_index
        assert idx == 0

    def test_tie_breaks_to_smaller_index(self):
        # 0111 is at distance 1/4 from both 0110 and 0101
        a = nearest(
            np.array([[0, 1, 1, 1]], np.uint8),
            np.array([[0, 1, 1, 0], [0, 1, 0, 1]], np.uint8),
        )
        assert a.target_index[0] == 0
        assert a.distance[0] == 0.25

    def test_empty_targets(self):
        with pytest.raises(MatchError):
            nearest(np.zeros((1, 4), np.uint8), np.zeros((0, 4), np.uint8))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            nearest(np.zeros((1, 65), np.uint8), np.zeros((1, 4), np.uint8))
        with pytest.raises(DimensionError):
            nearest_rows(pack_rows(np.zeros((1, 4))), pack_rows(np.zeros((1, 65))), dimension=4)

    def test_rows_must_be_words(self):
        """No uint8 fork: 0/1 rows are refused, not packed here."""
        rows = np.zeros((1, 4), np.uint8)
        with pytest.raises(DimensionError, match="uint64 words"):
            nearest_rows(rows, pack_rows(rows), dimension=4)
        with pytest.raises(DimensionError, match="uint64 words"):
            nearest_rows(pack_rows(rows), rows, dimension=4)

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_equivalence_random(self, seed):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, 2, size=(50, 26), dtype=np.uint8)
        tgt = rng.integers(0, 2, size=(20, 26), dtype=np.uint8)
        a = nearest(src, tgt)
        oidx, odist = nn_scan_oracle(src, tgt)
        assert np.array_equal(a.target_index, oidx)
        np.testing.assert_allclose(a.distance, odist)

    @pytest.mark.parametrize("d", [8, 26, 64, 100])
    def test_oracle_equivalence_dimensions(self, d):
        rng = np.random.default_rng(d)
        src = rng.integers(0, 2, size=(40, d), dtype=np.uint8)
        tgt = rng.integers(0, 2, size=(15, d), dtype=np.uint8)
        a = nearest(src, tgt)
        oidx, odist = nn_scan_oracle(src, tgt)
        assert np.array_equal(a.target_index, oidx)
        np.testing.assert_allclose(a.distance, odist)

    @pytest.mark.parametrize("d", [8, 100])
    def test_results_do_not_depend_on_block_height(self, d, monkeypatch):
        rng = np.random.default_rng(20 + d)
        src = rng.integers(0, 2, size=(300, d), dtype=np.uint8)
        tgt = rng.integers(0, 2, size=(40, d), dtype=np.uint8)
        kw = [dict(tie_break="index"), dict(tie_break="random", seed=3)]
        default = [nearest(src, tgt, **k) for k in kw]
        monkeypatch.setattr(matching, "_SCAN_BUFFER_BYTES", 1)  # one row per block
        assert matching._block_rows(pack_rows(tgt)) == 1
        for k, base in zip(kw, default):
            a = nearest(src, tgt, **k)
            assert np.array_equal(a.target_index, base.target_index)
            assert np.array_equal(a.distance, base.distance)

    def test_block_height_bounds_scan_buffer(self):
        for n_targets, d in [(1, 26), (3_672, 26), (40_000, 26), (10**7, 26), (500, 130)]:
            t_packed = np.broadcast_to(np.uint64(0), (n_targets, (d + 63) // 64))
            rows = matching._block_rows(t_packed)
            assert rows >= 1
            assert rows == 1 or rows * t_packed.nbytes <= matching._SCAN_BUFFER_BYTES

    @pytest.mark.parametrize("seed", range(4))
    def test_random_tie_break_matches_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        src = rng.integers(0, 2, size=(80, 8), dtype=np.uint8)
        tgt = rng.integers(0, 2, size=(12, 8), dtype=np.uint8)
        tgt = np.vstack([tgt, tgt[[0, 3, 3, 7]]])  # duplicate target rows tie exactly
        a = nearest(src, tgt, tie_break="random", seed=seed)
        assert np.array_equal(a.target_index, nn_random_tie_oracle(src, tgt, seed))

    def test_random_tie_break_reproducible_and_valid(self):
        rng = np.random.default_rng(5)
        src = rng.integers(0, 2, size=(40, 8), dtype=np.uint8)
        tgt = rng.integers(0, 2, size=(10, 8), dtype=np.uint8)
        a = nearest(src, tgt, tie_break="random", seed=42)
        b = nearest(src, tgt, tie_break="random", seed=42)
        assert np.array_equal(a.target_index, b.target_index)
        # still optimal: same distances as the index rule
        base = nearest(src, tgt)
        np.testing.assert_allclose(a.distance, base.distance)
        # d=8 with 10 targets has plenty of ties; some seed disagreement expected
        c = nearest(src, tgt, tie_break="random", seed=43)
        assert not np.array_equal(a.target_index, c.target_index)

    def test_random_tie_break_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            nearest(np.zeros((1, 4), np.uint8), np.ones((1, 4), np.uint8),
                    tie_break="random")

    def test_duplicate_queries_share_assignment(self):
        src = np.array([[0, 1, 1, 0]] * 3 + [[1, 1, 1, 1]], np.uint8)
        tgt = np.array([[0, 1, 1, 0], [1, 1, 1, 1]], np.uint8)
        a = nearest(src, tgt)
        assert a.target_index.tolist() == [0, 0, 0, 1]


class TestDuplicateTargets:
    """Targets repeating a few vectors: the scan runs over unique targets only."""

    @staticmethod
    def instance(d, seed):
        rng = np.random.default_rng(seed)
        distinct = rng.integers(0, 2, size=(10, d), dtype=np.uint8)
        if d > 64:  # pairs equal in the first packed word, different past it
            distinct[5:] = distinct[:5]
            distinct[5:, -1] ^= 1
        tgt = distinct[rng.permutation(np.arange(120) % 10)]  # 12 copies each, shuffled
        src = rng.integers(0, 2, size=(150, d), dtype=np.uint8)
        src[:60] = distinct[rng.integers(0, 10, 60)]  # exact matches tie among copies
        return src, tgt

    @pytest.mark.parametrize("one_row_blocks", [False, True])
    @pytest.mark.parametrize("variant", [1, 2])
    @pytest.mark.parametrize("d", [26, 100])
    def test_matches_unpacked_oracles(self, d, variant, one_row_blocks, monkeypatch):
        src, tgt = self.instance(d, 7 * d + variant)
        if one_row_blocks:
            monkeypatch.setattr(matching, "_SCAN_BUFFER_BYTES", 1)
            assert matching._block_rows(pack_rows(tgt[:10])) == 1
        a = nearest(src, tgt)
        oidx, odist = nn_scan_oracle(src, tgt)
        assert np.array_equal(a.target_index, oidx)
        assert np.array_equal(a.distance, odist)
        assert a.n_unique_target == 10
        r = nearest(src, tgt, tie_break="random", seed=d)
        assert np.array_equal(r.target_index, nn_random_tie_oracle(src, tgt, d))
        assert np.array_equal(r.distance, odist)
        assert not np.array_equal(r.target_index, a.target_index)

    @pytest.mark.parametrize("one_row_blocks", [False, True])
    @pytest.mark.parametrize("variant", [1, 2])
    @pytest.mark.parametrize("tie_break", ["index", "random"])
    def test_one_scan_per_block(self, tie_break, variant, one_row_blocks, monkeypatch):
        src, tgt = self.instance(26, 4 + variant)
        if one_row_blocks:
            monkeypatch.setattr(matching, "_SCAN_BUFFER_BYTES", 1)
        rows = matching._block_rows(pack_rows(np.unique(tgt, axis=0)))
        block_counts = matching._block_counts
        heights = []

        def counted(block, t_packed):
            heights.append(block.shape[0])
            return block_counts(block, t_packed)

        monkeypatch.setattr(matching, "_block_counts", counted)
        a = nearest(src, tgt, tie_break=tie_break, seed=1)
        scanned = a.n_unique_query - a.n_exact_query - a.n_near_query  # the joins answer the rest
        assert 0 < a.n_exact_query < a.n_unique_query
        assert len(heights) == -(-scanned // rows)
        assert sum(heights) == scanned

    @pytest.mark.parametrize("d", [26, 64, 65, 100])
    def test_unique_rows_first_occurrence(self, d):
        src, tgt = self.instance(d, d)
        x = np.vstack([tgt, src])
        first, inverse = matching._unique_rows(pack_rows(x))
        seen: dict[bytes, int] = {}
        for row in x:
            seen.setdefault(row.tobytes(), len(seen))
        groups = [seen[row.tobytes()] for row in x]
        assert inverse.tolist() == groups
        assert first.tolist() == [groups.index(g) for g in range(len(seen))]

    def test_reports_unique_counts(self):
        src = np.array([[0, 1, 1, 0]] * 3 + [[1, 1, 1, 1]], np.uint8)
        tgt = np.array([[1, 1, 1, 1], [0, 1, 1, 0], [1, 1, 1, 1], [0, 1, 1, 0]], np.uint8)
        a = nearest(src, tgt)
        assert a.target_index.tolist() == [1, 1, 1, 0]
        assert (a.n_unique_query, a.n_unique_target, a.n_exact_query) == (2, 2, 2)
        assert a.distance_histogram.tolist() == [4, 0, 0, 0, 0]
        assert a.diagnostics() == {
            "query_rows": 4, "target_rows": 4, "unique_query_rows": 2,
            "unique_target_rows": 2, "n_exact_query": 2, "n_near_query": 0,
            "distance_histogram": [4, 0, 0, 0, 0],
        }


    def test_d26_match_sorts_packed_keys(self, monkeypatch):
        """At d = 26 every dedup of a matching is the packed sort, not ``np.unique``."""
        src, tgt = self.instance(26, 11)
        oidx, odist = nn_scan_oracle(src, tgt)
        rand = nn_random_tie_oracle(src, tgt, 3)

        def no_unique(*_, **__):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", no_unique)
        a = nearest(src, tgt)
        r = nearest(src, tgt, tie_break="random", seed=3)
        monkeypatch.undo()
        assert np.array_equal(a.target_index, oidx) and np.array_equal(a.distance, odist)
        assert np.array_equal(r.target_index, rand)
        assert (a.n_target, a.n_unique_target) == (120, 10)


def join_instance(d, mode, seed):
    """Targets with repeated copies, and queries of which all, none or about
    half are identical to a target vector."""
    rng = np.random.default_rng(seed)
    pool = np.unique(rng.integers(0, 2, size=(16, d), dtype=np.uint8), axis=0)
    pool = pool[rng.permutation(len(pool))]
    if d == 1:
        pool = np.array([[0], [1]], np.uint8)
    n_t = max(1, len(pool) // 2)
    t_vecs, others = pool[:n_t], pool[n_t:]
    if d > 64:  # equal to a target in the first packed word, different past it
        others = t_vecs.copy()
        others[:, -1] ^= 1
    assert not (others[:, None, :] == t_vecs[None, :, :]).all(axis=2).any()
    tgt = np.vstack([t_vecs, t_vecs[rng.integers(0, n_t, 30)]])
    tgt = tgt[rng.permutation(len(tgt))]
    same = tgt[rng.integers(0, len(tgt), 60)]
    new = others[rng.integers(0, len(others), 60)]
    src = {"all": same, "none": new, "mixed": np.where(rng.random((60, 1)) < 0.5, same, new)}[mode]
    n_exact = len({row.tobytes() for row in src} & {row.tobytes() for row in tgt})
    return src, tgt, n_exact


class TestExactJoin:
    """Unique queries identical to a unique target are answered without a scan,
    with the same answers as the unpacked oracles under both tie rules."""

    @pytest.mark.parametrize("one_row_blocks", [False, True])
    @pytest.mark.parametrize("variant", [1, 2])
    @pytest.mark.parametrize("d", [1, 26, 64, 65, 130])
    @pytest.mark.parametrize("mode", ["all", "none", "mixed"])
    def test_matches_unpacked_oracles(self, mode, d, variant, one_row_blocks, monkeypatch):
        src, tgt, n_exact = join_instance(d, mode, 31 * d + variant)
        if one_row_blocks:
            monkeypatch.setattr(matching, "_SCAN_BUFFER_BYTES", 1)
        a = nearest(src, tgt)
        oidx, odist = nn_scan_oracle(src, tgt)
        assert np.array_equal(a.target_index, oidx)
        assert np.array_equal(a.distance, odist)
        assert a.n_exact_query == n_exact
        if mode == "all":
            assert n_exact == a.n_unique_query
        elif mode == "none":
            assert n_exact == 0
        else:
            assert 0 < n_exact < a.n_unique_query
        assert a.distance_histogram.sum() == len(src)
        assert a.distance_histogram[0] == np.count_nonzero(odist == 0.0)
        r = nearest(src, tgt, tie_break="random", seed=d)
        assert np.array_equal(r.target_index, nn_random_tie_oracle(src, tgt, d))
        assert np.array_equal(r.distance, odist)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 70),
        n_distinct=st.integers(1, 6),
        copies=st.lists(st.integers(1, 5), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_ties_among_zero_distance_copies(self, d, n_distinct, copies, seed):
        rng = np.random.default_rng(seed)
        vecs = np.unique(rng.integers(0, 2, size=(n_distinct, d), dtype=np.uint8), axis=0)
        tgt = np.repeat(vecs, copies[: len(vecs)], axis=0)
        tgt = tgt[rng.permutation(len(tgt))]
        src = np.vstack([tgt[rng.integers(0, len(tgt), 20)],
                         rng.integers(0, 2, size=(5, d), dtype=np.uint8)])
        r = nearest(src, tgt, tie_break="random", seed=seed)
        assert np.array_equal(r.target_index, nn_random_tie_oracle(src, tgt, seed))
        assert (tgt[r.target_index[:20]] == src[:20]).all()
        assert r.n_exact_query >= 1


def unpacked_distances(q, t):
    """(queries x targets) Hamming counts by elementwise comparison."""
    return (q[:, None, :] != t[None, :, :]).sum(axis=2)


def near_instance(d, mode, seed):
    """Targets with repeated copies; queries identical to a target, plus
    queries of which all, none or about half are one bit from a target.
    Several near queries are one bit from two distinct targets."""
    rng = np.random.default_rng(seed)
    if d == 1:
        t_vecs, near, far = np.array([[0]], np.uint8), np.array([[1]], np.uint8), None
    else:
        base = rng.integers(0, 2, size=(6, d), dtype=np.uint8)
        bits = np.array([rng.choice(d, 2, replace=False) for _ in range(6)])
        partner = base.copy()
        partner[np.arange(6), bits[:, 0]] ^= 1
        partner[np.arange(6), bits[:, 1]] ^= 1
        t_vecs = np.unique(np.vstack([base, partner]), axis=0)
        near = base.copy()  # one bit from base and from partner
        near[np.arange(6), bits[:, 0]] ^= 1
        more = t_vecs[rng.integers(0, len(t_vecs), 20)]
        flip = np.concatenate([[0, d - 1], rng.integers(0, d, 18)])  # first and last bit too
        more[np.arange(20), flip] ^= 1
        near = np.vstack([near, more])
        far = rng.integers(0, 2, size=(40, d), dtype=np.uint8)
        near = near[unpacked_distances(near, t_vecs).min(axis=1) == 1]
        far = far[unpacked_distances(far, t_vecs).min(axis=1) >= 2]
    tgt = np.vstack([t_vecs, t_vecs[rng.integers(0, len(t_vecs), 30)]])
    tgt = tgt[rng.permutation(len(tgt))]
    exact = tgt[rng.integers(0, len(tgt), 20)]

    def pick(rows, k):  # exact copies where small d leaves no such vector
        rows = exact if rows is None or not len(rows) else rows
        return rows[rng.integers(0, len(rows), k)]

    src = {
        "all": np.vstack([exact, pick(near, 40)]),
        "none": np.vstack([exact, pick(far, 40)]),
        "mixed": np.vstack([exact, pick(near, 20), pick(far, 20)]),
    }[mode]
    return src[rng.permutation(len(src))], tgt


def check_near_join(src, tgt, seed):
    """Both tie rules against the unpacked oracles, and the join's query count."""
    a = nearest(src, tgt)
    oidx, odist = nn_scan_oracle(src, tgt)
    assert np.array_equal(a.target_index, oidx)
    assert np.array_equal(a.distance, odist)
    r = nearest(src, tgt, tie_break="random", seed=seed)
    assert np.array_equal(r.target_index, nn_random_tie_oracle(src, tgt, seed))
    assert np.array_equal(r.distance, odist)
    d = src.shape[1]
    near = len({row.tobytes() for row in src[odist * d == 1]}) if d <= 64 else 0
    assert a.n_near_query == r.n_near_query == near
    assert a.n_exact_query + a.n_near_query <= a.n_unique_query
    assert a.distance_histogram.sum() == len(src)
    return a, odist


class TestNearJoin:
    """At d <= 64, unique queries one bit from a unique target are answered by
    a join before the scan, with the same answers as the unpacked oracles
    under both tie rules; wider rows are all scanned."""

    @pytest.mark.parametrize("one_row_blocks", [False, True])
    @pytest.mark.parametrize("variant", [1, 2])
    @pytest.mark.parametrize("d", [1, 26, 63, 64, 65, 130])
    @pytest.mark.parametrize("mode", ["all", "none", "mixed"])
    def test_matches_unpacked_oracles(self, mode, d, variant, one_row_blocks, monkeypatch):
        src, tgt = near_instance(d, mode, 17 * d + variant)
        if one_row_blocks:
            monkeypatch.setattr(matching, "_SCAN_BUFFER_BYTES", 1)
        a, odist = check_near_join(src, tgt, d)
        non_exact = a.n_unique_query - a.n_exact_query
        if d > 64:
            assert a.n_near_query == 0
        elif mode == "none":
            assert a.n_near_query == 0
        elif mode == "all" or d == 1:  # at d = 1 every other vector is one bit away
            assert 0 < a.n_near_query == non_exact
        else:
            assert 0 < a.n_near_query < non_exact
        if mode != "none" and d > 1:  # some query is one bit from two distinct targets
            at_one = unpacked_distances(src, np.unique(tgt, axis=0)) == 1
            assert at_one.sum(axis=1).max() >= 2

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3, 8, 26, 63, 64, 65]),
        mode=st.sampled_from(["all", "none", "mixed"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property(self, d, mode, seed):
        src, tgt = near_instance(d, mode, seed)
        check_near_join(src, tgt, seed % 1000)

    @pytest.mark.parametrize("tie_break", ["index", "random"])
    def test_no_scan_when_every_query_is_near(self, tie_break, monkeypatch):
        src, tgt = near_instance(26, "all", 5)

        def no_scan(*_, **__):
            raise AssertionError("_block_counts called")

        expected = nearest(src, tgt, tie_break=tie_break, seed=2)
        oidx, _ = nn_scan_oracle(src, tgt)
        monkeypatch.setattr(matching, "_block_counts", no_scan)
        a = nearest(src, tgt, tie_break=tie_break, seed=2)
        assert a.n_near_query == a.n_unique_query - a.n_exact_query > 0
        assert np.array_equal(a.target_index, expected.target_index)
        if tie_break == "index":
            assert np.array_equal(a.target_index, oidx)

    def test_memory_does_not_grow_with_the_queries(self):
        """Blocked flips: beyond its output, the join's peak stays within a few
        scan buffers, the same at 50k and 200k scanned queries of d = 26."""
        rng = np.random.default_rng(8)
        t_keys = np.unique(rng.integers(0, 1 << 26, 2_000, dtype=np.uint64))
        extra = []
        for n in (50_000, 200_000):
            q_keys = t_keys[rng.integers(0, t_keys.size, n)] ^ (
                np.uint64(1) << rng.integers(0, 26, n, dtype=np.uint64)
            )
            tracemalloc.start()
            try:
                order = np.argsort(t_keys)
                nearest, _ = matching._near_join(q_keys, order, t_keys[order], 26, False)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (nearest < t_keys.size).all()
            extra.append(peak - nearest.nbytes)
        assert max(extra) < 8 * matching._SCAN_BUFFER_BYTES, extra
        assert extra[1] < extra[0] + matching._SCAN_BUFFER_BYTES // 4, extra


    @pytest.mark.parametrize("ties", [False, True])
    def test_a_block_fits_the_scan_buffer(self, ties):
        """A block's flips, their positions, the keys found there, the miss
        mask and the hits are sized together: beyond the output, the sorted
        target keys and the tie pairs, the join's peak is under one buffer
        (about 4.5 buffers when the block was sized from the flips alone)."""
        rng = np.random.default_rng(31)
        t_keys = np.unique(rng.integers(0, 1 << 26, 2_000, dtype=np.uint64))
        q_keys = rng.integers(0, 1 << 26, 100_000, dtype=np.uint64)
        tracemalloc.start()
        try:
            order = np.argsort(t_keys)
            nearest, pairs = matching._near_join(q_keys, order, t_keys[order], 26, ties)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = nearest.nbytes + 16 * t_keys.size + sum(q.nbytes + t.nbytes for q, t in pairs)
        assert bool(pairs) == ties
        assert peak - held < matching._SCAN_BUFFER_BYTES, (peak - held) / matching._SCAN_BUFFER_BYTES

class TestQueryBlocks:
    """Query rows matched ``_QUERY_BLOCK`` at a time give the one-block
    answers, diagnostics included, at every block size."""

    @staticmethod
    def instance(d, seed):
        """Exact copies, one-bit neighbours and far rows of duplicated
        targets, then 20 repeats of earlier queries, so later blocks meet
        vectors answered in earlier ones."""
        src, tgt = near_instance(d, "mixed", seed)
        rng = np.random.default_rng(seed)
        return np.vstack([src, src[rng.integers(0, len(src), 20)]]), tgt

    @pytest.mark.parametrize("tie_break", ["index", "random"])
    @pytest.mark.parametrize("d", [26, 100])
    def test_every_block_size(self, d, tie_break, monkeypatch):
        src, tgt = self.instance(d, 3 * d)
        n = len(src)
        if tie_break == "index":
            expected = nn_scan_oracle(src, tgt)[0]
        else:
            expected = nn_random_tie_oracle(src, tgt, d)
        one = nearest(src, tgt, tie_break=tie_break, seed=d)
        assert n < matching._QUERY_BLOCK and np.array_equal(one.target_index, expected)
        answer = matching._answer
        answered = []

        def counted(o_packed, *args):
            answered.append(o_packed.shape[0])
            return answer(o_packed, *args)

        monkeypatch.setattr(matching, "_answer", counted)
        for rows in range(1, n + 2):
            monkeypatch.setattr(matching, "_QUERY_BLOCK", rows)
            answered.clear()
            a = nearest(src, tgt, tie_break=tie_break, seed=d)
            assert len(answered) == -(-n // rows)
            # every distinct vector equal to no target is answered once
            assert sum(answered) == a.n_unique_query - a.n_exact_query
            assert np.array_equal(a.target_index, expected), rows
            assert np.array_equal(a.hamming_count, one.hamming_count), rows
            assert a.diagnostics() == one.diagnostics(), rows

    @pytest.mark.parametrize("tie_break", ["index", "random"])
    def test_memory_follows_the_block(self, tie_break):
        """200k query rows of d = 26 against 8k targets, repeating the
        targets and 3k one-bit neighbours: beyond the 5-byte-a-row output,
        the peak is one block's dedup (about 40 bytes a row of the block
        and of the distinct vectors, with its temporaries) and 1 MB.  One
        dedup over every query row held 13 bytes a query row more."""
        rng = np.random.default_rng(12)
        n = 200_000
        t = rng.integers(0, 1 << 26, (8_000, 1), dtype=np.uint64)
        flip = np.uint64(1) << rng.integers(0, 26, (3_000, 1), dtype=np.uint64)
        pool = np.vstack([t, t[rng.integers(0, t.shape[0], 3_000)] ^ flip])
        q = pool[rng.integers(0, pool.shape[0], n)]
        tracemalloc.start()
        try:
            a = nearest_rows(q, t, dimension=26, tie_break=tie_break, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        distinct = a.n_unique_target + a.n_unique_query - a.n_exact_query
        block = 40 * (matching._QUERY_BLOCK + distinct)
        assert a.n_unique_query - a.n_exact_query == a.n_near_query > 2_900
        assert peak < 5 * n + block + (1 << 20), (peak - 5 * n - block) / (1 << 20)


class TestAssignmentPerRow:
    """Five bytes per query row at d <= 255: an int32 target row and the
    Hamming count in the smallest unsigned type that holds d."""

    @staticmethod
    def instance(d, seed):
        """Copies of targets, one-bit flips of them and random rows; target 3
        is all zeros."""
        rng = np.random.default_rng(seed)
        tgt = rng.integers(0, 2, (15, d), dtype=np.uint8)
        tgt[3] = 0
        src = rng.integers(0, 2, (60, d), dtype=np.uint8)
        src[:20] = tgt[rng.integers(0, 15, 20)]
        src[20:40] = tgt[rng.integers(0, 15, 20)]
        src[np.arange(20, 40), rng.integers(0, d, 20)] ^= 1
        return src, tgt

    @pytest.mark.parametrize("tie_break", ["index", "random"])
    @pytest.mark.parametrize("d", [1, 26, 64, 65, 255, 256, 300])
    def test_counts_match_brute_force(self, d, tie_break):
        src, tgt = self.instance(d, d)
        a = nearest(src, tgt, tie_break=tie_break, seed=4)
        counts = (src[:, None, :] != tgt[None, :, :]).sum(axis=2)
        best = counts.min(axis=1)
        assert a.target_index.dtype == np.int32
        assert a.hamming_count.dtype == np.min_scalar_type(d)
        assert a.hamming_count.dtype == (np.uint8 if d <= 255 else np.uint16)
        assert np.array_equal(a.hamming_count, best)
        assert np.array_equal(counts[np.arange(src.shape[0]), a.target_index], best)
        assert a.distance.tobytes() == (best / d).tobytes()  # bit-equal float64, not close
        ones = nearest(np.ones((1, d), np.uint8), tgt[3:4], tie_break=tie_break, seed=4)
        assert ones.hamming_count.tolist() == [d]  # 256 would wrap to 0 in uint8

    def test_dedup_makes_one_copy_of_the_keys(self):
        """200k single-word queries repeating 2k targets: a block's dedup
        holds its sort buffer (8 bytes a row), group starts (1) and int32
        ranks (4), and no second uint64 copy of the keys.  The assignment
        keeps 5 bytes a query row."""
        rng = np.random.default_rng(9)
        n = 200_000
        t = rng.integers(0, 1 << 26, (2_000, 1), dtype=np.uint64)
        q = t[rng.integers(0, t.shape[0], n)]
        for tie_break in ("index", "random"):
            tracemalloc.start()
            try:
                a = nearest_rows(q, t, dimension=26, tie_break=tie_break, seed=1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 24 * (n + t.shape[0]), (tie_break, peak)
            assert a.target_index.nbytes + a.hamming_count.nbytes == 5 * n

    def test_non_repeating_queries_hold_narrow_indices(self):
        """200k random d = 26 queries against 2k targets, almost none repeated
        or one bit from a target: each unique query's target, count and scan
        position are held as int32, uint8 and int32 (intp and int64 took the
        peak to 79 bytes a query row), and each block is ranked alone against
        the sorted keys answered before it, so the peak stays under 45 bytes
        a query row (38.5 here).  Ranking each block together with every
        vector answered before it peaked at 58."""
        rng = np.random.default_rng(54)
        n = 200_000
        t = rng.integers(0, 1 << 26, (2_000, 1), dtype=np.uint64)
        q = rng.integers(0, 1 << 26, (n, 1), dtype=np.uint64)
        tracemalloc.start()
        try:
            a = nearest_rows(q, t, dimension=26)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert a.n_unique_query > 0.99 * n and a.n_near_query < 0.01 * n
        assert peak < 45 * n, peak / n
        rows = rng.integers(0, n, 500)  # against a brute-force scan
        counts = np.bitwise_count(q[rows] ^ t[:, 0])
        assert np.array_equal(a.target_index[rows], np.argmin(counts, axis=1))
        assert np.array_equal(a.hamming_count[rows], counts.min(axis=1))


class TestNearestNeighborBuckets:
    def test_assignment_invariants(self, pair_dictionary):
        rng = np.random.default_rng(2)
        cand = make_dataset(
            pair_dictionary,
            random_one_hot(rng, pair_dictionary, 30),
            rng.uniform(0, 3, 30),
        )
        src = make_dataset(
            pair_dictionary,
            random_one_hot(rng, pair_dictionary, 100),
            np.full(100, np.nan),
        )
        buckets = build_buckets(cand)
        a = nearest_rows(src.words, buckets.words, dimension=buckets.dimension)
        bucket_x = unpack_rows(buckets.words, buckets.dimension)
        assert a.n == 100  # total assignment
        for i in range(100):
            got = hamming(src.x[i], bucket_x[a.target_index[i]])
            assert got == a.distance[i]
            best = min(hamming(src.x[i], bx) for bx in bucket_x)
            assert a.distance[i] == best


def hand_instance(pair_dictionary):
    """5 donors in 3 buckets; 10 query samples; w = 2."""
    a, b, g, t = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]
    candidate = make_dataset(
        pair_dictionary,
        [a, a, b, g, b],
        [2, 4, 3, 5, 1],
        household_ids=[f"c{i}" for i in range(5)],
    )
    # buckets (first occurrence): B0=a (mean 3), B1=b (mean 2), B2=g (mean 5);
    # t is at distance 1/4 from all three
    source = make_dataset(
        pair_dictionary,
        [a, a, a, b, b, b, g, g, t, t],
        [7] + [np.nan] * 9,
        household_ids=["h0", "h0", "h1", "h1", "h2", "h2", "h3", "h3", "h4", "h4"],
    )
    return source, candidate


class TestImpute:
    def test_hand_computed_values_impute_all(self, pair_dictionary):
        source, candidate = hand_instance(pair_dictionary)
        res = impute(source, candidate, impute_all=True)
        assert res.weight == 2.0
        # bucket means / w, three-way tie on t resolved to B0
        expected = [1.5, 1.5, 1.5, 1.0, 1.0, 1.0, 2.5, 2.5, 1.5, 1.5]
        np.testing.assert_allclose(res.sample_y, expected)
        assert res.household_totals() == pytest.approx(
            {"h0": 3.0, "h1": 2.5, "h2": 2.0, "h3": 5.0, "h4": 3.0}
        )

    def test_default_keeps_observed(self, pair_dictionary):
        source, candidate = hand_instance(pair_dictionary)
        res = impute(source, candidate)
        assert res.sample_y[0] == 7.0  # observed value kept, not divided by w
        assert res.imputed_mask.tolist() == [False] + [True] * 9
        assert res.household_totals()["h0"] == pytest.approx(7.0 + 1.5)

    def test_household_sums_match_oracle(self, pair_dictionary):
        source, candidate = hand_instance(pair_dictionary)
        res = impute(source, candidate, impute_all=True)
        oracle = household_sum_oracle(source.household_ids, res.sample_y)
        assert res.household_totals() == pytest.approx(oracle)

    def test_self_imputation_identity(self, single_dictionary):
        # all samples sharing an x share y -> household totals reproduced exactly
        ds = make_dataset(
            single_dictionary,
            [[1, 0], [1, 0], [0, 1], [0, 0]],
            [2, 2, 3, 1],
            household_ids=["h0", "h1", "h0", "h2"],
        )
        res = impute(ds, ds, impute_all=True)
        assert res.weight == 1.0
        assert res.household_totals() == pytest.approx(ds.household_totals(), abs=1e-9)

    def test_weight_is_sample_ratio(self, pair_dictionary):
        source, candidate = hand_instance(pair_dictionary)
        assert impute(source, candidate).weight == source.n_samples / candidate.n_samples

    def test_imputed_values_nonnegative(self, single_dictionary):
        rng = np.random.default_rng(4)
        cand = make_dataset(
            single_dictionary,
            random_one_hot(rng, single_dictionary, 40),
            rng.uniform(0, 6, 40),
        )
        src = make_dataset(
            single_dictionary,
            random_one_hot(rng, single_dictionary, 200),
            np.full(200, np.nan),
        )
        res = impute(src, cand, impute_all=True)
        assert (res.sample_y >= 0).all()

    def test_dictionary_mismatch(self, single_dictionary, pair_dictionary):
        src = make_dataset(single_dictionary, [[1, 0]], [np.nan])
        cand = make_dataset(pair_dictionary, [[1, 0, 0, 1]], [1.0])
        with pytest.raises(DictionaryMismatchError):
            impute(src, cand)

    def test_unlabeled_candidate_rejected(self, single_dictionary):
        src = make_dataset(single_dictionary, [[1, 0]], [np.nan])
        cand = make_dataset(single_dictionary, [[1, 0]], [np.nan])
        with pytest.raises(DataError):
            impute(src, cand)

    def test_all_zero_rows_match_normally(self, single_dictionary):
        src = make_dataset(single_dictionary, [[0, 0]], [np.nan])
        cand = make_dataset(single_dictionary, [[0, 1], [0, 0]], [4.0, 8.0])
        res = impute(src, cand, impute_all=True)
        assert res.assignment.target_index[0] == 1  # exact all-zero bucket
        assert res.assignment.distance[0] == 0.0

    def test_household_weight_variant(self, pair_dictionary):
        source, candidate = hand_instance(pair_dictionary)
        res = impute(source, candidate, impute_all=True, household_weight=True)
        # every household has 2 samples: each sample gets bucket mean / 2,
        # so the household total is the mean of its matched bucket means
        assert res.household_totals()["h0"] == pytest.approx(3.0)
        assert res.household_totals()["h3"] == pytest.approx(5.0)

    def test_augment_candidate_builds_union(self, pair_dictionary):
        source, candidate = hand_instance(pair_dictionary)
        union = augment_candidate(source, candidate)
        assert union.n_samples == candidate.n_samples + 1  # one labeled source sample
        assert union.n_missing == 0

    def test_augment_without_labeled_is_identity(self, single_dictionary):
        src = make_dataset(single_dictionary, [[1, 0]], [np.nan])
        cand = make_dataset(single_dictionary, [[0, 1]], [1.0])
        assert augment_candidate(src, cand) is cand


class TestHouseholdSums:
    @given(st.lists(st.tuples(st.integers(0, 5), st.floats(0, 10)), min_size=1, max_size=50))
    def test_matches_oracle(self, pairs):
        ids = np.array([f"h{p[0]}" for p in pairs])
        y = np.array([p[1] for p in pairs])
        households, code = household_index(ids)
        got_ids, got_totals = household_sums(households, y, code)
        oracle = household_sum_oracle(ids, y)
        assert {str(i): t for i, t in zip(got_ids, got_totals)} == pytest.approx(oracle)
