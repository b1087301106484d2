import io
import json
import math
import re
import struct
import tempfile
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from surveyfuse import (
    DataError,
    DictionaryMismatchError,
    DimensionError,
    EncodedDataset,
    FeatureDictionary,
    FusionError,
    concat_datasets,
)
from surveyfuse import dataset
from surveyfuse.cli import EXIT_DATA, main
from surveyfuse.dataset import (
    bit_mask, first_occurrence, household_index, pack_rows, unpack_rows,
)
from conftest import make_dataset, npy_claiming, random_one_hot
from oracles import (
    first_occurrence_unique_oracle,
    household_sum_oracle,
    one_hot_error_oracle,
    pack_rows_padded_oracle,
    save_writestr_oracle,
)


class TestConstruction:
    def test_shape_mismatch(self, single_dictionary):
        with pytest.raises(DimensionError):
            make_dataset(single_dictionary, [[1, 0, 0]], [1.0])

    def test_negative_target(self, single_dictionary):
        with pytest.raises(DataError):
            make_dataset(single_dictionary, [[1, 0]], [-1.0])

    def test_nan_targets_allowed(self, single_dictionary):
        ds = make_dataset(single_dictionary, [[1, 0], [0, 1]], [np.nan, 2.0])
        assert ds.n_missing == 1
        assert ds.labeled().n_samples == 1

    def test_two_bits_in_a_group_rejected(self, pair_dictionary):
        with pytest.raises(DataError, match="x row 1: feature 'B' has more than one bit"):
            make_dataset(pair_dictionary, [[1, 0, 0, 1], [0, 1, 1, 1]], [1.0, 2.0])

    @pytest.mark.parametrize(
        "x", [[[2, 0]], [[0, 255]], np.array([[256, 0]]), np.array([[0.5, 0.0]])],
        ids=["2", "255", "256-wraps-to-0", "0.5-truncates-to-0"],
    )
    def test_x_values_outside_0_1_rejected(self, single_dictionary, x):
        with pytest.raises(DataError, match="x values must be 0 or 1"):
            EncodedDataset(single_dictionary, "t", 2017, ["h"], x, [1.0])

    def test_bool_x_accepted(self, single_dictionary):
        ds = EncodedDataset(single_dictionary, "t", 2017, ["h"], np.array([[True, False]]), [1.0])
        assert ds.x.tolist() == [[1, 0]]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_target_rejected(self, single_dictionary, bad):
        with pytest.raises(DataError, match="finite"):
            make_dataset(single_dictionary, [[1, 0], [0, 1]], [1.0, bad])

    def test_subset_and_concat_revalidate(self, single_dictionary):
        ds = make_dataset(single_dictionary, [[1, 0], [0, 1]], [1.0, 2.0])
        ds.words[1, 0] |= np.uint64(1)  # corrupted after construction: row 1 two-hot
        with pytest.raises(DataError):
            ds.subset([1])
        with pytest.raises(DataError):
            concat_datasets([ds], survey_id="c", year=2017)


class TestHouseholdTotals:
    def test_totals_match_oracle(self, single_dictionary):
        rng = np.random.default_rng(3)
        n = 64
        ids = [f"h{int(i)}" for i in rng.integers(0, 10, n)]
        y = rng.uniform(0, 4, n)
        ds = make_dataset(single_dictionary, [[1, 0]] * n, y, household_ids=ids)
        assert ds.household_totals() == pytest.approx(household_sum_oracle(ids, y))

    def test_first_appearance_order(self, single_dictionary):
        ds = make_dataset(
            single_dictionary, [[1, 0]] * 3, [1, 2, 3], household_ids=["z", "a", "z"]
        )
        assert list(ds.household_totals()) == ["z", "a"]

    def test_missing_targets_rejected(self, single_dictionary):
        ds = make_dataset(single_dictionary, [[1, 0]], [np.nan])
        with pytest.raises(DataError, match="missing"):
            ds.household_totals()

    def test_household_index(self):
        household_ids = np.array(["z", "a", "z", "m", "a", "q"])
        ids, position = household_index(household_ids)
        assert ids.tolist() == ["z", "a", "m", "q"]
        assert position.tolist() == [0, 1, 0, 2, 1, 3]
        assert household_index(household_ids.tolist())[0].tolist() == ids.tolist()


class TestPersistence:
    def test_round_trip(self, tmp_path, pair_dictionary):
        ds = make_dataset(
            pair_dictionary,
            [[1, 0, 0, 1], [0, 0, 1, 0]],
            [1.5, np.nan],
            household_ids=["hh1", "hh2"],
        )
        path = tmp_path / "ds.enc"
        ds.save(path)
        back = EncodedDataset.load(path)
        assert back.dictionary == ds.dictionary
        assert back.survey_id == ds.survey_id and back.year == ds.year
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.household_ids, ds.household_ids)
        assert np.array_equal(np.isnan(back.y), np.isnan(ds.y))
        assert back.y[0] == ds.y[0]

    def test_save_is_byte_deterministic(self, tmp_path, pair_dictionary):
        ds = make_dataset(pair_dictionary, [[1, 0, 0, 1]], [2.0])
        p1, p2 = tmp_path / "a.enc", tmp_path / "b.enc"
        ds.save(p1)
        ds.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_garbage_file_rejected(self, tmp_path):
        p = tmp_path / "bad.enc"
        p.write_bytes(b"not a dataset")
        with pytest.raises(FusionError):
            EncodedDataset.load(p)

    @pytest.mark.parametrize(
        "corrupt", ["two-hot", "x=3", "y=inf"],
    )
    def test_load_rejects_invalid_contents(self, tmp_path, pair_dictionary, corrupt):
        ds = make_dataset(pair_dictionary, [[1, 0, 0, 1], [0, 1, 0, 0]], [2.0, 1.0])
        if corrupt == "two-hot":
            ds.words[1, 0] |= np.uint64(1)  # row 1 becomes [1, 1, 0, 0]
        elif corrupt == "y=inf":
            ds.y[1] = np.inf
        p = tmp_path / "ds.enc"
        ds.save(p)  # save writes what it holds; load is the boundary
        if corrupt == "x=3":  # no packed row holds a 3, so the member is rewritten
            x = ds.x
            x[0, 2] = 3
            rewrite_member(p, "x.npy", npy(x))
        with pytest.raises(DataError):
            EncodedDataset.load(p)

    def test_tampered_dictionary_hash_detected(self, tmp_path, pair_dictionary):
        import json
        import zipfile

        ds = make_dataset(pair_dictionary, [[1, 0, 0, 1]], [2.0])
        p = tmp_path / "ds.enc"
        ds.save(p)
        with zipfile.ZipFile(p) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        meta = json.loads(members["meta.json"])
        meta["dictionary"]["features"][0]["name"] = "Tampered"
        members["meta.json"] = json.dumps(meta).encode()
        with zipfile.ZipFile(p, "w") as zf:
            for name, blob in members.items():
                zf.writestr(name, blob)
        with pytest.raises(DictionaryMismatchError):
            EncodedDataset.load(p)


def dictionary_26() -> FeatureDictionary:
    """Six features of 5, 5, 4, 4, 4 and 4 categories: d = 26, as in the paper."""
    sizes = (5, 5, 4, 4, 4, 4)
    return FeatureDictionary(
        features=tuple("ABCDEF"),
        categories=tuple(tuple(f"c{j}" for j in range(k)) for k in sizes),
    )


def households_dataset(n: int, seed: int = 0) -> EncodedDataset:
    """``n`` samples of d = 26 in households of three, some targets missing."""
    rng = np.random.default_rng(seed)
    dictionary = dictionary_26()
    y = rng.integers(0, 4, n).astype(np.float64)
    y[rng.random(n) < 0.3] = np.nan
    ids = [f"hh{i // 3:07d}" for i in range(n)]
    return make_dataset(dictionary, random_one_hot(rng, dictionary, n), y, household_ids=ids)


def as_keys(values: list[int], kind: str) -> np.ndarray:
    """The same grouping of keys as str, bytes, uint64 or two-word void records.

    Str and bytes keys are zero-padded, so they ascend wherever the values do.
    """
    v = np.asarray(values, dtype=np.uint64)
    if kind == "str":
        return np.array([f"k{int(i):03d}" for i in v], dtype=np.str_)
    if kind == "bytes":
        return np.array([b"k%03d" % int(i) for i in v], dtype=np.bytes_)
    if kind == "uint64":
        return v * np.uint64(2**40 + 1)
    words = np.stack([v % np.uint64(3), v], axis=1)
    return np.ascontiguousarray(words).view(np.dtype((np.void, 16))).ravel()


def takes_packed_sort(keys: np.ndarray) -> bool:
    """Whether integer keys' span and row index fit together in 64 bits."""
    if keys.dtype.kind not in "iu" or not keys.size:
        return False
    span = int(keys.max()) - int(keys.min())
    return span.bit_length() + (keys.size - 1).bit_length() <= 64


class TestFirstOccurrence:
    """Run collapsing before ``np.unique`` against one ``np.unique`` over all keys."""

    @staticmethod
    def check(keys: np.ndarray) -> None:
        first, rank = first_occurrence(keys)
        want_first, want_rank = first_occurrence_unique_oracle(keys)
        assert first.tolist() == want_first.tolist()
        assert rank.tolist() == want_rank.tolist()
        # the packed sort ranks in int32, the other paths in the oracle's intp
        want_rank_dtype = np.int32 if takes_packed_sort(keys) else want_rank.dtype
        assert first.dtype == want_first.dtype and rank.dtype == want_rank_dtype

    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4)), max_size=30),
        st.booleans(),
        st.sampled_from(["str", "uint64", "void"]),
    )
    def test_matches_unique_oracle(self, runs, grouped, kind):
        # grouped: each key in one run, as household samples arrive;
        # otherwise the runs' keys repeat and interleave
        if grouped:
            runs = [(i, length) for i, (_, length) in enumerate(runs)]
        values = [key for key, length in runs for _ in range(length)]
        self.check(as_keys(values, kind))

    @given(
        st.lists(st.integers(1, 4), max_size=30),
        st.sampled_from(["str", "bytes", "uint64", "void"]),
        st.booleans(),
    )
    def test_ascending_runs_match_unique_oracle(self, lengths, kind, late_descent):
        """Keys in non-decreasing order, as household ids arrive, answered from
        their runs; one key that repeats an earlier run at the very end breaks
        the order, and the general path must merge it into that run's group."""
        values = [key for key, length in enumerate(lengths) for _ in range(length)]
        if late_descent and len(lengths) > 1:
            values.append(len(lengths) // 2 - 1)
        self.check(as_keys(values, kind))

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=12),
        st.integers(2, 12),
        st.sampled_from(["str", "bytes"]),
        st.integers(1, 3),
    )
    def test_order_is_tested_across_run_blocks(self, lengths, descent, kind, block):
        """The order test compares run keys ``_RUN_BLOCK`` runs at a time: a
        run that repeats the key of the run two before it, below its
        predecessor's, is found at any run, on a block boundary or not."""
        run_keys = list(range(len(lengths)))
        if descent < len(run_keys):
            run_keys[descent] = run_keys[descent - 2]
        values = [key for key, length in zip(run_keys, lengths) for _ in range(length)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "_RUN_BLOCK", block)
            self.check(as_keys(values, kind))

    @pytest.mark.parametrize("kind", ["str", "bytes", "uint64", "void"])
    @pytest.mark.parametrize(
        "values", [[], [5], [5, 5, 5], [1, 2, 1, 2], [3, 3, 1, 1, 3], [1, 1, 2, 2, 3, 3, 1]]
    )
    def test_edge_cases(self, values, kind):
        self.check(as_keys(values, kind))

    @pytest.mark.parametrize("kind", ["str", "bytes", "void"])
    @pytest.mark.parametrize("values", [[1, 1, 2, 3, 3, 3], [1, 1, 2, 3, 3, 2]])
    def test_only_unordered_keys_reach_unique(self, values, kind, monkeypatch):
        """Ascending str and bytes keys need no ``np.unique``; a descending pair
        sends them to it, and void keys, which have no order, always go."""
        keys = as_keys(values, kind)
        want_first, want_rank = first_occurrence_unique_oracle(keys)
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
        first, rank = first_occurrence(keys)
        monkeypatch.undo()
        assert bool(calls) == (kind == "void" or values != sorted(values))
        assert first.tolist() == want_first.tolist() and rank.tolist() == want_rank.tolist()

    def test_ascending_keys_memory_stays_below_the_run_keys(self, monkeypatch):
        """200k ascending household ids in 70k runs: no ``np.unique``, and the
        peak beyond the two outputs stays below one copy of the run keys."""
        rng = np.random.default_rng(70)
        n, runs = 200_000, 70_000
        group = np.zeros(n, dtype=np.intp)
        group[rng.choice(np.arange(1, n), runs - 1, replace=False)] = 1
        names = np.array([f"h{i:07d}" for i in range(runs)], dtype=np.str_)
        keys = names[np.cumsum(group)]
        want_first, want_rank = first_occurrence_unique_oracle(keys)

        def no_unique(*_, **__):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", no_unique)
        tracemalloc.start()
        try:
            first, rank = first_occurrence(keys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert np.array_equal(first, want_first) and np.array_equal(rank, want_rank)
        run_keys = runs * keys.itemsize
        assert peak - first.nbytes - rank.nbytes < run_keys, (peak, run_keys)


class TestPackedFirstOccurrence:
    """Integer keys whose span and row index fit in 64 bits take one packed
    (key, row) sort; the rest take ``np.unique``.  Both against the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        dtype=st.sampled_from(["int64", "uint64", "int32", "uint8"]),
        span_bits=st.integers(0, 64),
        data=st.data(),
    )
    def test_integer_keys_match_unique_oracle(self, dtype, span_bits, data):
        info = np.iinfo(dtype)
        span = min(2**span_bits - 1, int(info.max) - int(info.min))
        low = data.draw(st.integers(int(info.min), int(info.max) - span))
        pool = data.draw(st.lists(st.integers(low, low + span), min_size=1, max_size=6))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
        TestFirstOccurrence.check(np.array([pool[i] for i in picks], dtype=dtype))

    @pytest.mark.parametrize(
        "values, dtype",
        [
            ([], "int64"),
            ([-7], "int64"),
            ([-3, -3, -3, -3], "int64"),
            ([-5, 2**40, -5, -2**62, 0, 2**40], "int64"),
            ([2**63, 2**64 - 1, 2**63, 5, 2**64 - 1], "uint64"),
            ([2**64 - 1] * 3, "uint64"),
        ],
    )
    def test_edge_cases(self, values, dtype):
        TestFirstOccurrence.check(np.array(values, dtype=dtype))

    @pytest.mark.parametrize("dtype", ["int64", "uint64"])
    @pytest.mark.parametrize("n, span_bits", [(2, 63), (2, 64), (5, 61), (5, 62)])
    def test_64_bit_boundary(self, n, span_bits, dtype, monkeypatch):
        """Span bits plus row-index bits of 64 take the packed sort, of 65 ``np.unique``."""
        high = int(np.iinfo(dtype).max)
        low = high - (2**span_bits - 1)
        keys = np.array([high, low, high, low + 1, high][:n], dtype=dtype)
        want_first, want_rank = first_occurrence_unique_oracle(keys)
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
        first, rank = first_occurrence(keys)
        monkeypatch.undo()
        assert bool(calls) == (span_bits + (n - 1).bit_length() > 64)
        assert first.tolist() == want_first.tolist() and rank.tolist() == want_rank.tolist()
        assert first.dtype == want_first.dtype
        assert rank.dtype == (want_rank.dtype if calls else np.int32)

    def test_packed_covariate_rows_take_the_packed_sort(self, monkeypatch):
        """d = 26 rows packed into one word need no ``np.unique``."""
        from surveyfuse.dataset import pack_rows

        rng = np.random.default_rng(26)
        distinct = rng.integers(0, 2, size=(300, 26), dtype=np.uint8)
        keys = pack_rows(distinct[rng.integers(0, 300, 50_000)])[:, 0]
        want_first, want_rank = first_occurrence_unique_oracle(keys)

        def no_unique(*_, **__):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", no_unique)
        first, rank = first_occurrence(keys)
        monkeypatch.undo()
        assert np.array_equal(first, want_first) and np.array_equal(rank, want_rank)


    def test_packed_sort_memory_per_key(self):
        """300k packed d = 26 rows with 20k distinct values: one sorted buffer,
        a group-start flag and the int32 ranks, under 22 bytes a key at the
        peak (a uint32 row index and intp ranks took it to 23; an n-long
        ``arange`` for the OR and ``repeat`` before the scatter to 36)."""
        rng = np.random.default_rng(26)
        distinct = rng.integers(0, 2**26, 20_000).astype(np.uint64)
        keys = distinct[rng.integers(0, distinct.size, 300_000)]
        want_first, want_rank = first_occurrence_unique_oracle(keys)
        tracemalloc.start()
        try:
            first, rank = first_occurrence(keys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(first, want_first) and np.array_equal(rank, want_rank)
        assert peak < 22 * keys.size, peak / keys.size


class TestStreamedArtifact:
    @pytest.mark.parametrize("n", [0, 1, 7, 5000])
    def test_save_writes_the_writestr_bytes(self, tmp_path, n):
        ds = households_dataset(n, seed=n)
        ds.save(tmp_path / "streamed.enc")
        save_writestr_oracle(ds, tmp_path / "whole.enc")
        assert (tmp_path / "streamed.enc").read_bytes() == (tmp_path / "whole.enc").read_bytes()
        back = EncodedDataset.load(tmp_path / "streamed.enc")
        assert back.dictionary == ds.dictionary
        assert (back.survey_id, back.year) == (ds.survey_id, ds.year)
        assert np.array_equal(back.household_ids, ds.household_ids)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y, equal_nan=True)

    def test_write_size_does_not_change_bytes(self, tmp_path, monkeypatch):
        ds = households_dataset(3000, seed=5)
        save_writestr_oracle(ds, tmp_path / "whole.enc")
        for size in (1, 7, 4096):
            monkeypatch.setattr(dataset, "_WRITE_BYTES", size)
            ds.save(tmp_path / f"{size}.enc")
            assert (tmp_path / f"{size}.enc").read_bytes() == (tmp_path / "whole.enc").read_bytes()

    @pytest.mark.parametrize("size", [1, 7, 4096])
    def test_read_size_does_not_change_the_dataset(self, tmp_path, monkeypatch, size):
        """Rows are read in blocks of ``_READ_BYTES``: any block size gives
        back the same dataset, saved to the same bytes."""
        ds = households_dataset(3000, seed=5)
        ds.save(tmp_path / "a.enc")
        monkeypatch.setattr(dataset, "_READ_BYTES", size)
        EncodedDataset.load(tmp_path / "a.enc").save(tmp_path / "b.enc")
        assert (tmp_path / "a.enc").read_bytes() == (tmp_path / "b.enc").read_bytes()

    def test_load_memory_follows_the_arrays(self, tmp_path):
        """Members are read in blocks, not as whole ``bytes`` objects, the ids
        are coded block by block as they are read, and the construction
        checks run a block at a time: loading 200k rows peaks below the
        arrays the dataset keeps (codes, distinct ids, packed x and y) plus
        1 MB.

        The kept arrays are 6.4 MB here.  Reading the per-sample ``<U9`` ids
        whole before coding them, 7.2 MB, took the peak to 12.1 MB."""
        path = tmp_path / "big.enc"
        households_dataset(200_000, seed=1).save(path)
        tracemalloc.start()
        try:
            ds = EncodedDataset.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = ds.household_code.nbytes + ds.households.nbytes + ds.words.nbytes + ds.y.nbytes
        assert peak < kept + (1 << 20), (peak, kept)

    def test_x_is_packed_as_it_is_read(self, tmp_path):
        """``x.npy`` is packed block by block as ``_read_array`` reads it:
        beyond the words it returns, reading 200k rows of d = 26 peaks below
        a third of the 5.2 MB uint8 matrix, which is never whole."""
        path = tmp_path / "big.enc"
        ds = households_dataset(200_000, seed=1)
        ds.save(path)
        with zipfile.ZipFile(path) as zf:
            tracemalloc.start()
            try:
                words = dataset._read_array(zf, path, "x.npy", ds.n_samples, ds.dictionary.dimension)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert np.array_equal(words, ds.words)
        assert peak - words.nbytes < ds.n_samples * ds.dictionary.dimension // 3, peak


@st.composite
def packed_cases(draw):
    """A dictionary of d bits whose feature groups never end at bit 64, so
    that above 64 bits one group straddles the word boundary, and up to 40
    rows, one-hot or with stray bits."""
    d = draw(st.sampled_from([1, 26, 63, 64, 65, 100, 300]))
    cuts = st.sets(st.integers(1, d - 1).filter(lambda c: c != 64), max_size=12)
    cuts = draw(cuts) if d > 1 else ()
    edges = [0, *sorted(cuts), d]
    dictionary = FeatureDictionary(
        features=tuple(f"F{i}" for i in range(len(edges) - 1)),
        categories=tuple(tuple(f"c{j}" for j in range(b - a)) for a, b in zip(edges, edges[1:])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    x = random_one_hot(rng, dictionary, n, missing_rate=0.3)
    if n and draw(st.booleans()):  # a few stray bits, which may make a group two-hot
        stray = rng.integers(0, n, 3)
        x[stray, rng.integers(0, d, 3)] = 1
    return dictionary, x


class TestPackedRows:
    """Covariates are held as packed words; each word path against its uint8 form."""

    @settings(max_examples=60, deadline=None)
    @given(case=packed_cases())
    def test_pack_unpack_round_trip(self, case):
        dictionary, x = case
        d = dictionary.dimension
        words = pack_rows(x)
        assert words.dtype == np.uint64 and words.shape == (x.shape[0], (d + 63) // 64)
        assert np.array_equal(words, pack_rows_padded_oracle(x))
        assert np.array_equal(unpack_rows(words, d), x)
        assert unpack_rows(words, d).dtype == np.uint8

    @settings(max_examples=60, deadline=None)
    @given(case=packed_cases())
    def test_one_hot_check_on_words_names_what_the_uint8_check_named(self, case):
        dictionary, x = case
        n = x.shape[0]
        want = one_hot_error_oracle(x, dictionary)
        ids = [f"h{i}" for i in range(n)]
        for given_as in ({"x": x}, {"words": pack_rows(x)}):
            if want is None:
                ds = EncodedDataset(dictionary, "t", 2017, ids, y=np.ones(n), **given_as)
                assert np.array_equal(ds.x, x)
            else:
                with pytest.raises(DataError, match=f"^{re.escape(want)}$"):
                    EncodedDataset(dictionary, "t", 2017, ids, y=np.ones(n), **given_as)

    @settings(max_examples=25, deadline=None)
    @given(case=packed_cases())
    def test_enc_save_load_save_is_byte_identical(self, case):
        dictionary, x = case
        assume(one_hot_error_oracle(x, dictionary) is None)
        n = x.shape[0]
        ids = [f"h{i // 2}" for i in range(n)]
        ds = make_dataset(dictionary, x, np.arange(n) % 4.0, household_ids=ids)
        with tempfile.TemporaryDirectory() as tmp:
            first, again, whole = (Path(tmp) / f"{k}.enc" for k in ("first", "again", "whole"))
            ds.save(first)
            back = EncodedDataset.load(first)
            back.save(again)
            save_writestr_oracle(ds, whole)  # x.npy as the whole n x d uint8 array
            assert first.read_bytes() == again.read_bytes() == whole.read_bytes()
        assert np.array_equal(back.words, ds.words) and np.array_equal(back.x, x)

    @pytest.mark.parametrize(
        "words, error, match",
        [
            (np.zeros((2, 1), dtype=np.int64), DimensionError, "uint64"),
            (np.zeros((2, 2), dtype=np.uint64), DimensionError, r"\(2, 1\) uint64"),
            (np.zeros((1, 1), dtype=np.uint64), DimensionError, r"\(2, 1\) uint64"),
            (np.array([[1], [1 << 4]], dtype=np.uint64), DataError, "zero past bit 4"),
            (np.array([[1], [1 << 63]], dtype=np.uint64), DataError, "zero past bit 4"),
            (np.array([[1], [0b11]], dtype=np.uint64), DataError, "x row 1: feature 'A'"),
        ],
    )
    def test_words_are_checked(self, pair_dictionary, words, error, match):
        with pytest.raises(error, match=match):
            EncodedDataset(pair_dictionary, "t", 2017, ["a", "b"], y=[1.0, 2.0], words=words)

    @pytest.mark.parametrize("bits", [2, 255, 256, 257, 300])
    def test_a_group_across_words_counts_past_255(self, bits):
        """A 300-bit group spans five words; a row with 256 of its bits set
        is two-hot, though 256 wraps to 0 in the uint8 of one word's count."""
        dictionary = FeatureDictionary(("F",), (tuple(f"c{j}" for j in range(300)),))
        x = np.zeros((2, 300), dtype=np.uint8)
        x[0, 0] = 1
        x[1, :bits] = 1
        with pytest.raises(DataError, match="^x row 1: feature 'F' has more than one bit set$"):
            EncodedDataset(dictionary, "t", 2017, ["a", "b"], y=[1.0, 2.0], words=pack_rows(x))

    @pytest.mark.parametrize("given_as", [{}, {"x": [[1, 0]], "words": [[1]]}])
    def test_x_or_words_exactly_once(self, single_dictionary, given_as):
        with pytest.raises(TypeError, match="one of x and words"):
            EncodedDataset(single_dictionary, "t", 2017, ["a"], y=[1.0], **given_as)

    def test_bit_mask_straddles_words(self):
        assert bit_mask(60, 70, 100).tolist() == [0b1111 << 60, 0b111111]
        assert bit_mask(0, 64, 64).tolist() == [2**64 - 1]
        assert bit_mask(3, 3, 10).tolist() == [0]

    def test_no_hot_path_unpacks_x(self, tmp_path, monkeypatch):
        """Once loaded, impute, synthesis, describe and attribution work on the
        words: none of them unpacks x, except that attribution unpacks the
        rows it evaluates, once."""
        from surveyfuse import (
            BucketMeanPredictor, attribute_dataset, augment_candidate, describe,
            generate_future, impute,
        )
        import surveyfuse

        for name, seed, n in [("source", 1, 900), ("candidate", 2, 300)]:
            ids = random_ids("shuffled", n, np.random.default_rng(seed))
            ids_dataset(ids, seed=seed).save(tmp_path / f"{name}.enc")
        source = EncodedDataset.load(tmp_path / "source.enc")
        candidate = EncodedDataset.load(tmp_path / "candidate.enc").labeled()
        unpacked = []

        def refuse(words, d):
            raise AssertionError(f"{words.shape[0]} rows of x unpacked on a hot path")

        def chosen_only(words, d):
            assert words.shape[0] == 7, words.shape
            unpacked.append(words.shape[0])
            return unpack_rows(words, d)

        modules = [m for m in vars(surveyfuse).values() if hasattr(m, "unpack_rows")]
        assert dataset in modules
        for module in modules:
            monkeypatch.setattr(module, "unpack_rows", refuse)
        impute(source, augment_candidate(source, candidate))
        generate_future(source, source, candidate)
        generate_future(source.labeled(), source, candidate, tie_break="random", seed=3)
        describe(source)
        predictor = BucketMeanPredictor(candidate)
        for module in modules:
            monkeypatch.setattr(module, "unpack_rows", chosen_only)
        attribute_dataset(source, predictor, sample_limit=7, seed=1)
        assert unpacked == [7]

    def test_distinct_ids_are_not_counted_again(self, tmp_path, monkeypatch):
        """``load``, ``subset`` and ``concat_datasets`` hand over ids distinct
        by construction, which are not counted in a set again; households
        given by a caller are."""
        ids = random_ids("shuffled", 600, np.random.default_rng(4))
        ids_dataset(ids, seed=4).save(tmp_path / "shuffled.enc")
        counted = []
        monkeypatch.setattr(dataset, "set", lambda it: counted.append(1) or set(it), raising=False)
        ds = EncodedDataset.load(tmp_path / "shuffled.enc")
        concat_datasets([ds.subset(np.arange(599, -1, -2)), ds.labeled()], "both", 2017)
        assert counted == []
        EncodedDataset(
            ds.dictionary, "t", 2017, households=ds.households,
            household_code=ds.household_code, words=ds.words, y=ds.y,
        )
        assert counted == [1]


def random_ids(kind: str, n: int, rng) -> np.ndarray:
    """Per-sample household ids of one shape, about three samples a household."""
    k = np.arange(n) // 3
    if kind == "ascending":
        return np.array([f"h{i:05d}" for i in k], dtype=np.str_)
    if kind == "shuffled":
        return rng.permutation(np.array([f"h{i:05d}" for i in k], dtype=np.str_))
    if kind == "non-ascii":
        return np.array([f"hé{i % 11}✓ü" for i in rng.permutation(k)], dtype=np.str_)
    if kind == "unequal-length":
        return np.array(["h" * int(1 + i % 9) + str(i % 4) for i in rng.permutation(k)])
    if kind == "wide-dtype":  # declared wider than any id
        return np.array([f"h{i % 5}" for i in k], dtype="<U12")
    assert kind == "single-household"
    return np.full(n, "only", dtype=np.str_)


ID_KINDS = ["ascending", "shuffled", "non-ascii", "unequal-length", "wide-dtype", "single-household"]


def ids_dataset(ids: np.ndarray, seed: int = 0) -> EncodedDataset:
    rng = np.random.default_rng(seed)
    dictionary = dictionary_26()
    y = rng.integers(0, 4, ids.size).astype(np.float64)
    y[rng.random(ids.size) < 0.4] = np.nan
    return make_dataset(dictionary, random_one_hot(rng, dictionary, ids.size), y, household_ids=ids)


class TestCodedHouseholds:
    """Ids are held as distinct ids plus int32 codes; the ``.enc`` file holds
    the per-sample ids exactly as a per-sample array would be written."""

    def check_bytes(self, tmp_path, ds, ids):
        save_writestr_oracle(ds, tmp_path / "expected.enc", household_ids=ids)
        ds.save(tmp_path / "saved.enc")
        expected = (tmp_path / "expected.enc").read_bytes()
        assert (tmp_path / "saved.enc").read_bytes() == expected
        EncodedDataset.load(tmp_path / "saved.enc").save(tmp_path / "again.enc")
        assert (tmp_path / "again.enc").read_bytes() == expected

    def check_codes(self, ds, ids):
        first, rank = first_occurrence_unique_oracle(ids)
        assert ds.households.dtype == ids.dtype
        assert ds.households.tolist() == ids[first].tolist()
        assert ds.household_code.dtype == np.int32
        assert ds.household_code.tolist() == rank.tolist()
        assert ds.n_households() == first.size
        assert np.array_equal(ds.household_ids, ids)

    @pytest.mark.parametrize("kind", ID_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 50, 3001])
    def test_save_writes_the_per_sample_ids(self, tmp_path, kind, n):
        ids = random_ids(kind, n, np.random.default_rng(n))
        ds = ids_dataset(ids, seed=n)
        self.check_codes(ds, ids)
        self.check_bytes(tmp_path, ds, ids)

    def test_empty_dataset(self, tmp_path):
        ids = np.array([], dtype=np.str_)
        ds = ids_dataset(ids)
        assert ds.households.dtype == np.dtype("<U1") and ds.n_households() == 0
        self.check_bytes(tmp_path, ds, ids)

    @pytest.mark.parametrize("kind", ID_KINDS)
    def test_subset_labeled_and_concat_keep_the_id_itemsize(self, tmp_path, kind):
        rng = np.random.default_rng(3)
        ids = random_ids(kind, 300, rng)
        ds = ids_dataset(ids, seed=1)
        picks = {
            "subset": rng.integers(0, ids.size, 120),  # repeats and any order
            "labeled": np.flatnonzero(~ds.missing_mask),
            "none": np.zeros(0, dtype=np.intp),
            "empty list": [],  # float64 as an array, yet no rows
            "short ids only": np.flatnonzero(np.char.str_len(ids) == np.char.str_len(ids).min()),
        }
        for name, idx in picks.items():
            part = ds.labeled() if name == "labeled" else ds.subset(idx)
            self.check_codes(part, ids[idx])
            self.check_bytes(tmp_path, part, ids[idx])
        other = random_ids("unequal-length", 90, rng)
        parts = [ds, ids_dataset(other, seed=2), ds.subset(np.arange(40, 10, -1))]
        stacked = np.concatenate([ids, other, ids[40:10:-1]])
        both = concat_datasets(parts, survey_id=ds.survey_id, year=ds.year)
        self.check_codes(both, stacked)
        self.check_bytes(tmp_path, both, stacked)

    def test_coded_input_is_kept(self, single_dictionary):
        households = np.array(["z", "a", "m"])
        ds = EncodedDataset(
            single_dictionary, "t", 2017, x=[[1, 0]] * 4, y=[1.0, 2.0, 3.0, 4.0],
            households=households, household_code=np.array([0, 1, 0, 2], dtype=np.int64),
        )
        assert ds.household_code.dtype == np.int32
        assert ds.household_ids.tolist() == ["z", "a", "z", "m"]
        assert ds.household_totals() == {"z": 4.0, "a": 2.0, "m": 4.0}

    @pytest.mark.parametrize(
        "households, code",
        [
            (["a", "b"], [1, 0]),  # not in order of first appearance
            (["a", "b", "c"], [0, 2, 1]),
            (["a", "b"], [0, 0]),  # a household without samples
            (["a"], [0, 1]),  # out of range
            (["a", "b"], [0, -1]),
            (["a"], []),
            (["h", "h"], [0, 1]),  # a repeated household: its samples' totals would merge
            (["b", "a", "c", "a"], [0, 1, 2, 3]),
        ],
    )
    def test_bad_codes_rejected(self, single_dictionary, households, code):
        with pytest.raises(DataError, match="household"):
            EncodedDataset(
                single_dictionary, "t", 2017, x=[[1, 0]] * len(code), y=[1.0] * len(code),
                households=households, household_code=np.array(code, dtype=np.int64),
            )

    def test_a_repeated_household_is_named(self, single_dictionary):
        with pytest.raises(DataError, match="^households must be distinct, but 'h' repeats$"):
            EncodedDataset(
                single_dictionary, "t", 2017, x=[[1, 0]] * 5, y=[1.0] * 5,
                households=["z", "h", "a", "h", "z"], household_code=np.arange(5),
            )

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"households": ["a"], "household_code": [[0]]}, DimensionError),
            ({"households": [["a"]], "household_code": [0]}, DimensionError),
            ({"household_ids": [["a"]]}, DimensionError),
            ({"households": ["a"], "household_code": [0.0]}, DataError),
            ({"household_ids": ["a"], "households": ["a"], "household_code": [0]}, TypeError),
            ({"households": ["a"]}, TypeError),
            ({}, TypeError),
        ],
    )
    def test_bad_id_arguments_rejected(self, single_dictionary, kwargs, error):
        with pytest.raises(error):
            EncodedDataset(single_dictionary, "t", 2017, x=[[1, 0]], y=[1.0], **kwargs)

    def test_no_hot_path_codes_the_ids_again(self, tmp_path, monkeypatch):
        """Once loaded, impute, synthesis, attribution and describe read the
        codes: none of them derives the households from the id strings."""
        from surveyfuse import (
            BucketMeanPredictor, attribute_dataset, augment_candidate, baseline_mean_impute,
            describe, generate_future, impute,
        )
        import surveyfuse

        for name, seed, n in [("source", 1, 900), ("candidate", 2, 300)]:
            ids = random_ids("shuffled", n, np.random.default_rng(seed))
            ids_dataset(ids, seed=seed).save(tmp_path / f"{name}.enc")
        source = EncodedDataset.load(tmp_path / "source.enc")
        candidate = EncodedDataset.load(tmp_path / "candidate.enc").labeled()

        def refuse(*_):
            raise AssertionError("household ids coded again from their strings")

        for module in vars(surveyfuse).values():
            if hasattr(module, "household_index"):
                monkeypatch.setattr(module, "household_index", refuse)
        result = impute(source, augment_candidate(source, candidate), household_weight=True)
        assert result.household_ids is source.households
        baseline_mean_impute(source)
        synth = generate_future(source, source, candidate)
        assert 0 < len(synth.covered_households) <= candidate.n_households()
        attribute_dataset(source, BucketMeanPredictor(candidate.labeled()), sample_limit=5, seed=1)
        assert describe(source)["n_households"] == source.households.size


@st.composite
def id_runs(draw) -> np.ndarray:
    """Per-sample ids as runs of 1 to 6 equal ids, drawn from a few ids of
    mixed widths, not all ASCII, so that an id can come back after others."""
    pool = draw(st.lists(st.text("aZé✓𝄞", min_size=1, max_size=4), min_size=1, max_size=5,
                         unique=True))
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 6)), max_size=25))
    return np.array([h for h, k in runs for _ in range(k)], dtype=np.str_)


class TestIdCoder:
    """``_code_ids``, fed block by block by ``load`` and the constructor,
    against ``household_index`` on the whole id array."""

    @given(ids=id_runs(), rows=st.sampled_from([1, 2, 3, 7, 64]))
    @example(ids=np.array([], dtype=np.str_), rows=1)
    @example(ids=np.array(["é✓"]), rows=1)
    @example(ids=np.array(["b", "b", "a", "a", "b", "𝄞", "b"]), rows=2)  # b comes back
    @example(ids=np.array(["a", "b", "b", "b", "c"]), rows=2)  # a run straddles blocks
    @settings(max_examples=150, deadline=None)
    def test_coded_blocks_match_household_index(self, ids, rows):
        want_households, want_code = household_index(ids)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            # the constructor's slices and load's reads both take ``rows`` ids a block
            mp.setattr(dataset, "_READ_BYTES", rows * ids.itemsize)
            built = ids_dataset(ids, seed=ids.size)
            built.save(Path(tmp) / "a.enc")
            loaded = EncodedDataset.load(Path(tmp) / "a.enc")
            loaded.save(Path(tmp) / "b.enc")
            assert (Path(tmp) / "a.enc").read_bytes() == (Path(tmp) / "b.enc").read_bytes()
        for ds in (built, loaded):
            assert ds.households.dtype == want_households.dtype
            assert ds.households.tolist() == want_households.tolist()
            assert ds.household_code.dtype == np.int32
            assert ds.household_code.tolist() == want_code.tolist()


def rewrite_member(path, name: str, blob: bytes | None) -> None:
    """Replace (or, with ``None``, drop) one member of a saved ``.enc``."""
    with zipfile.ZipFile(path) as zf:
        members = {n: zf.read(n) for n in zf.namelist()}
    if blob is None:
        del members[name]
    else:
        members[name] = blob
    with zipfile.ZipFile(path, "w") as zf:
        for member, data in members.items():
            zf.writestr(member, data)


def npy(arr) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.asarray(arr))
    return buf.getvalue()


def read_member(path, name: str) -> bytes:
    with zipfile.ZipFile(path) as zf:
        return zf.read(name)


def meta_with(path, **changes) -> bytes:
    with zipfile.ZipFile(path) as zf:
        meta = json.loads(zf.read("meta.json"))
    meta.update(changes)
    return json.dumps(meta).encode()


def meta_without(path, key: str) -> bytes:
    with zipfile.ZipFile(path) as zf:
        meta = json.loads(zf.read("meta.json"))
    del meta[key]
    return json.dumps(meta).encode()


def npy_layout(blob: bytes) -> tuple[int, int]:
    """How many bytes of an ``.npy`` member precede its data, and how many
    bytes a row of its data takes."""
    fh = io.BytesIO(blob)
    np.lib.format.read_magic(fh)
    shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
    return fh.tell(), dtype.itemsize * math.prod(shape[1:])


def write_forged_sizes(path, members: dict[str, bytes], sizes: dict[str, int]) -> None:
    """Write ``members`` deflated, with the zip directory claiming the
    forged uncompressed ``sizes`` of some; a size of 4 GiB or more is
    written as a zip64 extra field."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, blob in members.items():
            zf.writestr(name, blob)
        for name, size in sizes.items():
            zf.getinfo(name).file_size = size  # the directory is written on close


def refused_load_peak(path) -> int:
    """The ``tracemalloc`` peak of a load that raises ``DataError``."""
    tracemalloc.start()
    try:
        with pytest.raises(DataError):
            EncodedDataset.load(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLoadChecks:
    """A malformed member is a data error naming the file and the member (exit 5)."""

    @pytest.fixture
    def saved(self, tmp_path, pair_dictionary):
        ds = make_dataset(pair_dictionary, [[1, 0, 0, 1], [0, 1, 0, 0]], [2.0, np.nan])
        path = tmp_path / "ds.enc"
        ds.save(path)
        return path

    def check(self, path, member: str, error=DataError, match: str = ""):
        messages = set()
        for ids in (True, False):  # a load without ids refuses alike
            with pytest.raises(error, match=f"^{path}: .*{member}.*{match}") as refused:
                EncodedDataset.load(path, ids=ids)
            messages.add(str(refused.value))
        assert len(messages) == 1, messages
        out = path.with_name("describe.json")
        assert main(["describe", "--data", str(path), "--out", str(out)]) == EXIT_DATA
        assert not out.exists()

    @pytest.mark.parametrize("member", ["meta.json", "household_ids.npy", "x.npy", "y.npy"])
    def test_missing_member(self, saved, member):
        rewrite_member(saved, member, None)
        self.check(saved, repr(member), FusionError, "missing")

    @pytest.mark.parametrize(
        "ids", [np.array([1, 2]), np.array([b"h0", b"h1"]), np.array([["h0"], ["h1"]])]
    )
    def test_household_ids_not_1d_unicode(self, saved, ids):
        rewrite_member(saved, "household_ids.npy", npy(ids))
        self.check(saved, "'household_ids.npy'", match="1-D unicode")

    @pytest.mark.parametrize(
        "x",
        [
            np.array([[1, 0, 0, 1], [0, 1, 0, 0]], dtype=np.int64),
            np.array([[1, 0, 0, 1], [0, 1, 0, 0]], dtype=bool),
            np.array([1, 0, 0, 1, 0, 1, 0, 0], dtype=np.uint8),
        ],
    )
    def test_x_not_2d_uint8(self, saved, x):
        rewrite_member(saved, "x.npy", npy(x))
        self.check(saved, "'x.npy'", match="2-D uint8")

    @pytest.mark.parametrize(
        "y",
        [
            np.array(["1", "2"]),
            np.array([1.0, 2.0], dtype=np.float32),
            np.array([1, 2], dtype=np.int64),
            np.array([[1.0], [2.0]]),
        ],
    )
    def test_y_not_1d_float64(self, saved, y):
        rewrite_member(saved, "y.npy", npy(y))
        self.check(saved, "'y.npy'", match="1-D float64")

    @pytest.mark.parametrize("n", [1, 3, "2", None, True])
    def test_n_samples_disagrees(self, saved, n):
        rewrite_member(saved, "meta.json", meta_with(saved, n_samples=n))
        self.check(saved, "n_samples", match="rows")

    @pytest.mark.parametrize("key", ["survey_id", "year", "dictionary", "dictionary_hash"])
    def test_meta_key_missing(self, saved, key):
        rewrite_member(saved, "meta.json", meta_without(saved, key))
        self.check(saved, "'meta.json'", match=f"has no '{key}'")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("survey_id", 7),
            ("survey_id", None),
            ("year", "abc"),
            ("year", "2017"),
            ("year", 2017.0),
            ("year", True),
            ("dictionary_hash", ["abc"]),
            ("dictionary", {"features": 3}),
            ("dictionary", []),
            ("dictionary", {}),
            ("dictionary", {"features": [3]}),
            ("dictionary", {"features": [{"name": 1, "categories": ["c", "d"]}]}),
            ("dictionary", {"features": [{"name": "A", "categories": "cd"}]}),
            ("dictionary", {"features": [{"name": "A", "categories": [1, 2]}]}),
            ("dictionary", {"features": [{"categories": ["c", "d"]}]}),
        ],
    )
    def test_meta_key_wrong_type(self, saved, key, value):
        rewrite_member(saved, "meta.json", meta_with(saved, **{key: value}))
        self.check(saved, "'meta.json'", match=f"'{key}' must be")

    def test_a_category_named_missing_is_refused(self, saved):
        categories = [["c", "Missing"], ["i", "j"]]
        dictionary = {"features": [{"name": f, "categories": c} for f, c in zip("AB", categories)]}
        rewrite_member(saved, "meta.json", meta_with(saved, dictionary=dictionary))
        self.check(saved, "'meta.json'", match="'dictionary' must be a feature dictionary: .*'Missing'")

    @pytest.mark.parametrize("blob", [b"{not json", b"[]"])
    def test_meta_not_a_json_object(self, saved, blob):
        rewrite_member(saved, "meta.json", blob)
        self.check(saved, "'meta.json'")

    def test_x_with_a_column_lost(self, saved, capsys):
        """The column check names the file and the member, as every other fault does."""
        rewrite_member(saved, "x.npy", npy(np.array([[1, 0, 0], [0, 1, 0]], dtype=np.uint8)))
        self.check(saved, "'x.npy'", DimensionError, r"has shape \(2, 3\), expected \(2, 4\)")
        assert capsys.readouterr().err.startswith(f"error: {saved}: member 'x.npy' has shape")

    def test_truncated_member(self, saved):
        with zipfile.ZipFile(saved) as zf:
            blob = zf.read("y.npy")
        rewrite_member(saved, "y.npy", blob[:-3])
        self.check(saved, "'y.npy'", match="not a readable array")

    def test_truncated_x_member(self, saved):
        """``x.npy`` is read in blocks: a member that ends early is refused."""
        with zipfile.ZipFile(saved) as zf:
            blob = zf.read("x.npy")
        rewrite_member(saved, "x.npy", blob[:-3])
        self.check(saved, "'x.npy'", match="not a readable array")

    @pytest.mark.parametrize("member", ["household_ids.npy", "x.npy", "y.npy"])
    def test_header_that_does_not_parse(self, saved, member):
        """A damaged ``.npy`` header that numpy's reader fails to tokenize,
        as a flipped deflate bit can leave it, is a data error, not a traceback."""
        with zipfile.ZipFile(saved) as zf:
            blob = zf.read(member)
        rewrite_member(saved, member, blob.replace(b"{", b"y", 1))
        self.check(saved, repr(member), match="not a readable array")

    @pytest.mark.parametrize("member", ["household_ids.npy", "y.npy"])
    def test_header_claiming_rows_beyond_meta(self, saved, member):
        """A header is checked before its rows are allocated: 10^13 rows
        (255 TiB of ids) are a data error naming the member, not a
        ``MemoryError``, and the refused load allocates under 1 MB."""
        rewrite_member(saved, member, npy_claiming(read_member(saved, member), 10**13))
        assert refused_load_peak(saved) < 1 << 20
        self.check(saved, repr(member), match="has 10000000000000 rows")

    def test_meta_and_every_header_claiming_the_same_rows(self, saved):
        """When ``meta.json`` and all three headers claim 10^13 rows, the
        first member's size in the zip directory gives the claim away."""
        for member in ("household_ids.npy", "x.npy", "y.npy"):
            rewrite_member(saved, member, npy_claiming(read_member(saved, member), 10**13))
        rewrite_member(saved, "meta.json", meta_with(saved, n_samples=10**13))
        assert refused_load_peak(saved) < 1 << 20
        self.check(saved, "'household_ids.npy'", match="not a readable array: header claims")

    @pytest.mark.parametrize("read_bytes", [1 << 16, 100])
    @pytest.mark.parametrize("member", ["household_ids.npy", "x.npy", "y.npy"])
    def test_every_size_claiming_rows_the_stream_lacks(self, tmp_path, monkeypatch, member,
                                                       read_bytes):
        """``meta.json``'s ``n_samples``, a member's header and its size in
        the zip directory all claim 40 rows, where its deflate stream holds
        25: the member's short read is a data error naming it, also after
        earlier blocks were read and coded, and no dataset comes back."""
        path = tmp_path / "forged.enc"
        households_dataset(40, seed=3).save(path)
        with zipfile.ZipFile(path) as zf:
            members = {name: zf.read(name) for name in zf.namelist()}
        full = members[member]
        members[member] = full[: len(full) - 15 * npy_layout(full)[1]]
        write_forged_sizes(path, members, {member: len(full)})
        monkeypatch.setattr(dataset, "_READ_BYTES", read_bytes)
        self.check(path, repr(member), match="not a readable array: cannot reshape")

    @pytest.mark.parametrize("method", [zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA], ids=["bzip2", "lzma"])
    @pytest.mark.parametrize("member", ["meta.json", "household_ids.npy", "x.npy", "y.npy"])
    def test_other_compression_methods_are_refused(self, saved, member, method):
        """``save`` writes stored or deflated members only, the methods whose
        claimed size is bounded; a bzip2 or lzma member claiming 2^30 bytes
        is refused by name and method before any of it is decompressed."""
        with zipfile.ZipFile(saved) as zf:
            members = {name: zf.read(name) for name in zf.namelist()}
        with zipfile.ZipFile(saved, "w", zipfile.ZIP_DEFLATED) as zf:
            for name, blob in members.items():
                zf.writestr(name, blob, compress_type=method if name == member else None)
            zf.getinfo(member).file_size = 1 << 30  # the directory is written on close
        assert refused_load_peak(saved) < 1 << 20
        name = zipfile.compressor_names[method]
        self.check(saved, repr(member), match=f"uses compression method {name!r}")

    @pytest.mark.parametrize("member", ["household_ids.npy", "x.npy", "y.npy"])
    def test_zip64_size_beyond_the_stream(self, saved, member):
        """A zip64 directory entry, as a size of 4 GiB or more is written,
        that claims 2^30 rows for a member whose deflate stream holds two is
        refused before any row is allocated: no compressed byte of deflate
        holds more than 1,032 bytes."""
        rows = 1 << 30
        members = {"meta.json": meta_with(saved, n_samples=rows)}
        for name in ("household_ids.npy", "x.npy", "y.npy"):
            members[name] = npy_claiming(read_member(saved, name), rows)
        head, row_bytes = npy_layout(members[member])
        forged = head + rows * row_bytes
        assert forged >= 1 << 32
        write_forged_sizes(saved, members, {member: forged})
        with zipfile.ZipFile(saved) as zf:
            assert zf.getinfo(member).file_size == forged
            tracemalloc.start()
            try:
                with pytest.raises(DataError, match=f"^{saved}: member {member!r} is not a "
                                   f"readable array: the zip directory claims {forged} bytes"):
                    dataset._read_array(zf, saved, member, rows, 4 if member == "x.npy" else None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1 << 20
        if member == "household_ids.npy":  # the first member a load reads
            assert refused_load_peak(saved) < 1 << 20
            self.check(saved, repr(member), match="the zip directory claims")

    @pytest.mark.parametrize("member", ["household_ids.npy", "x.npy", "y.npy"])
    def test_bytes_after_the_data(self, saved, member):
        """A member longer than its header's rows is refused, not read in part."""
        rewrite_member(saved, member, read_member(saved, member) + bytes(8))
        self.check(saved, repr(member), match="header claims .* bytes of data, member holds")

    def test_empty_ids_dtype(self, saved):
        """Ids of zero-width strings (``<U0``) are refused by their header:
        numpy would allocate them as ``<U1``, beyond the member's size."""
        blob = npy_claiming(npy(np.array([], dtype="<U1")), 10**13, "<U0")  # 0 data bytes
        rewrite_member(saved, "household_ids.npy", blob)
        rewrite_member(saved, "meta.json", meta_with(saved, n_samples=10**13))
        self.check(saved, "'household_ids.npy'", match="1-D unicode")

    def test_fortran_ordered_x_member(self, saved):
        """Rows are packed as they are read, so ``x.npy`` must be in row order."""
        x = np.asfortranarray(np.array([[1, 0, 0, 1], [0, 1, 0, 0]], dtype=np.uint8))
        rewrite_member(saved, "x.npy", npy(x))
        self.check(saved, "'x.npy'", match="C order")

    def test_unknown_member_is_ignored(self, saved, tmp_path):
        original = EncodedDataset.load(saved)
        rewrite_member(saved, "notes.txt", b"not an array")
        back = EncodedDataset.load(saved)
        a, b = tmp_path / "original.enc", tmp_path / "back.enc"
        original.save(a)
        back.save(b)
        assert a.read_bytes() == b.read_bytes()  # saves are byte-deterministic
        assert main(["describe", "--data", str(saved)]) == 0

    def test_big_endian_y_is_read_as_float64(self, saved):
        rewrite_member(saved, "y.npy", npy(np.array([2.0, np.nan], dtype=">f8")))
        y = EncodedDataset.load(saved).y
        assert y.dtype == np.float64 and y[0] == 2.0 and np.isnan(y[1])


def cut_deflate_stream(path, name: str, cut: int) -> None:
    """Rewrite a saved ``.enc`` so that member ``name``'s deflate stream
    loses its last ``cut`` compressed bytes, while the zip directory still
    gives the whole member's size and CRC."""
    blob = path.read_bytes()
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
    with zipfile.ZipFile(path, "w") as out:
        for info in infos:
            name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
            start = info.header_offset + 30 + name_len + extra_len
            raw = blob[start : start + info.compress_size - (cut if info.filename == name else 0)]
            copy = zipfile.ZipInfo(info.filename, date_time=info.date_time)
            out.writestr(copy, raw)  # stored as is; the directory, written on close, says deflated
            copy.compress_type, copy.file_size, copy.CRC = (
                info.compress_type, info.file_size, info.CRC
            )


def same_dataset(got: EncodedDataset, want: EncodedDataset) -> None:
    assert got.households.dtype == want.households.dtype
    assert got.households.tolist() == want.households.tolist()
    assert got.household_code.dtype == np.int32
    assert got.household_code.tolist() == want.household_code.tolist()
    assert got.words.dtype == np.uint64 and np.array_equal(got.words, want.words)
    assert np.array_equal(got.y, want.y, equal_nan=True)
    assert (got.survey_id, got.year, got.dictionary.hash()) == (
        want.survey_id, want.year, want.dictionary.hash()
    )


class TestRowSelection:
    """``load(path, rows=...)`` keeps only the rows ``rows(n_samples)`` names,
    yet reads and checks every row: it equals ``load(path).subset(rows)``
    and refuses every file ``load(path)`` refuses, with the same error."""

    @given(
        ids=id_runs(),
        block=st.integers(1, 64),
        pick=st.sampled_from(["drawn", "none", "all", "first", "last", "block edges"]),
        seed=st.integers(0, 2**16),
    )
    @example(ids=np.array([], dtype=np.str_), block=1, pick="none", seed=0)
    @example(ids=np.array(["b", "b", "a", "b", "c", "a"]), block=1, pick="drawn", seed=3)
    @example(ids=np.array(["a", "a", "a"]), block=2, pick="last", seed=0)  # a split household
    @settings(max_examples=150, deadline=None)
    def test_selected_rows_are_the_subset(self, ids, block, pick, seed):
        n = ids.size
        # each member's rows per read of ``block`` rows of x.npy (26 bytes a row)
        per_read = {max(1, block * 26 // size) for size in (26, 8, ids.itemsize or 4)}
        edges = {e for b in per_read for s in range(0, n + 1, b) for e in (s - 1, s)}
        rows = {
            "drawn": np.flatnonzero(np.random.default_rng(seed).random(n) < 0.4),
            "none": np.arange(0),
            "all": np.arange(n),
            "first": np.arange(min(n, 1)),
            "last": np.arange(max(n - 1, 0), n),
            "block edges": np.array(sorted(e for e in edges if 0 <= e < n), dtype=np.intp),
        }[pick]
        asked = []

        def select(count):
            asked.append(count)
            return rows

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            ids_dataset(ids, seed=seed).save(Path(tmp) / "a.enc")
            mp.setattr(dataset, "_READ_BYTES", block * 26)
            whole = EncodedDataset.load(Path(tmp) / "a.enc")
            got = EncodedDataset.load(Path(tmp) / "a.enc", rows=select)
        assert asked == [n]
        same_dataset(got, whole.subset(rows))
        assert got.file_shape == whole.file_shape == (n, whole.n_households())

    @pytest.mark.parametrize(
        "rows, match",
        [
            ([2, 1], "ascend"),
            ([1, 1], "ascend"),
            ([-1, 2], r"lie in \[0, 5\)"),
            ([0, 5], r"lie in \[0, 5\)"),
            ([[0, 1]], "1-D integers"),
            ([0.0, 1.0], "1-D integers"),
        ],
    )
    def test_rows_out_of_range_or_unsorted(self, tmp_path, rows, match):
        households_dataset(5).save(tmp_path / "a.enc")
        with pytest.raises(ValueError, match=match):
            EncodedDataset.load(tmp_path / "a.enc", rows=lambda n: rows)

    @pytest.mark.parametrize(
        "damage", ["x value 2", "two bits in one group", "y -1", "y inf", "cut deflate stream"]
    )
    @pytest.mark.parametrize("read_rows", [64, 2520])
    def test_a_damaged_unselected_row_is_refused_alike(self, tmp_path, monkeypatch, damage,
                                                      read_rows):
        n, bad = 3000, 2500
        path = tmp_path / "a.enc"
        ds = households_dataset(n, seed=2)
        ds.save(path)
        x, y = ds.x, ds.y.copy()
        if damage == "x value 2":
            x[bad, 0] = 2
        elif damage == "two bits in one group":
            x[bad, :5] = [0, 1, 0, 1, 0]
        elif damage.startswith("y"):
            y[bad] = -1.0 if damage == "y -1" else np.inf
        if damage == "cut deflate stream":
            cut_deflate_stream(path, "x.npy", 5)
        elif damage.startswith("y"):
            rewrite_member(path, "y.npy", npy(y))
        else:
            rewrite_member(path, "x.npy", npy(x))
        monkeypatch.setattr(dataset, "_READ_BYTES", read_rows * 26)
        with pytest.raises((FusionError, ValueError)) as whole:
            EncodedDataset.load(path)
        with pytest.raises(whole.type) as selected:
            EncodedDataset.load(path, rows=lambda n: np.array([0, 1, 2, 1000]))
        assert str(selected.value) == str(whole.value)
        with pytest.raises(whole.type) as id_free:
            EncodedDataset.load(path, ids=False)
        assert str(id_free.value) == str(whole.value)
        if damage == "two bits in one group":
            assert str(whole.value) == f"x row {bad}: feature 'A' has more than one bit set"

    def test_faults_are_reported_in_the_order_of_a_whole_load(self, tmp_path):
        """With several bad rows the first feature's first bad row is named,
        then infinite targets, as the constructor names them."""
        path = tmp_path / "a.enc"
        ds = households_dataset(3000, seed=2)
        ds.save(path)
        x, y = ds.x, ds.y.copy()
        x[2900, 10:14] = [1, 1, 0, 0]  # feature C
        x[2950, :5] = [1, 1, 0, 0, 0]  # feature A, later in the file
        y[10] = np.inf
        rewrite_member(path, "x.npy", npy(x))
        rewrite_member(path, "y.npy", npy(y))
        loads = ({}, {"rows": lambda n: np.array([0, 1])}, {"ids": False})
        for how in loads:
            with pytest.raises(DataError, match="^x row 2950: feature 'A' has"):
                EncodedDataset.load(path, **how)
        x[2950, :5] = [1, 0, 0, 0, 0]
        x[2900, 10:14] = [1, 0, 0, 0]
        rewrite_member(path, "x.npy", npy(x))
        for how in loads:
            with pytest.raises(DataError, match="^target values must be finite"):
                EncodedDataset.load(path, **how)

    def test_selected_load_holds_only_the_run_keys(self, tmp_path):
        """Loading 500 rows of 120k holds those rows, and on the way one key
        per run of equal ids, which counts the file's households: it peaks
        below those keys plus 1 MB under ``tracemalloc``.  Here that is
        1.9 MB against a 2.4 MB bound; loading every row peaks at 4.3 MB."""
        path = tmp_path / "big.enc"
        households_dataset(120_000, seed=1).save(path)
        rows = np.sort(np.random.default_rng(0).choice(120_000, 500, replace=False))
        tracemalloc.start()
        try:
            ds = EncodedDataset.load(path, rows=lambda n: rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.n_samples == 500 and ds.file_shape == (120_000, 40_000)
        run_keys = 40_000 * np.dtype("<U9").itemsize  # "hh0000000", one a household
        assert peak < run_keys + (1 << 20), (peak, run_keys)


class TestIdFreeLoad:
    """``load(path, ids=False)`` reads and checks every member, counts the
    file's households, and keeps everything but the household ids."""

    @given(ids=id_runs(), block=st.integers(1, 64), seed=st.integers(0, 2**16))
    @example(ids=np.array([], dtype=np.str_), block=1, seed=0)
    @example(ids=np.array(["b", "b", "a", "b", "c", "a"]), block=1, seed=3)  # b and a come back
    @example(ids=np.array(["a", "b", "b", "c"]), block=2, seed=0)  # ascending across blocks
    @settings(max_examples=150, deadline=None)
    def test_equals_the_full_load_but_for_ids(self, ids, block, seed):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            ids_dataset(ids, seed=seed).save(Path(tmp) / "a.enc")
            mp.setattr(dataset, "_READ_BYTES", block * ids.itemsize)  # ``block`` ids a read
            whole = EncodedDataset.load(Path(tmp) / "a.enc")
            got = EncodedDataset.load(Path(tmp) / "a.enc", ids=False)
        assert got.households is None and got.household_code is None
        assert got.n_samples == whole.n_samples
        assert got.words.dtype == np.uint64 and np.array_equal(got.words, whole.words)
        assert np.array_equal(got.y, whole.y, equal_nan=True)
        assert (got.survey_id, got.year, got.dictionary.hash()) == (
            whole.survey_id, whole.year, whole.dictionary.hash()
        )
        assert got.file_shape == whole.file_shape == (ids.size, np.unique(ids).size)

    @pytest.mark.parametrize(
        "use",
        [
            lambda ds, tmp: ds.household_ids,
            lambda ds, tmp: ds.n_households(),
            lambda ds, tmp: ds.subset([0]),
            lambda ds, tmp: ds.labeled(),
            lambda ds, tmp: ds.household_totals(),
            lambda ds, tmp: ds.save(tmp / "again.enc"),
            lambda ds, tmp: concat_datasets([ds], survey_id="c", year=2017),
            lambda ds, tmp: concat_datasets(
                [EncodedDataset.load(tmp / "a.enc"), ds], survey_id="c", year=2017
            ),
        ],
        ids=["household_ids", "n_households", "subset", "labeled", "household_totals", "save",
             "concat", "concat with a full load"],
    )
    def test_what_needs_ids_is_refused(self, tmp_path, use):
        households_dataset(6).save(tmp_path / "a.enc")
        ds = EncodedDataset.load(tmp_path / "a.enc", ids=False)
        with pytest.raises(FusionError, match="loaded without household ids"):
            use(ds, tmp_path)
        assert not (tmp_path / "again.enc").exists()

    def test_rows_and_no_ids_do_not_combine(self, tmp_path):
        households_dataset(6).save(tmp_path / "a.enc")
        with pytest.raises(ValueError, match="not both"):
            EncodedDataset.load(tmp_path / "a.enc", rows=lambda n: np.arange(n), ids=False)

    def test_keeps_only_words_and_targets(self, tmp_path):
        """Loading 120k rows without ids keeps their words and targets (1.92 MB)
        and under 0.5 MB more under ``tracemalloc``; a full load also keeps
        the int32 codes and the distinct ids."""
        path = tmp_path / "big.enc"
        households_dataset(120_000, seed=1).save(path)
        kept = {}
        for ids in (False, True):
            tracemalloc.start()
            try:
                ds = EncodedDataset.load(path, ids=ids)
                kept[ids] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert ds.file_shape == (120_000, 40_000)
        arrays = ds.words.nbytes + ds.y.nbytes
        assert kept[False] < arrays + (1 << 19), (kept, arrays)
        assert kept[True] > arrays + ds.household_code.nbytes + ds.households.nbytes, kept


class TestConcat:
    def test_concat_sizes(self, single_dictionary):
        a = make_dataset(single_dictionary, [[1, 0]], [1.0])
        b = make_dataset(single_dictionary, [[0, 1], [0, 0]], [2.0, 3.0])
        c = concat_datasets([a, b], survey_id="both", year=2017)
        assert c.n_samples == 3
        assert c.y.tolist() == [1.0, 2.0, 3.0]

    def test_dictionary_mismatch_rejected(self, single_dictionary, pair_dictionary):
        a = make_dataset(single_dictionary, [[1, 0]], [1.0])
        b = make_dataset(pair_dictionary, [[1, 0, 0, 1]], [1.0])
        with pytest.raises(DictionaryMismatchError):
            concat_datasets([a, b], survey_id="both", year=2017)
