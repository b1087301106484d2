import io
import json
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given
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
from surveyfuse.dataset import first_occurrence, household_index
from conftest import make_dataset, random_one_hot
from oracles import first_occurrence_unique_oracle, household_sum_oracle, save_writestr_oracle


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
        ds.x[1, 0] = 1  # corrupted after construction
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
            ds.x[1, 0] = 1
        elif corrupt == "x=3":
            ds.x[0, 2] = 3
        else:
            ds.y[1] = np.inf
        p = tmp_path / "ds.enc"
        ds.save(p)  # save writes what it holds; load is the boundary
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
    """The same grouping of keys as str, uint64 or two-word void records."""
    v = np.asarray(values, dtype=np.uint64)
    if kind == "str":
        return np.array([f"k{int(i)}" for i in v], dtype=np.str_)
    if kind == "uint64":
        return v * np.uint64(2**40 + 1)
    words = np.stack([v % np.uint64(3), v], axis=1)
    return np.ascontiguousarray(words).view(np.dtype((np.void, 16))).ravel()


class TestFirstOccurrence:
    """Run collapsing before ``np.unique`` against one ``np.unique`` over all keys."""

    @staticmethod
    def check(keys: np.ndarray) -> None:
        first, rank = first_occurrence(keys)
        want_first, want_rank = first_occurrence_unique_oracle(keys)
        assert first.tolist() == want_first.tolist()
        assert rank.tolist() == want_rank.tolist()
        assert first.dtype == want_first.dtype and rank.dtype == want_rank.dtype

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

    @pytest.mark.parametrize("kind", ["str", "uint64", "void"])
    @pytest.mark.parametrize("values", [[], [5], [5, 5, 5], [1, 2, 1, 2], [3, 3, 1, 1, 3]])
    def test_edge_cases(self, values, kind):
        self.check(as_keys(values, kind))


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

    def test_load_memory_follows_the_arrays(self, tmp_path):
        """Members are read in blocks, not as whole ``bytes`` objects: loading
        200k rows peaks under 1.5x the loaded arrays."""
        path = tmp_path / "big.enc"
        households_dataset(200_000, seed=1).save(path)
        tracemalloc.start()
        try:
            ds = EncodedDataset.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = ds.household_ids.nbytes + ds.x.nbytes + ds.y.nbytes
        assert peak < 1.5 * arrays, (peak, arrays)


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


class TestLoadChecks:
    """A malformed member is a data error naming the file and the member (exit 5)."""

    @pytest.fixture
    def saved(self, tmp_path, pair_dictionary):
        ds = make_dataset(pair_dictionary, [[1, 0, 0, 1], [0, 1, 0, 0]], [2.0, np.nan])
        path = tmp_path / "ds.enc"
        ds.save(path)
        return path

    def check(self, path, member: str, error=DataError, match: str = ""):
        with pytest.raises(error, match=f"^{path}: .*{member}.*{match}"):
            EncodedDataset.load(path)
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

    @pytest.mark.parametrize("blob", [b"{not json", b"[]"])
    def test_meta_not_a_json_object(self, saved, blob):
        rewrite_member(saved, "meta.json", blob)
        self.check(saved, "'meta.json'")

    def test_truncated_member(self, saved):
        with zipfile.ZipFile(saved) as zf:
            blob = zf.read("y.npy")
        rewrite_member(saved, "y.npy", blob[:-3])
        self.check(saved, "'y.npy'", match="not a readable array")

    def test_big_endian_y_is_read_as_float64(self, saved):
        rewrite_member(saved, "y.npy", npy(np.array([2.0, np.nan], dtype=">f8")))
        y = EncodedDataset.load(saved).y
        assert y.dtype == np.float64 and y[0] == 2.0 and np.isnan(y[1])


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
