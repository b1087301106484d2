import numpy as np
import pytest

from surveyfuse import (
    DataError,
    DictionaryMismatchError,
    DimensionError,
    EncodedDataset,
    FusionError,
    concat_datasets,
)
from surveyfuse.dataset import household_index
from conftest import make_dataset
from oracles import household_sum_oracle


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
