import numpy as np
import pytest

from surveyfuse import (
    DataError,
    IngestionError,
    MappingError,
    assemble,
    describe,
    load_default_spec,
    load_tables,
)
from surveyfuse.schema import (
    FeatureSpec,
    HarmonizationSpec,
    SurveyColumn,
    TableKeys,
    TargetColumn,
    TargetSpec,
)


def mini_spec():
    """Two features (one household-level, one person-level), two delivery columns."""
    return HarmonizationSpec(
        features=(
            FeatureSpec(
                name="Income",
                categories=("low", "high"),
                surveys={
                    "mini": SurveyColumn(
                        column="income", table="household",
                        values={"L": "low", "H": "high", "refused": None},
                    )
                },
            ),
            FeatureSpec(
                name="Age",
                categories=("young", "old"),
                surveys={
                    "mini": SurveyColumn(column="age", table="person", bins=(40,))
                },
            ),
        ),
        target=TargetSpec(
            name="Delivery",
            surveys={
                "mini": TargetColumn(columns=("pkgs", "food"), divisor=1),
            },
        ),
        keys={"mini": TableKeys(household_id="hh", person_id="pp", day_id="dd")},
    )


def write_tables(tmp_path, households, persons, days):
    h = tmp_path / "households.csv"
    p = tmp_path / "persons.csv"
    d = tmp_path / "days.csv"
    h.write_text("\n".join(households) + "\n")
    p.write_text("\n".join(persons) + "\n")
    d.write_text("\n".join(days) + "\n")
    return h, p, d


def standard_tables(tmp_path):
    return write_tables(
        tmp_path,
        households=["hh,income", "1,L", "2,H", "3,refused"],
        persons=["hh,pp,age", "1,1,30", "1,2,55", "2,1,41", "3,1,"],
        days=[
            "hh,pp,dd,pkgs,food",
            "1,1,1,2,1",  # y = 3
            "1,1,2,,",  # y missing
            "1,2,1,0,",  # y = 0 (blank sibling counts as zero)
            "2,1,1,5,0",  # y = 5
            "3,1,1,,2",  # y = 2
        ],
    )


class TestLoadTables:
    def test_counts_match_rows(self, tmp_path):
        h, p, d = standard_tables(tmp_path)
        raw = load_tables(h, p, d, "mini", mini_spec())
        assert raw.counts == {"households": 3, "persons": 4, "days": 5}

    def test_unknown_household_reference(self, tmp_path):
        h, p, d = write_tables(
            tmp_path,
            households=["hh,income", "1,L"],
            persons=["hh,pp,age", "9,1,30"],
            days=["hh,pp,dd,pkgs,food"],
        )
        with pytest.raises(IngestionError, match="row 2.*unknown household"):
            load_tables(h, p, d, "mini", mini_spec())

    def test_unknown_person_reference(self, tmp_path):
        h, p, d = write_tables(
            tmp_path,
            households=["hh,income", "1,L"],
            persons=["hh,pp,age", "1,1,30"],
            days=["hh,pp,dd,pkgs,food", "1,7,1,1,1"],
        )
        with pytest.raises(IngestionError, match="row 2.*unknown person"):
            load_tables(h, p, d, "mini", mini_spec())

    def test_empty_day_table_is_valid(self, tmp_path):
        h, p, d = write_tables(
            tmp_path,
            households=["hh,income", "1,L"],
            persons=["hh,pp,age", "1,1,30"],
            days=["hh,pp,dd,pkgs,food"],
        )
        raw = load_tables(h, p, d, "mini", mini_spec())
        assert raw.counts["days"] == 0
        assert assemble(raw, mini_spec(), 2017).n_samples == 0

    def test_missing_file(self, tmp_path):
        h, p, d = standard_tables(tmp_path)
        with pytest.raises(IngestionError, match="not found"):
            load_tables(tmp_path / "nope.csv", p, d, "mini", mini_spec())

    def test_missing_key_column(self, tmp_path):
        h, p, d = write_tables(
            tmp_path,
            households=["id,income", "1,L"],
            persons=["hh,pp,age"],
            days=["hh,pp,dd,pkgs,food"],
        )
        with pytest.raises(IngestionError, match="missing key column"):
            load_tables(h, p, d, "mini", mini_spec())

    def test_duplicate_household(self, tmp_path):
        h, p, d = write_tables(
            tmp_path,
            households=["hh,income", "1,L", "1,H"],
            persons=["hh,pp,age"],
            days=["hh,pp,dd,pkgs,food"],
        )
        with pytest.raises(IngestionError, match="duplicate household"):
            load_tables(h, p, d, "mini", mini_spec())

    def test_ragged_row(self, tmp_path):
        h, p, d = write_tables(
            tmp_path,
            households=["hh,income", "1,L,extra,fields"],
            persons=["hh,pp,age"],
            days=["hh,pp,dd,pkgs,food"],
        )
        with pytest.raises(IngestionError, match="row 2"):
            load_tables(h, p, d, "mini", mini_spec())


class TestAssemble:
    def test_one_sample_per_day_row(self, tmp_path):
        h, p, d = standard_tables(tmp_path)
        ds = assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)
        assert ds.n_samples == 5
        assert ds.n_households() == 3
        assert ds.year == 2017

    def test_single_row_target(self, tmp_path):
        h, p, d = write_tables(
            tmp_path,
            households=["hh,income", "1,L"],
            persons=["hh,pp,age", "1,1,30"],
            days=["hh,pp,dd,pkgs,food", "1,1,1,2,0"],
        )
        ds = assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)
        assert ds.n_samples == 1
        assert ds.y[0] == 2.0

    def test_covariates_and_targets(self, tmp_path):
        h, p, d = standard_tables(tmp_path)
        ds = assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)
        # columns: Income(low, high), Age(young, old)
        assert ds.x[0].tolist() == [1, 0, 1, 0]  # hh1 L, age 30
        assert ds.x[2].tolist() == [1, 0, 0, 1]  # hh1 L, age 55
        assert ds.x[3].tolist() == [0, 1, 0, 1]  # hh2 H, age 41 (bin edge inclusive)
        assert ds.x[4].tolist() == [0, 0, 0, 0]  # hh3 refused income, blank age
        np.testing.assert_array_equal(
            np.isnan(ds.y), [False, True, False, False, False]
        )
        assert ds.y[[0, 2, 3, 4]].tolist() == [3.0, 0.0, 5.0, 2.0]

    def test_unmapped_category_fails_fast(self, tmp_path):
        h, p, d = write_tables(
            tmp_path,
            households=["hh,income", "1,WEIRD"],
            persons=["hh,pp,age", "1,1,30"],
            days=["hh,pp,dd,pkgs,food", "1,1,1,1,0"],
        )
        with pytest.raises(MappingError, match="WEIRD"):
            assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)

    def test_negative_delivery_rejected(self, tmp_path):
        h, p, d = write_tables(
            tmp_path,
            households=["hh,income", "1,L"],
            persons=["hh,pp,age", "1,1,30"],
            days=["hh,pp,dd,pkgs,food", "1,1,1,-3,0"],
        )
        with pytest.raises(DataError, match="negative"):
            assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)

    def test_missing_mapped_column(self, tmp_path):
        h, p, d = write_tables(
            tmp_path,
            households=["hh,notincome", "1,L"],
            persons=["hh,pp,age", "1,1,30"],
            days=["hh,pp,dd,pkgs,food", "1,1,1,1,0"],
        )
        with pytest.raises(MappingError, match="income"):
            assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)

    def test_deterministic(self, tmp_path):
        h, p, d = standard_tables(tmp_path)
        spec = mini_spec()
        d1 = assemble(load_tables(h, p, d, "mini", spec), spec, 2017)
        d2 = assemble(load_tables(h, p, d, "mini", spec), spec, 2017)
        assert np.array_equal(d1.x, d2.x)
        assert np.array_equal(d1.y, d2.y, equal_nan=True)
        assert np.array_equal(d1.household_ids, d2.household_ids)

    def test_household_ids_are_those_with_day_rows(self, tmp_path):
        h, p, d = write_tables(
            tmp_path,
            households=["hh,income", "1,L", "2,H"],  # hh2 has no day rows
            persons=["hh,pp,age", "1,1,30", "2,1,50"],
            days=["hh,pp,dd,pkgs,food", "1,1,1,1,0"],
        )
        ds = assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)
        assert set(ds.household_ids.tolist()) == {"1"}


class TestDescribe:
    def test_category_counts_partition_samples(self, tmp_path):
        h, p, d = standard_tables(tmp_path)
        ds = assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)
        report = describe(ds)
        assert report["n_samples"] == 5
        assert report["n_households"] == 3
        for counts in report["features"].values():
            assert sum(counts.values()) == 5
        assert report["features"]["Income"] == {"low": 3, "high": 1, "Missing": 1}

    def test_missing_target_fraction(self, tmp_path):
        h, p, d = standard_tables(tmp_path)
        ds = assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)
        report = describe(ds)
        assert report["n_missing_target"] == 1
        assert report["missing_target_fraction"] == pytest.approx(0.2)

    def test_fully_labeled_dataset(self, tmp_path):
        h, p, d = write_tables(
            tmp_path,
            households=["hh,income", "1,L"],
            persons=["hh,pp,age", "1,1,30"],
            days=["hh,pp,dd,pkgs,food", "1,1,1,1,0", "1,1,2,0,0"],
        )
        ds = assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)
        assert describe(ds)["missing_target_fraction"] == 0.0


class TestShippedCrosswalk:
    def test_psrc_shaped_ingestion(self, tmp_path):
        # survey categories contain commas, so rows go through a csv writer
        import csv

        spec = load_default_spec()
        h, p, d = tmp_path / "h.csv", tmp_path / "p.csv", tmp_path / "d.csv"
        with open(h, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["hhid", "hhincome_broad", "lifecycle"])
            w.writerow(["100", "$100,000 or more", "Household size = 2, no children under 18"])
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["hhid", "personid", "age", "gender", "education", "employment"])
            w.writerow(["100", "1", "25-34 years", "Female", "Bachelor degree",
                        "Employed full time (35+ hours/week, paid)"])
        with open(d, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["hhid", "personid", "daynum",
                        "delivery_pkgs_freq", "delivery_food_freq", "delivery_grocery_freq"])
            w.writerow(["100", "1", "1", "2", "1", "0"])
        ds = assemble(load_tables(h, p, d, "psrc2017", spec), spec, 2017)
        assert ds.n_samples == 1
        assert ds.y[0] == 3.0
        assert ds.x[0].sum() == 6  # every feature resolved, one bit each (checked on construction)

    def test_nhts_shaped_ingestion(self, tmp_path):
        import csv

        spec = load_default_spec()
        h, p, d = tmp_path / "h.csv", tmp_path / "p.csv", tmp_path / "d.csv"
        with open(h, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["HOUSEID", "HHFAMINC", "LIF_CYC"])
            w.writerow(["7000", "07", "02"])
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["HOUSEID", "PERSONID", "R_AGE", "R_SEX", "EDUC", "WKFTPT"])
            w.writerow(["7000", "1", "44", "02", "05", "-1"])
        with open(d, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["HOUSEID", "PERSONID", "TDCASEID", "DELIVER"])
            w.writerow(["7000", "1", "1", "30"])
        ds = assemble(load_tables(h, p, d, "nhts2017", spec), spec, 2017)
        assert ds.y[0] == 1.0  # 30 deliveries/month -> 1/day
        income = ds.x[0][ds.dictionary.group_slice("Income")]
        assert income.tolist() == [0, 1, 0]  # 75-100k
        employment = ds.x[0][ds.dictionary.group_slice("Employment")]
        assert employment.sum() == 0  # -1 = missing
