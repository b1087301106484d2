import csv
import io
import json
import tracemalloc

import numpy as np
import pytest
from oracles import ingest_oracle

from surveyfuse import (
    DataError,
    EncodedDataset,
    IngestionError,
    MappingError,
    assemble,
    describe,
    load_default_spec,
    load_tables,
)
from surveyfuse import ingest
from surveyfuse.cli import EXIT_DATA, main
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


def run_ingest(tmp_path, h, p, d, spec_json=None):
    """The CLI's ``ingest`` on the mini spec, or on ``spec_json`` if given; returns the
    exit code and the output path."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(mini_spec().to_json_dict() if spec_json is None else spec_json))
    out = tmp_path / "out.enc"
    rc = main(["ingest", "--households", str(h), "--persons", str(p), "--days", str(d),
               "--spec", str(spec), "--survey-id", "mini", "--year", "2017", "--out", str(out)])
    return rc, out


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

    def test_key_strings_are_held_once(self, tmp_path):
        """Coded as they are read against the tables they reference, persons and
        days point at the household and person tables' own id strings rather
        than holding equal copies."""
        h, p, d = write_tables(  # ids of several characters, which Python does not cache
            tmp_path,
            households=["hh,income", "hh01,L", "hh02,H"],
            persons=["hh,pp,age", "hh01,pp01,30", "hh01,pp02,55", "hh02,pp01,41"],
            days=["hh,pp,dd,pkgs,food", "hh01,pp02,1,1,", "hh02,pp01,1,0,1", "hh01,pp01,1,,"],
        )
        raw = load_tables(h, p, d, "mini", mini_spec())
        held = lambda table, key: {id(v) for v in table.columns[key].values}
        assert held(raw.persons, "hh") == held(raw.households, "hh")
        assert held(raw.days, "hh") == held(raw.households, "hh")
        assert held(raw.days, "pp") == held(raw.persons, "pp")
        ds = assemble(raw, mini_spec(), 2017)
        assert ds.household_ids.tolist() == ["hh01", "hh02", "hh01"]

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

    def test_absent_columns_fail_before_any_row(self, tmp_path):
        for households, days, column in [
            (["hh,notincome", "1,L"], ["hh,pp,dd,pkgs,food"], "income"),
            (["hh,income", "1,L"], ["hh,pp,dd,pkgs"], "food"),
        ]:
            h, p, d = write_tables(tmp_path, households, ["hh,pp,age", "1,1,30"], days)
            raw = load_tables(h, p, d, "mini", mini_spec())
            assert raw.counts["days"] == 0
            with pytest.raises(MappingError, match=rf"{column!r} .* is absent"):
                assemble(raw, mini_spec(), 2017)

    def test_bad_value_named_at_its_first_row(self, tmp_path):
        h, p, d = write_tables(
            tmp_path,
            households=["hh,income", "1,L", "2,WEIRD", "3,WEIRD"],
            persons=["hh,pp,age", "1,1,30", "2,1,30", "3,1,30"],
            days=["hh,pp,dd,pkgs,food", "3,1,1,1,0", "2,1,1,1,0", "1,1,1,x,0"],
        )
        raw = load_tables(h, p, d, "mini", mini_spec())
        with pytest.raises(MappingError) as err:
            assemble(raw, mini_spec(), 2017)
        message = str(err.value)
        assert message.startswith(f"{h}: row 3: ")
        assert "column 'income'" in message and "'WEIRD'" in message
        assert "feature 'Income'" in message
        h.write_text("hh,income\n1,L\n2,H\n3,H\n")
        with pytest.raises(DataError, match=rf"^{d}: row 4: .*'pkgs': non-numeric .*'x'"):
            assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)

    def test_rows_without_travel_days_are_not_encoded(self, tmp_path):
        h, p, d = write_tables(
            tmp_path,
            households=["hh,income", "1,L", "2,WEIRD"],
            persons=["hh,pp,age", "1,1,30", "1,2,old", "2,1,30"],
            days=["hh,pp,dd,pkgs,food", "1,1,1,1,0"],
        )
        ds = assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)
        assert ds.x.tolist() == [[1, 0, 1, 0]]

    def test_encodes_each_distinct_value_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(feature, raw, survey_id):
            calls.append((feature.name, raw))
            return encode(feature, raw, survey_id)

        encode = ingest.encode_value
        monkeypatch.setattr(ingest, "encode_value", counting)
        h, p, d = standard_tables(tmp_path)
        assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)
        assert sorted(calls) == sorted(
            [("Income", "L"), ("Income", "H"), ("Income", "refused"),
             ("Age", "30"), ("Age", "55"), ("Age", "41"), ("Age", "")]
        )

    @pytest.mark.parametrize("count", ["nan", "inf", "-inf"])
    def test_non_finite_delivery_count_is_data_error(self, tmp_path, capsys, count):
        h, p, d = write_tables(
            tmp_path,
            households=["hh,income", "1,L"],
            persons=["hh,pp,age", "1,1,30"],
            days=["hh,pp,dd,pkgs,food", "1,1,1,1,0", f"1,1,2,1,{count}"],
        )
        rc, out = run_ingest(tmp_path, h, p, d)
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{d}: row 3: " in err
        assert f"column 'food': " in err and f"delivery count {count!r}" in err
        assert not out.exists()

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


def random_survey(tmp_path, seed):
    """A random spec over household- and person-level features, and tables for it."""
    rng = np.random.default_rng(seed)

    def pick(options):
        return options[int(rng.integers(len(options)))]

    features, raw_values = [], []
    for j in range(int(rng.integers(1, 5))):
        categories = tuple(f"c{k}" for k in range(int(rng.integers(2, 5))))
        missing = pick([("",), ("", "NA"), ("-9",)])
        table = pick(["household", "person"])
        if rng.random() < 0.5:
            edges = tuple(sorted(rng.choice(100, len(categories) - 1, replace=False).tolist()))
            raws = [str(e) for e in edges] + ["0", "99", "12.5", " 7 "]
            column = SurveyColumn(f"f{j}", table, bins=edges, missing_values=missing)
        else:
            values = {f"r{k}{t}": c for k, c in enumerate(categories) for t in ("", ", x")}
            values.update({"refused": None, "-7": None})
            raws = list(values) + [" r0 "]
            column = SurveyColumn(f"f{j}", table, values=values, missing_values=missing)
        features.append(FeatureSpec(f"F{j}", categories, {"rand": column}))
        raw_values.append(raws + list(missing))
    tmiss = pick([("",), ("", "-1")])
    target = TargetColumn(tuple(f"t{k}" for k in range(int(rng.integers(1, 4)))),
                          divisor=pick([1.0, 7.0, 30.0]), missing_values=tmiss)
    spec = HarmonizationSpec(tuple(features), TargetSpec("Delivery", {"rand": target}),
                             keys={"rand": TableKeys("H", "P", "D")})

    def draw(j):
        return pick(raw_values[j])

    hh_rows = [["H"] + [f"f{j}" for j, f in enumerate(features)
                        if f.surveys["rand"].table == "household"]]
    p_rows = [["P", "H", "extra"] + [f"f{j}" for j, f in enumerate(features)
                                     if f.surveys["rand"].table == "person"]]
    d_rows = [["H", "P", "D", *target.columns]]
    for h in rng.permutation(int(rng.integers(1, 8))):
        hh_rows.append([f"h{h}"] + [draw(int(c[1:])) for c in hh_rows[0][1:]])
        for p in range(int(rng.integers(0, 4))):
            p_rows.append([str(p), f"h{h}", "-"] + [draw(int(c[1:])) for c in p_rows[0][3:]])
            for day in range(int(rng.integers(0, 4))):
                counts = [pick(["0", "3", "2.5", *tmiss]) for _ in target.columns]
                d_rows.append([f"h{h}", str(p), str(day), *counts])
    paths = []
    for name, rows in (("h", hh_rows), ("p", p_rows), ("d", d_rows)):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
            if rng.random() < 0.2:
                buf.write("\n")  # a blank line
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_text(buf.getvalue())
    return spec, paths


def check_against_oracle(tmp_path, seed):
    spec, paths = random_survey(tmp_path, seed)
    ds = assemble(load_tables(*paths, "rand", spec), spec, 2017)
    x, y, household_ids = ingest_oracle(*paths, "rand", spec)
    np.testing.assert_array_equal(ds.x, x)
    np.testing.assert_array_equal(ds.y, y)
    np.testing.assert_array_equal(ds.household_ids, household_ids)


@pytest.mark.parametrize("seed", range(40))
def test_matches_per_cell_oracle(tmp_path, seed):
    check_against_oracle(tmp_path, seed)


class TestSpecFile:
    @pytest.mark.parametrize(
        "spec_json",
        [[1, 2], "spec", {"version": 1, "features": 3}, {"version": 1, "features": [3]}],
    )
    def test_malformed_spec_is_schema_error(self, tmp_path, capsys, spec_json):
        """A spec that is not an object, or whose features are not a list of objects,
        is exit 5 naming the file, not a traceback."""
        h, p, d = standard_tables(tmp_path)
        rc, out = run_ingest(tmp_path, h, p, d, spec_json)
        assert rc == EXIT_DATA
        assert f"error: {tmp_path / 'spec.json'}: harmonization spec " in capsys.readouterr().err
        assert not out.exists()


    def test_a_category_named_missing_is_refused(self, tmp_path, capsys):
        """An all-zero group reads as the missing label, so a category of that
        name would share its count: exit 5 naming the spec file, no output."""
        h, p, d = standard_tables(tmp_path)
        spec_json = mini_spec().to_json_dict()
        income = spec_json["features"][0]
        income["categories"] = ["low", "Missing"]
        income["surveys"]["mini"]["values"]["H"] = "Missing"
        rc, out = run_ingest(tmp_path, h, p, d, spec_json)
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'spec.json'}: feature 'Income': category 'Missing'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda o: o.pop("features"), "harmonization spec has no 'features'"),
            (lambda o: o["features"][0].update(surveys=[]),
             "harmonization spec feature 0 key 'surveys' must be an object of objects"),
            (lambda o: o["features"][0].update(categories=3),
             "harmonization spec feature 0 key 'categories' must be a list of strings"),
            (lambda o: o["features"][0].pop("name"), "harmonization spec feature 0 has no 'name'"),
            (lambda o: o["features"][1]["surveys"]["mini"].update(bins="18,65"),
             "harmonization spec feature 1 survey 'mini' key 'bins' must be a list of numbers"),
            (lambda o: o["target"]["surveys"]["mini"].update(divisor="1"),
             "harmonization spec target survey 'mini' key 'divisor' must be a number"),
            (lambda o: o.update(keys={"mini": {"household_id": 3}}),
             "harmonization spec keys 'mini' key 'household_id' must be a string"),
        ],
    )
    def test_malformed_nested_field_is_schema_error(self, tmp_path, capsys, mutate, named):
        """A nested spec field that is absent or of the wrong JSON type is exit 5,
        naming the file and the key, not a traceback."""
        spec_json = mini_spec().to_json_dict()
        mutate(spec_json)
        h, p, d = standard_tables(tmp_path)
        rc, out = run_ingest(tmp_path, h, p, d, spec_json)
        assert rc == EXIT_DATA
        assert f"error: {tmp_path / 'spec.json'}: {named}" in capsys.readouterr().err
        assert not out.exists()


class TestHeaderAndEncoding:
    @pytest.mark.parametrize("table", ["households", "persons", "days"])
    def test_repeated_header_column_rejected(self, tmp_path, capsys, table):
        h, p, d = standard_tables(tmp_path)
        path = {"households": h, "persons": p, "days": d}[table]
        lines = path.read_text().splitlines()
        column = lines[0].split(",")[-1]
        path.write_text("\n".join(
            [f"{lines[0]},{column}"] + [f"{line},{line.split(',')[-1]}" for line in lines[1:]]
        ) + "\n")
        rc, out = run_ingest(tmp_path, h, p, d)
        assert rc == EXIT_DATA
        assert f"{path}: column {column!r} appears twice in the header" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        h, p, d = standard_tables(tmp_path)
        plain = assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)
        for path in (h, p, d):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        ds = assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)
        np.testing.assert_array_equal(ds.x, plain.x)
        np.testing.assert_array_equal(ds.y, plain.y)
        np.testing.assert_array_equal(ds.household_ids, plain.household_ids)
        rc, _ = run_ingest(tmp_path, h, p, d)
        assert rc == 0
        assert "encoded 5 samples (3 households, 1 missing targets)" in capsys.readouterr().out


@pytest.fixture(params=[1, 2, 3])
def chunk_rows(request, monkeypatch):
    """Survey CSVs parsed a few rows at a time, so every test table spans chunks."""
    monkeypatch.setattr(ingest, "CHUNK_ROWS", request.param)
    return request.param


@pytest.mark.parametrize("seed", range(40))
def test_matches_per_cell_oracle_in_small_chunks(tmp_path, chunk_rows, seed):
    check_against_oracle(tmp_path, seed)


def chunked_tables(n=9):
    """Valid mini-spec tables: household h<i> with one person and one travel day each."""
    return {
        "households": ["hh,income"] + [f"h{i},{'LH'[i % 2]}" for i in range(n)],
        "persons": ["hh,pp,age"] + [f"h{i},1,{20 + i}" for i in range(n)],
        "days": ["hh,pp,dd,pkgs,food"] + [f"h{i},1,1,{i},0" for i in range(n)],
    }


def _insert(line):
    def edit(lines, k):
        lines.insert(k + 1, line)
    return edit


def _replace(make):
    def edit(lines, k):
        lines[k + 1] = make(k)
    return edit


# fault -> (table, edit putting the fault at data row k, error, message after the row)
FAULTS = {
    "ragged row": ("days", _insert("h0,1,2,1,0,9"), IngestionError,
                   " has 6 columns, 5 expected"),
    "duplicate household": ("households", _insert("h0,H"), IngestionError,
                            ": duplicate household id 'h0'"),
    "dangling household": ("persons", _insert("zz,1,30"), IngestionError,
                           ": person references unknown household 'zz'"),
    "duplicate person": ("persons", _insert("h0,1,50"), IngestionError,
                         ": duplicate person ('h0', '1')"),
    "dangling person": ("days", _insert("h0,9,1,1,0"), IngestionError,
                        ": travel day references unknown person ('h0', '9')"),
    "unmapped value": ("households", _replace(lambda k: f"h{k},WEIRD"), MappingError,
                       ": survey 'mini' column 'income': "
                       "unmapped value 'WEIRD' for feature 'Income'"),
    "bad delivery count": ("days", _replace(lambda k: f"h{k},1,1,x,0"), DataError,
                           ": survey 'mini' column 'pkgs': non-numeric delivery count 'x'"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_row_survives_chunk_boundaries(tmp_path, chunk_rows, fault):
    """Each fault at every row from 1 to 7, so before, on and after each chunk boundary;
    a second copy near the end must not be the one reported."""
    table, edit, error, message = FAULTS[fault]
    for k in range(1, 8):
        tables = chunked_tables()
        edit(tables[table], len(tables[table]) - 2)  # the later copy
        edit(tables[table], k)
        h, p, d = write_tables(tmp_path, **tables)
        path = {"households": h, "persons": p, "days": d}[table]
        with pytest.raises(error) as err:
            assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)
        assert str(err.value) == f"{path}: row {k + 2}{message}", (chunk_rows, k)


def test_blank_runs_longer_than_a_chunk(tmp_path, chunk_rows):
    tables = chunked_tables()
    h, p, d = write_tables(tmp_path, **tables)
    plain = assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)
    blanks = [""] * (chunk_rows + 2)
    for name in ("households", "persons", "days"):
        lines = tables[name]
        tables[name] = lines[:1] + blanks + lines[1:3] + blanks + lines[3:] + blanks
    h, p, d = write_tables(tmp_path, **tables)
    raw = load_tables(h, p, d, "mini", mini_spec())
    assert raw.counts == {"households": 9, "persons": 9, "days": 9}
    ds = assemble(raw, mini_spec(), 2017)
    np.testing.assert_array_equal(ds.x, plain.x)
    np.testing.assert_array_equal(ds.y, plain.y)
    np.testing.assert_array_equal(ds.household_ids, plain.household_ids)
    lines = d.read_text().split("\n")
    lines[lines.index("h4,1,1,4,0")] = "h4,1,1,x,0"  # the fifth day: row 6, blank lines aside
    d.write_text("\n".join(lines))
    with pytest.raises(DataError, match=rf"^{d}: row 6: .*'x'"):
        assemble(load_tables(h, p, d, "mini", mini_spec()), mini_spec(), 2017)


def reordered_tables():
    """Mini-spec tables, each household with two persons whose ids repeat across
    households, and days whose households first appear out of table order."""
    households = ["hh,income"] + [f"h{i},{'LH'[i % 2]}" for i in range(6)]
    persons = ["hh,pp,age"] + [f"h{i},{j},{20 + 7 * i + j}" for i in range(6) for j in (1, 2)]
    days = ["hh,pp,dd,pkgs,food"] + [
        f"h{i},{j},{day},{(i + day) % 3},{'' if day % 2 else 1}"
        for i in (3, 1, 4, 0, 2) for j in (2, 1) for day in (1, 2)  # h5 has no days
    ]
    days.insert(2, days.pop(5))  # a day of h1 among those of h3
    days.append("h3,1,3,1,1")  # a household that comes back
    return {"households": households, "persons": persons, "days": days}


def test_output_does_not_depend_on_table_row_order(tmp_path, chunk_rows):
    """The household and person tables reversed, a household without travel
    days listed first: the saved ``.enc`` is byte-identical to the in-order
    ingest's, whose samples the per-cell oracle confirms."""
    tables = reordered_tables()
    h, p, d = write_tables(tmp_path, **tables)
    rc, out = run_ingest(tmp_path, h, p, d)
    assert rc == 0
    ds = EncodedDataset.load(out)
    x, y, household_ids = ingest_oracle(h, p, d, "mini", mini_spec())
    np.testing.assert_array_equal(ds.x, x)
    np.testing.assert_array_equal(ds.y, y)
    np.testing.assert_array_equal(ds.household_ids, household_ids)
    assert ds.households.tolist() == ["h3", "h1", "h4", "h0", "h2"]
    in_order = out.read_bytes()

    for name in ("households", "persons"):
        header, *rows = tables[name]
        tables[name] = [header] + rows[::-1]
    assert tables["households"][1].startswith("h5,")  # the household without days
    h, p, d = write_tables(tmp_path, **tables)
    out.unlink()
    assert run_ingest(tmp_path, h, p, d) == (0, out)
    assert out.read_bytes() == in_order


def test_person_of_another_household_is_unknown(tmp_path, chunk_rows):
    """Person ids repeat across households: a day naming an existing person id
    under a household that lacks it is a dangling reference at its row."""
    tables = reordered_tables()
    tables["persons"].remove("h1,2,29")
    k = tables["days"].index("h1,2,1,2,")
    h, p, d = write_tables(tmp_path, **tables)
    with pytest.raises(IngestionError) as err:
        load_tables(h, p, d, "mini", mini_spec())
    assert str(err.value) == f"{d}: row {k + 1}: travel day references unknown person ('h1', '2')"


def load_tables_peaks(tmp_path) -> tuple[int, int, int]:
    """Travel days read from about 30k rows, and the ``tracemalloc`` peaks of
    reading the day file alone into row lists and of ``load_tables``."""
    households, persons, days = ["hh,income"], ["hh,pp,age"], ["hh,pp,dd,pkgs,food"]
    for i in range(2000):
        hid = f"17{i:06d}"
        households.append(f"{hid},{'LH'[i % 2]}")
        for j in range(1, 3):
            pid = f"{hid}{j:02d}"
            persons.append(f"{hid},{pid},{20 + (i * 7 + j) % 60}")
            for day in range(1, 8 + (i + j) % 2):
                days.append(f"{hid},{pid},{day},{(i + day) % 4},{'' if day % 3 else 1}")
    h, p, d = write_tables(tmp_path, households, persons, days)
    tracemalloc.start()
    try:
        with open(d, newline="") as fh:
            rows = list(csv.reader(fh))
        _, rows_peak = tracemalloc.get_traced_memory()
        del rows
        tracemalloc.reset_peak()
        raw = load_tables(h, p, d, "mini", mini_spec())
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert raw.counts["days"] == len(days) - 1 > 29_000
    return raw.counts["days"], rows_peak, load_peak


def test_load_tables_memory_follows_distinct_values(tmp_path):
    """Holding a table as distinct values and codes, not as rows of strings.

    The tracemalloc peak of ``load_tables`` on about 30k travel days stays
    below half the peak of reading the day file alone into row lists.
    """
    _, rows_peak, load_peak = load_tables_peaks(tmp_path)
    assert load_peak < rows_peak / 2, (load_peak, rows_peak)


def test_load_tables_holds_each_id_once(tmp_path):
    """Key columns coded against the tables they reference as they are read,
    so each id string is held once, codes as narrow as their values allow,
    and travel days joined a block at a time: the ``load_tables`` peak stays
    below a third of the row lists'."""
    n_days, rows_peak, load_peak = load_tables_peaks(tmp_path)
    assert load_peak < rows_peak / 3, (load_peak / rows_peak, load_peak / n_days)
