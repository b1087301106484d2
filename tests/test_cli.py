import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveyfuse import (
    BucketMeanPredictor, DataError, EncodedDataset, EncodedStream, FeatureDictionary,
    FusionError, impute, subsample_compare,
)
from surveyfuse import attribution, cli, dataset, matching, synthesis
from surveyfuse.dataset import bit_mask, household_index, pack_rows
from surveyfuse.matching import impute_blocks
from surveyfuse.cli import (
    EXIT_DATA,
    EXIT_DICTIONARY_MISMATCH,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    _check_csv_ids,
    _load_totals_csv,
    _manifest_path,
    _Outputs,
    main,
)
from oracles import impute_oracle, totals_oracle


def run(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture
def generated(tmp_path):
    full = tmp_path / "full.enc"
    missing = tmp_path / "missing.enc"
    rc = run(
        "gen", "--households", 200, "--seed", 7,
        "--out-full", full, "--out-missing", missing,
    )
    assert rc == EXIT_OK
    return full, missing


def read_totals(path) -> dict[str, float]:
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {r["household_id"]: float(r["y_total"]) for r in rows}


def not_reached(*_, **__):
    raise AssertionError("work started before the output paths were checked")


class TestGen:
    def test_writes_datasets_and_manifest(self, generated, tmp_path):
        full, missing = generated
        assert full.exists() and missing.exists()
        manifest = json.loads((tmp_path / "full.enc.manifest.json").read_text())
        assert manifest["subcommand"] == "gen"
        assert manifest["seed"] == 7
        assert manifest["outputs"] == [str(full), str(missing)]
        ds = EncodedDataset.load(full)
        assert ds.n_missing == 0
        assert EncodedDataset.load(missing).n_missing > 0

    def test_manifest_records_peak_rss(self, generated, tmp_path):
        """The run's peak RSS in MiB: positive, and no more than the process's peak since."""
        peak = json.loads((tmp_path / "full.enc.manifest.json").read_text())["peak_rss_mb"]
        assert isinstance(peak, float)
        assert 1.0 < peak <= cli._peak_rss_mb()

    def test_seed_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--households", 10, "--out-full", tmp_path / "a.enc",
                "--out-missing", tmp_path / "b.enc")
        assert exc.value.code == 2

    def test_model_file(self, tmp_path):
        from surveyfuse import demo_model

        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(demo_model(missingness=1.0).to_json_dict()))
        rc = run(
            "gen", "--model", model_path, "--households", 20, "--seed", 1,
            "--out-full", tmp_path / "f.enc", "--out-missing", tmp_path / "m.enc",
        )
        assert rc == EXIT_OK
        assert EncodedDataset.load(tmp_path / "m.enc").n_missing > 0

    @pytest.mark.parametrize(
        "model_json",
        [[1, 2], "model", {"version": 1}, {"version": 1, "features": 3},
         {"version": 1, "features": [3]}],
    )
    def test_malformed_model_file_is_schema_error(self, tmp_path, capsys, model_json):
        """A model that is not an object, or whose features are not a list of objects,
        is exit 5 naming the file, not a traceback."""
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_json))
        rc = run(
            "gen", "--model", model_path, "--households", 20, "--seed", 1,
            "--out-full", tmp_path / "f.enc", "--out-missing", tmp_path / "m.enc",
        )
        assert rc == EXIT_DATA
        assert f"error: {model_path}: model " in capsys.readouterr().err
        assert not (tmp_path / "f.enc").exists() and not (tmp_path / "m.enc").exists()

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda o: o["features"][0].update(categories=3),
             "model feature 0 key 'categories' must be a list of strings"),
            (lambda o: o["features"][2].update(marginals="0.5"),
             "model feature 2 key 'marginals' must be a list of numbers"),
            (lambda o: o.update(propensity=3), "model key 'propensity' must be an object"),
            (lambda o: o.pop("propensity"), "model has no 'propensity'"),
            (lambda o: o["propensity"].update(base="0.3"),
             "model propensity key 'base' must be a number"),
            (lambda o: o["propensity"].update(effects={"Income": 3}),
             "model propensity key 'effects' must be an object of objects of numbers"),
            (lambda o: o["household_sizes"].update(sizes=[1.5]),
             "model household_sizes key 'sizes' must be a list of integers"),
            (lambda o: o.update(seed=True), "model key 'seed' must be an integer"),
        ],
    )
    def test_malformed_nested_model_field_is_schema_error(self, tmp_path, capsys, mutate, named):
        """A nested model field that is absent or of the wrong JSON type is exit 5,
        naming the file and the key, not a traceback."""
        from surveyfuse import demo_model

        model_json = demo_model().to_json_dict()
        mutate(model_json)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_json))
        rc = run(
            "gen", "--model", model_path, "--households", 20, "--seed", 1,
            "--out-full", tmp_path / "f.enc", "--out-missing", tmp_path / "m.enc",
        )
        assert rc == EXIT_DATA
        assert f"error: {model_path}: {named}" in capsys.readouterr().err
        assert not (tmp_path / "f.enc").exists() and not (tmp_path / "m.enc").exists()


class TestDescribe:
    def test_prints_and_writes_report(self, generated, tmp_path, capsys):
        full, _ = generated
        out = tmp_path / "report.json"
        assert run("describe", "--data", full, "--out", out) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["n_households"] == 200
        printed = capsys.readouterr().out
        assert '"n_households": 200' in printed

    def test_missing_input(self, tmp_path):
        assert run("describe", "--data", tmp_path / "nope.enc") == EXIT_MISSING_INPUT

    def test_manifest_records_the_dataset_shape(self, generated, tmp_path):
        full, _ = generated
        out = tmp_path / "report.json"
        assert run("describe", "--data", full, "--out", out) == EXIT_OK
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        ds = EncodedDataset.load(full)
        assert manifest["datasets"] == {
            str(full): {"n_samples": ds.n_samples, "n_households": 200}
        }

    def test_directory_as_data_is_a_data_error(self, tmp_path, capsys):
        assert run("describe", "--data", tmp_path) == EXIT_DATA
        assert "not a readable" in capsys.readouterr().err

    def test_invalid_enc_contents_are_data_error(self, generated, tmp_path, capsys):
        full, _ = generated
        ds = EncodedDataset.load(full)
        ds.words[5] = bit_mask(0, ds.dictionary.dimension, ds.dictionary.dimension)  # all hot
        bad = tmp_path / "bad.enc"
        ds.save(bad)
        out = tmp_path / "report.json"
        assert run("describe", "--data", bad, "--out", out) == EXIT_DATA
        assert "x row 5" in capsys.readouterr().err
        assert not out.exists()


class TestImpute:
    def test_outputs_and_weight(self, generated, tmp_path):
        full, missing = generated
        out = tmp_path / "imputed.csv"
        rc = run("impute", "--source", missing, "--candidate", full, "--out", out)
        assert rc == EXIT_OK
        hh_csv = tmp_path / "imputed.households.csv"
        assert out.exists() and hh_csv.exists()
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        source = EncodedDataset.load(missing)
        assert len(rows) == source.n_samples
        assert set(rows[0]) == {
            "household_id", "sample_index", "matched_bucket", "distance", "y_imputed"
        }
        totals = read_totals(hh_csv)
        assert len(totals) == 200
        assert all(v >= 0 for v in totals.values())

    def test_manifest_records_the_match(self, generated, tmp_path):
        full, missing = generated
        out = tmp_path / "imputed.csv"
        assert run("impute", "--source", missing, "--candidate", full, "--out", out) == EXIT_OK
        with open(out) as fh:
            distances = [float(r["distance"]) for r in csv.DictReader(fh)]
        manifest = json.loads((tmp_path / "imputed.csv.manifest.json").read_text())
        (match,) = manifest["matches"]
        assert manifest["datasets"] == {
            str(path): {"n_samples": ds.n_samples, "n_households": ds.households.size}
            for path, ds in ((missing, EncodedDataset.load(missing)),
                             (full, EncodedDataset.load(full)))
        }
        histogram = match["distance_histogram"]
        assert len(histogram) == EncodedDataset.load(missing).x.shape[1] + 1
        assert sum(histogram) == match["query_rows"] == len(distances)
        assert histogram[0] == distances.count(0.0)
        assert 0 < match["n_exact_query"] <= match["unique_query_rows"] <= match["query_rows"]
        # each unique query the distance-1 join answered stands for rows at distance 1/d
        assert 0 <= match["n_near_query"] <= histogram[1]
        assert match["n_exact_query"] + match["n_near_query"] <= match["unique_query_rows"]
        assert 0 < match["unique_target_rows"]
        assert match["target_rows"] == match["unique_target_rows"]  # buckets are distinct

    def test_dictionary_mismatch_leaves_no_output(self, generated, tmp_path):
        full, missing = generated
        other = tmp_path / "other.enc"
        ds = EncodedDataset.load(full)
        from surveyfuse import FeatureDictionary

        small = FeatureDictionary(features=("F",), categories=(("a", "b"),))
        EncodedDataset(
            dictionary=small,
            survey_id="other",
            year=2017,
            households=np.array(["h0"]),
            household_code=np.zeros(1, np.int32),
            words=pack_rows(np.array([[1, 0]], dtype=np.uint8)),
            y=np.array([1.0]),
        ).save(other)
        out = tmp_path / "never.csv"
        rc = run("impute", "--source", missing, "--candidate", other, "--out", out)
        assert rc == EXIT_DICTIONARY_MISMATCH
        assert not out.exists()

    @staticmethod
    def with_household(missing, tmp_path, hid: str) -> tuple[Path, list[str]]:
        """A copy of ``missing`` whose fourth household id is ``hid``."""
        ds = EncodedDataset.load(missing)
        ids = ds.households.tolist()
        ids[3] = hid
        path = tmp_path / "odd.enc"
        EncodedDataset(
            ds.dictionary, ds.survey_id, ds.year, np.array(ids), ds.household_code, ds.words, ds.y
        ).save(path)
        return path, ids

    @pytest.mark.parametrize(
        "hid",
        ["a,b", "a\rb", "a\nb", "a\x00b", " h1", "\th1", "\u3000h1", ","],
        ids=["comma", "cr", "lf", "nul", "space", "tab", "ideographic-space", "only-a-comma"],
    )
    def test_a_household_id_no_csv_gives_back_is_refused(
        self, generated, tmp_path, capsys, monkeypatch, hid
    ):
        """The totals reader splits a line at its comma, reads CR and LF as
        line ends and strips leading whitespace: such an id is refused
        before any match, and nothing is written."""
        full, missing = generated
        source, _ = self.with_household(missing, tmp_path, hid)
        monkeypatch.setattr(cli, "impute_blocks", not_reached)
        before = sorted(tmp_path.iterdir())
        rc = run("impute", "--source", source, "--candidate", full, "--out", tmp_path / "i.csv")
        assert rc == EXIT_DATA
        assert f"household id {hid!r} cannot be written to a CSV" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(st.sampled_from("ab ,\r\n\x00\t\u3000é"), max_size=5), max_size=8))
    def test_the_id_check_names_the_first_id_the_rule_refuses(self, ids):
        """Ids of unequal length are NUL-padded in the array: padding is no
        NUL of an id's own."""
        households = np.array(ids, dtype=np.str_)  # numpy drops trailing NULs
        bad = [h for h in households.tolist() if set(h) & set(",\r\n\x00") or h[:1].isspace()]
        if bad:
            with pytest.raises(DataError, match=f"^s.enc: household id {re.escape(repr(bad[0]))} "):
                _check_csv_ids("s.enc", households)
        else:
            _check_csv_ids("s.enc", households)

    def test_inner_and_trailing_spaces_round_trip(self, generated, tmp_path):
        full, missing = generated
        source, ids = self.with_household(missing, tmp_path, "h 1 ")
        out, totals = tmp_path / "i.csv", tmp_path / "i.households.csv"
        assert run("impute", "--source", source, "--candidate", full, "--out", out) == EXIT_OK
        assert sorted(_load_totals_csv(totals)[0].tolist()) == sorted(ids)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["household_id"] for r in rows} == set(ids)
        assert run("evaluate", "--imputed", totals, "--truth", totals, "--seed", 1,
                   "--out", tmp_path / "e.json") == EXIT_OK

    def test_random_tie_break_needs_seed(self, generated, tmp_path):
        full, missing = generated
        rc = run(
            "impute", "--source", missing, "--candidate", full,
            "--tie-break", "random", "--out", tmp_path / "x.csv",
        )
        assert rc == EXIT_DATA

    def test_method_flag_removed(self, generated, tmp_path):
        full, missing = generated
        with pytest.raises(SystemExit) as exc:
            run("impute", "--source", missing, "--candidate", full,
                "--method", "scan", "--out", tmp_path / "x.csv")
        assert exc.value.code == 2


IMPUTE_FLAGS = {
    "index": [],
    "random": ["--tie-break", "random", "--seed", "7"],
    "impute-all": ["--impute-all"],
    "household-weight": ["--household-weight", "--tie-break", "random", "--seed", "3"],
    "no-augment": ["--no-augment"],
}


def library_kwargs(flags: list) -> dict:
    """The ``impute`` keywords of a list of CLI flags."""
    seed = flags[flags.index("--seed") + 1] if "--seed" in flags else None
    return {
        "impute_all": "--impute-all" in flags,
        "household_weight": "--household-weight" in flags,
        "tie_break": "random" if seed else "index",
        "seed": None if seed is None else int(seed),
    }


@pytest.fixture
def fractional(generated, tmp_path):
    """``(source, candidate)`` paths: the generated files with non-integer
    targets ``k / 7 + 0.1`` (the source's missing ones kept missing), whose
    float sums change with their order, and a copy of the source with its
    rows shuffled, so that its ids do not ascend.  Returns a dict of paths
    keyed "ascending", "shuffled" and "candidate"."""
    full, missing = generated
    rng = np.random.default_rng(11)
    paths = {}
    for name, path in (("ascending", missing), ("candidate", full)):
        ds = EncodedDataset.load(path)
        y = rng.integers(0, 30, ds.n_samples) / 7 + 0.1
        y[np.isnan(ds.y)] = np.nan
        paths[name] = tmp_path / f"{name}.enc"
        EncodedDataset(
            ds.dictionary, ds.survey_id, ds.year, ds.households, ds.household_code, ds.words, y
        ).save(paths[name])
    ds = EncodedDataset.load(paths["ascending"])
    ds.subset(rng.permutation(ds.n_samples)).save(tmp_path / "shuffled.enc")
    paths["shuffled"] = tmp_path / "shuffled.enc"
    return paths


IMPUTE_HEADER = ["household_id", "sample_index", "matched_bucket", "distance", "y_imputed"]


class TestStreamedImpute:
    """The CLI reads ``--source`` once as a stream and writes its CSVs a match
    block at a time; the library ``impute`` collects the same blocks."""

    @staticmethod
    def library(source_path, candidate_path, flags):
        """``impute`` of the loaded files, the pool augmented as the CLI's."""
        source = EncodedDataset.load(source_path)
        candidate = EncodedDataset.load(candidate_path)
        if "--no-augment" not in flags:
            candidate = matching.augment_candidate(source, candidate)
        return source, impute(source, candidate, **library_kwargs(flags))

    @pytest.mark.parametrize("blocks", [(1, 1, 1), (3, 3, 3), (3, 5, 2), None],
                             ids=["1", "3", "3-5-2", "default"])
    @pytest.mark.parametrize("order", ["ascending", "shuffled"])
    @pytest.mark.parametrize("flags", list(IMPUTE_FLAGS))
    def test_streamed_bytes_equal_the_library_on_the_loaded_file(
        self, fractional, tmp_path, monkeypatch, flags, order, blocks
    ):
        """Read blocks (``_PACK_ROWS``), match blocks (``_QUERY_BLOCK``) and
        CSV chunks (``CSV_CHUNK_ROWS``) of 1, 3 or 5 rows put block edges
        inside households and in the middle of one another."""
        flags = IMPUTE_FLAGS[flags]
        source, result = self.library(fractional[order], fractional["candidate"], flags)
        a = result.assignment
        want = csv_reference(IMPUTE_HEADER, [
            source.household_ids, np.arange(source.n_samples), a.target_index, a.distance,
            result.sample_y,
        ])
        want_households = csv_reference(
            ["household_id", "y_total"], [result.household_ids, result.household_y]
        )
        if blocks is not None:
            for (module, name), rows in zip(
                [(dataset, "_PACK_ROWS"), (matching, "_QUERY_BLOCK"), (cli, "CSV_CHUNK_ROWS")],
                blocks,
            ):
                monkeypatch.setattr(module, name, rows)
        out = tmp_path / "i.csv"
        assert run("impute", "--source", fractional[order], "--candidate",
                   fractional["candidate"], *flags, "--out", out) == EXIT_OK
        assert out.read_bytes() == want
        assert (tmp_path / "i.households.csv").read_bytes() == want_households
        manifest = json.loads((tmp_path / "i.csv.manifest.json").read_text())
        assert manifest["matches"] == [a.diagnostics()]
        assert manifest["datasets"][str(fractional[order])] == {
            "n_samples": source.n_samples, "n_households": source.n_households()
        }

    @pytest.mark.parametrize("flags", list(IMPUTE_FLAGS))
    def test_cli_and_library_equal_the_oracle(self, fractional, tmp_path, monkeypatch, flags):
        """Every imputed value, matched bucket, distance and household total,
        from the CLI, from ``impute`` of a dataset and of a coded stream, is
        the oracle's, compared with ``==``."""
        flags = IMPUTE_FLAGS[flags]
        kwargs = library_kwargs(flags)
        source = EncodedDataset.load(fractional["shuffled"])
        candidate = EncodedDataset.load(fractional["candidate"])
        values, bucket, count, totals = impute_oracle(
            source.x, source.y, source.household_ids, candidate.x, candidate.y,
            augment="--no-augment" not in flags, impute_all=kwargs["impute_all"],
            household_weight=kwargs["household_weight"], seed=kwargs["seed"],
        )
        pool = candidate if "--no-augment" in flags else matching.augment_candidate(
            source, candidate
        )
        for given in (source, EncodedStream(fractional["shuffled"], coded=True)):
            result = impute(given, pool, **kwargs)
            assert result.sample_y.tolist() == values
            assert result.assignment.target_index.tolist() == bucket
            assert result.assignment.hamming_count.tolist() == count
            assert list(zip(result.household_ids.tolist(), result.household_y.tolist())) == totals
        monkeypatch.setattr(matching, "_QUERY_BLOCK", 3)
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 2)
        out = tmp_path / "i.csv"
        assert run("impute", "--source", fractional["shuffled"], "--candidate",
                   fractional["candidate"], *flags, "--out", out) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        d = source.dictionary.dimension
        assert [r["y_imputed"] for r in rows] == list(map(repr, values))
        assert [int(r["matched_bucket"]) for r in rows] == bucket
        assert [r["distance"] for r in rows] == [repr(k / d) for k in count]
        lines = (tmp_path / "i.households.csv").read_text().splitlines()[1:]
        assert lines == [f"{h},{t!r}" for h, t in totals]

    def test_a_stream_without_coded_ids_is_refused(self, fractional):
        candidate = EncodedDataset.load(fractional["candidate"])
        with EncodedDataset.stream(fractional["ascending"]) as stream:
            with pytest.raises(FusionError, match="household ids coded"):
                impute(stream, candidate)

    def test_an_empty_source_writes_the_headers(self, generated, tmp_path, capsys):
        full, _ = generated
        empty = empty_copy(full, tmp_path)
        out = tmp_path / "i.csv"
        assert run("impute", "--source", empty, "--candidate", full, "--out", out) == EXIT_OK
        assert out.read_text() == ",".join(IMPUTE_HEADER) + "\n"
        assert (tmp_path / "i.households.csv").read_text() == "household_id,y_total\n"
        donors = EncodedDataset.load(full).n_samples
        assert f"imputed 0 of 0 samples from {donors} donors" in capsys.readouterr().out
        (match,) = json.loads((tmp_path / "i.csv.manifest.json").read_text())["matches"]
        assert match["query_rows"] == 0 and sum(match["distance_histogram"]) == 0

    @pytest.mark.parametrize("augment", [False, True])
    def test_an_empty_candidate(self, generated, tmp_path, capsys, augment):
        """An empty candidate is exit 5 with no output, unless the source's
        labeled rows make the pool."""
        full, missing = generated
        empty = empty_copy(full, tmp_path)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        flags = [] if augment else ["--no-augment"]
        rc = run("impute", "--source", missing, "--candidate", empty, *flags,
                 "--out", out_dir / "i.csv")
        if augment:
            labeled = EncodedDataset.load(missing).labeled().n_samples
            assert rc == EXIT_OK
            assert f"from {labeled} donors" in capsys.readouterr().out
        else:
            assert rc == EXIT_DATA
            assert "candidate dataset is empty" in capsys.readouterr().err
            assert list(out_dir.iterdir()) == []

    def test_a_source_of_another_dictionary_is_refused_before_its_rows(
        self, generated, tmp_path, capsys
    ):
        """Exit 4 even where the source's last row is damaged: the
        dictionaries are compared before its rows are read."""
        full, missing = generated
        damaged, _ = damaged_copy(missing, tmp_path, "last row two-hot", capsys)
        rename_a_feature(damaged)
        out = tmp_path / "i.csv"
        assert run("impute", "--source", damaged, "--candidate", full,
                   "--out", out) == EXIT_DICTIONARY_MISMATCH
        assert "different feature dictionaries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["last row two-hot", "last target negative"])
    def test_a_damaged_last_block_leaves_no_output(
        self, generated, tmp_path, capsys, monkeypatch, damage
    ):
        """A fault in the source's last row, read after every other block, is
        exit 5 with the message a whole load gives, and no CSV or manifest
        is left; so is a damaged candidate, named first when both are."""
        full, missing = generated
        damaged, described = damaged_copy(missing, tmp_path, damage, capsys)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        monkeypatch.setattr(dataset, "_PACK_ROWS", 64)  # ten read blocks
        assert run("impute", "--source", damaged, "--candidate", full,
                   "--out", out_dir / "i.csv") == EXIT_DATA
        assert capsys.readouterr().err == described
        assert list(out_dir.iterdir()) == []
        other = "last target negative" if damage == "last row two-hot" else "last row two-hot"
        bad_candidate, candidate_error = damaged_copy(full, tmp_path / "c", other, capsys)
        assert run("impute", "--source", damaged, "--candidate", bad_candidate,
                   "--out", out_dir / "i.csv") == EXIT_DATA
        assert capsys.readouterr().err == candidate_error
        assert list(out_dir.iterdir()) == []


    def test_streamed_impute_holds_no_per_row_float_column(self, tmp_path):
        """On a 120k-row file (d = 26, three rows a household, 4% labeled), the
        streamed path peaks at least 16 bytes a row, the targets and one
        per-row float64 column, under the load path, under ``tracemalloc``:
        ``impute_blocks`` of a coded stream with its blocks read against
        ``load`` and ``impute``, and the CLI against ``load``, ``impute`` and
        the same two CSVs written from whole columns."""
        n = 120_000
        rng = np.random.default_rng(5)
        sizes = (4, 6, 5, 3, 8)
        dictionary = FeatureDictionary(
            tuple(f"F{i}" for i in range(5)), tuple(tuple(f"c{j}" for j in range(k)) for k in sizes)
        )
        paths = {}
        for name, rows, labeled in (("s", n, 0.04), ("c", 2_000, 1.0)):
            x = np.zeros((rows, sum(sizes)), np.uint8)
            hot = np.cumsum((0,) + sizes[:-1]) + rng.integers(0, sizes, (rows, 5))
            x[np.arange(rows)[:, None], hot] = 1
            y = rng.integers(0, 30, rows) / 7 + 0.1
            y[rng.random(rows) > labeled] = np.nan
            ids = np.array([f"h{i // 3:06d}" for i in range(rows)])
            paths[name] = tmp_path / f"{name}.enc"
            EncodedDataset(dictionary, name, 2017, *household_index(ids), pack_rows(x), y).save(
                paths[name]
            )

        def peak(fn) -> int:
            fn()  # a first call, so that imports and caches are not counted
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def streamed():
            with EncodedStream(paths["s"], coded=True) as source:
                _, blocks = impute_blocks(source, EncodedDataset.load(paths["c"]), augment=True)
                for _ in blocks:
                    pass

        def loaded():
            source = EncodedDataset.load(paths["s"])
            return source, impute(
                source, matching.augment_candidate(source, EncodedDataset.load(paths["c"]))
            )

        def cli_streamed():
            assert run("impute", "--source", paths["s"], "--candidate", paths["c"],
                       "--out", tmp_path / "i.csv") == EXIT_OK

        def cli_loaded():
            with outputs() as staged:
                source, result = loaded()
                a = result.assignment
                staged.csv(tmp_path / "j.csv", IMPUTE_HEADER, [[
                    (source.households, source.household_code), np.arange(n),
                    (np.arange(a.n_target), a.target_index),
                    (np.arange(27) / 26, a.hamming_count), result.sample_y,
                ]])
                staged.csv(tmp_path / "j.households.csv", ["household_id", "y_total"],
                           [[result.household_ids, result.household_y]])

        assert peak(streamed) <= peak(loaded) - 16 * n
        assert peak(cli_streamed) <= peak(cli_loaded) - 16 * n
        assert (tmp_path / "i.csv").read_bytes() == (tmp_path / "j.csv").read_bytes()


class TestEvaluateAndSpike:
    def make_totals(self, generated, tmp_path):
        full, missing = generated
        imputed_csv = tmp_path / "imputed.csv"
        run("impute", "--source", missing, "--candidate", full, "--out", imputed_csv)
        truth_csv = tmp_path / "truth.csv"
        totals = EncodedDataset.load(full).household_totals()
        with open(truth_csv, "w") as fh:
            fh.write("household_id,y_total\n")
            for h, t in totals.items():
                fh.write(f"{h},{t!r}\n")
        return tmp_path / "imputed.households.csv", truth_csv

    def test_evaluate_report(self, generated, tmp_path):
        imputed, truth = self.make_totals(generated, tmp_path)
        out = tmp_path / "report.json"
        rc = run(
            "evaluate", "--imputed", imputed, "--truth", truth,
            "--cutoffs", "10,20", "--seed", 3, "--out", out,
            "--sorted-csv", tmp_path / "sorted.csv",
        )
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["cutoffs"] == [10, 20]
        assert len(report["per_cutoff"]) == 2
        assert (tmp_path / "sorted.csv").exists()

    def test_evaluate_identical_inputs_zero(self, generated, tmp_path):
        _, truth = self.make_totals(generated, tmp_path)
        out = tmp_path / "self.json"
        rc = run("evaluate", "--imputed", truth, "--truth", truth,
                 "--cutoffs", "5", "--seed", 0, "--out", out)
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["per_cutoff"][0]["mse_mean"] == 0.0

    @pytest.mark.parametrize("bad", ["nan", "inf", "-2", "xyz"])
    def test_evaluate_and_spike_reject_invalid_totals(self, generated, tmp_path, capsys, bad):
        _, truth = self.make_totals(generated, tmp_path)
        lines = truth.read_text().splitlines()
        lines[3] = lines[3].split(",")[0] + "," + bad
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        rc = run("evaluate", "--imputed", broken, "--truth", truth,
                 "--cutoffs", "5", "--seed", 0, "--out", out)
        assert rc == EXIT_DATA
        assert not out.exists()
        rc = run("spike", "--a", truth, "--b", broken, "--n", 20, "--seed", 0)
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{broken}: line 4" in err and repr(bad) in err

    def test_evaluate_and_spike_reject_line_without_comma(self, generated, tmp_path, capsys):
        _, truth = self.make_totals(generated, tmp_path)
        lines = truth.read_text().splitlines()
        lines[3] = "h_no_comma"
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines) + "\n")
        says = f"{broken}: line 4: expected household_id,y_total"
        rc = run("evaluate", "--imputed", broken, "--truth", truth,
                 "--cutoffs", "5", "--seed", 0, "--out", tmp_path / "report.json")
        assert rc == EXIT_DATA
        assert says in capsys.readouterr().err
        rc = run("spike", "--a", broken, "--b", truth, "--n", 20, "--seed", 0)
        assert rc == EXIT_DATA
        assert says in capsys.readouterr().err

    def test_evaluate_and_spike_reject_a_nul_character(self, tmp_path, capsys):
        """numpy strings drop trailing NULs, so ``a\x00`` must not read as ``a``:
        the line holding the NUL is named, as the per-line oracle names it."""
        nul = tmp_path / "nul.csv"
        nul.write_bytes(b"household_id,y_total\na\x00,1\na,2\n")
        with pytest.raises(DataError, match=f"^{nul}: line 2: contains a NUL character$"):
            totals_oracle(nul)
        out = tmp_path / "report.json"
        rc = run("evaluate", "--imputed", nul, "--truth", nul, "--n", 1,
                 "--cutoffs", "5", "--seed", 0, "--out", out)
        assert rc == EXIT_DATA
        assert not out.exists()
        assert f"{nul}: line 2: contains a NUL character" in capsys.readouterr().err
        assert run("spike", "--a", nul, "--b", nul, "--n", 1, "--seed", 0) == EXIT_DATA
        assert f"{nul}: line 2: contains a NUL character" in capsys.readouterr().err

    @pytest.mark.parametrize("via_config", [False, True])
    @pytest.mark.parametrize("cutoffs", ["10,x", "10,", ""])
    def test_bad_cutoffs_are_usage_error(
        self, generated, tmp_path, capsys, cutoffs, via_config
    ):
        imputed, truth = self.make_totals(generated, tmp_path)
        out = tmp_path / "report.json"
        args = ["evaluate", "--imputed", imputed, "--truth", truth, "--seed", 0, "--out", out]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"cutoffs": cutoffs}))
            args += ["--config", cfg]
        else:
            args += ["--cutoffs", cutoffs]
        with pytest.raises(SystemExit) as exc:
            run(*args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--cutoffs" in err and f"expected comma-separated integers, got {cutoffs!r}" in err
        assert not out.exists()

    def test_nonpositive_cutoff_is_data_error(self, generated, tmp_path, capsys):
        imputed, truth = self.make_totals(generated, tmp_path)
        rc = run("evaluate", "--imputed", imputed, "--truth", truth, "--cutoffs", "10,0",
                 "--seed", 0, "--out", tmp_path / "report.json")
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("cutoffs", ["10,20", "2"])
    def test_sorted_csv_holds_the_reports_draws(self, generated, tmp_path, cutoffs):
        imputed, truth = self.make_totals(generated, tmp_path)
        sorted_csv = tmp_path / "sorted.csv"
        assert run("evaluate", "--imputed", imputed, "--truth", truth, "--cutoffs", cutoffs,
                   "--seed", 3, "--out", tmp_path / "r.json",
                   "--sorted-csv", sorted_csv) == EXIT_OK
        report = subsample_compare(
            _load_totals_csv(imputed), _load_totals_csv(truth), n=200,
            cutoffs=tuple(int(c) for c in cutoffs.split(",")), seed=3,
        )
        with open(sorted_csv) as fh:
            rows = list(csv.DictReader(fh))
        k = min(3, report.cutoffs[-1])
        assert list(rows[0]) == ["rank", "truth_sorted"] + [f"draw_{i}" for i in range(k)]
        assert [int(r["rank"]) for r in rows] == list(range(200))
        truth_sorted = np.array([float(r["truth_sorted"]) for r in rows])
        draws = np.array([[float(r[f"draw_{i}"]) for r in rows] for i in range(k)])
        np.testing.assert_array_equal(truth_sorted, report.truth_sorted)
        np.testing.assert_array_equal(draws, report.sorted_draws)
        diff = draws[0] - truth_sorted
        assert np.mean(diff * diff) == report.iteration_mse[0]

    def test_spike(self, generated, tmp_path, capsys):
        imputed, truth = self.make_totals(generated, tmp_path)
        out = tmp_path / "spike.json"
        rc = run("spike", "--a", truth, "--b", truth, "--n", 50, "--seed", 2,
                 "--out", out)
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["n"] == 50
        assert "spike sorted-MSE" in capsys.readouterr().out


class TestSynthesize:
    def test_end_to_end(self, tmp_path, capsys):
        paths = {}
        for name, seed, hh in [("candidate", 1, 80), ("source1", 2, 150), ("source2", 3, 60)]:
            full = tmp_path / f"{name}.enc"
            run("gen", "--households", hh, "--seed", seed,
                "--out-full", full, "--out-missing", tmp_path / f"{name}-m.enc")
            paths[name] = full
        out = tmp_path / "synth.enc"
        rc = run(
            "synthesize", "--source2", paths["source2"], "--source1", paths["source1"],
            "--candidate", paths["candidate"], "--survey-id", "synth2021",
            "--year", 2021, "--out", out,
        )
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        ds = EncodedDataset.load(out)
        assert ds.survey_id == "synth2021"
        assert ds.n_samples > 0
        prov = tmp_path / "synth.provenance.csv"
        with open(prov) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == ds.n_samples
        assert set(rows[0]) == {"bucket_id", "n_S", "n_G_total", "y_synth"}
        manifest = json.loads((tmp_path / "synth.enc.manifest.json").read_text())
        mu1, mu2 = manifest["matches"]
        assert set(manifest["datasets"]) == {
            str(paths[k]) for k in ("source2", "source1", "candidate")
        }
        for path, shape in manifest["datasets"].items():
            loaded = EncodedDataset.load(path)
            assert shape == {"n_samples": loaded.n_samples, "n_households": loaded.n_households()}
        synth = synthesis.generate_future(
            *(EncodedDataset.load(paths[k]) for k in ("source2", "source1", "candidate"))
        )
        assert manifest["reachable_buckets"] == synth.n_entries == ds.n_samples
        assert manifest["covered_households"] == len(synth.covered_households) > 0
        assert f"covering {manifest['covered_households']} donor households" in printed
        assert mu1["query_rows"] == EncodedDataset.load(paths["source1"]).n_samples
        assert mu2["query_rows"] == EncodedDataset.load(paths["source2"]).n_samples
        assert mu2["target_rows"] == mu1["query_rows"]
        for match in (mu1, mu2):
            assert sum(match["distance_histogram"]) == match["query_rows"]
            assert 0 < match["unique_target_rows"] <= match["target_rows"]

    def test_sources_without_ids_give_the_full_load_output(self, generated, tmp_path, capsys):
        """The CLI reads both sources as streams, without household ids; its
        artifacts are byte for byte those of ``generate_future`` on full
        loads, and the manifest counts each file's own samples and households.  The sources'
        rows are shuffled, so their ids do not ascend and their runs of equal
        ids outnumber their households."""
        full, missing = generated
        paths = {"candidate": full}
        for name, src, seed in [("source2", missing, 1), ("source1", full, 2)]:
            ds = EncodedDataset.load(src)
            ds.subset(np.random.default_rng(seed).permutation(ds.n_samples)).save(
                tmp_path / f"{name}.enc"
            )
            paths[name] = tmp_path / f"{name}.enc"
        loaded = {k: EncodedDataset.load(p) for k, p in paths.items()}
        for k in ("source2", "source1"):
            ids = loaded[k].household_ids
            assert (ids[1:] < ids[:-1]).any()
            assert np.count_nonzero(ids[1:] != ids[:-1]) + 1 > loaded[k].n_households()
        out = tmp_path / "synth.enc"
        assert run("synthesize", "--source2", paths["source2"], "--source1", paths["source1"],
                   "--candidate", paths["candidate"], "--out", out) == EXIT_OK
        capsys.readouterr()
        synth = synthesis.generate_future(*(loaded[k] for k in ("source2", "source1", "candidate")))
        synth.to_encoded_dataset("synthetic", 0).save(tmp_path / "reference.enc")
        assert out.read_bytes() == (tmp_path / "reference.enc").read_bytes()
        assert (tmp_path / "synth.provenance.csv").read_bytes() == csv_reference(
            ["bucket_id", "n_S", "n_G_total", "y_synth"],
            [synth.bucket_index, synth.n_matched_samples, synth.n_matched_donors, synth.y],
        )
        manifest = json.loads((tmp_path / "synth.enc.manifest.json").read_text())
        assert manifest["datasets"] == {
            str(p): {"n_samples": loaded[k].n_samples, "n_households": loaded[k].n_households()}
            for k, p in paths.items()
        }


    @pytest.mark.parametrize("damage", ["last row two-hot", "last target negative"])
    def test_a_damaged_source2_is_refused_as_describe_refuses_it(
        self, generated, tmp_path, capsys, damage
    ):
        """Source2 is read from its file as it is matched, and each of its
        rows is checked: a fault in its last row is exit 5 with the message
        a whole load gives, and leaves nothing in the output directory."""
        full, missing = generated
        damaged, described = damaged_copy(missing, tmp_path, damage, capsys)
        out_dir = tmp_path / "synth-out"
        out_dir.mkdir()
        assert run("synthesize", "--source2", damaged, "--source1", full, "--candidate", full,
                   "--out", out_dir / "s.enc") == EXIT_DATA
        assert capsys.readouterr().err == described
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("damage", ["last row two-hot", "last target negative"])
    def test_a_damaged_source1_is_refused_as_describe_refuses_it(
        self, generated, tmp_path, capsys, damage
    ):
        """Source1 is streamed too, and read to its end before anything of
        the run's own can fail; with source2 damaged otherwise as well,
        source1's fault, met first, is named."""
        full, missing = generated
        other = "last target negative" if damage == "last row two-hot" else "last row two-hot"
        damaged_source2, _ = damaged_copy(missing, tmp_path / "s2", other, capsys)
        damaged, described = damaged_copy(missing, tmp_path, damage, capsys)
        out_dir = tmp_path / "synth-out"
        out_dir.mkdir()
        for source2 in (full, damaged_source2):
            assert run("synthesize", "--source2", source2, "--source1", damaged,
                       "--candidate", full, "--out", out_dir / "s.enc") == EXIT_DATA
            assert capsys.readouterr().err == described
            assert list(out_dir.iterdir()) == []

    def test_a_source1_of_another_dictionary_is_refused_before_its_rows(
        self, generated, tmp_path, capsys
    ):
        """A source1 encoded with another dictionary is exit 4 even where
        its rows are damaged: the dictionaries are compared before they
        are read."""
        full, missing = generated
        damaged, _ = damaged_copy(missing, tmp_path, "last row two-hot", capsys)
        rename_a_feature(damaged)
        out = tmp_path / "s.enc"
        assert run("synthesize", "--source2", full, "--source1", damaged, "--candidate", full,
                   "--out", out) == EXIT_DICTIONARY_MISMATCH
        assert "different feature dictionaries" in capsys.readouterr().err
        assert not out.exists()


def rename_a_feature(path) -> None:
    """Rewrite an ``.enc`` file's dictionary, and its hash, with its first
    feature renamed: the same rows under another dictionary."""
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    meta = json.loads(members["meta.json"])
    meta["dictionary"]["features"][0]["name"] = "Renamed"
    meta["dictionary_hash"] = FeatureDictionary.from_json_dict(meta["dictionary"]).hash()
    members["meta.json"] = json.dumps(meta).encode()
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, blob in members.items():
            zf.writestr(name, blob)


def empty_copy(path, tmp_path) -> Path:
    """An ``.enc`` file of no rows under the dictionary of ``path``."""
    ds = EncodedDataset.load(path)
    empty = tmp_path / "empty.enc"
    EncodedDataset(
        ds.dictionary, "empty", 2017, np.array([], dtype=str), np.array([], np.int32),
        ds.words[:0], ds.y[:0],
    ).save(empty)
    return empty


def damaged_copy(path, tmp_path, damage: str, capsys) -> tuple[Path, str]:
    """A copy of ``path`` whose last row is two-hot or whose last target is
    negative, and the stderr of a run refused for it (exit 5): a whole
    load's error, which the streamed ``describe`` gives too."""
    ds = EncodedDataset.load(path)
    x, y = ds.x, ds.y.copy()
    if damage == "last row two-hot":
        sl = ds.dictionary.group_slices()[0]
        x[-1, sl] = 0
        x[-1, sl.start : sl.start + 2] = 1
    else:
        y[-1] = -1.0
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    for name, array in (("x.npy", x), ("y.npy", y)):
        buf = io.BytesIO()
        np.save(buf, array)
        members[name] = buf.getvalue()
    tmp_path.mkdir(exist_ok=True)
    damaged = tmp_path / "damaged.enc"
    with zipfile.ZipFile(damaged, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, blob in members.items():
            zf.writestr(name, blob)
    with pytest.raises(DataError) as refused:
        EncodedDataset.load(damaged)
    loaded = f"error: {refused.value}\n"
    expected = (f"x row {ds.n_samples - 1}: feature" if damage == "last row two-hot"
                else "target values must be >= 0")
    assert expected in loaded
    capsys.readouterr()
    assert run("describe", "--data", damaged) == EXIT_DATA
    assert capsys.readouterr().err == loaded
    return damaged, loaded


class TestAttribute:
    def test_report(self, generated, tmp_path):
        full, missing = generated
        out = tmp_path / "attr.json"
        rc = run(
            "attribute", "--data", missing, "--candidate", full,
            "--limit", 8, "--seed", 5, "--out", out,
        )
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["n_evaluated"] == 8
        assert report["efficiency_max_error"] < 1e-9
        features = {e["feature"] for e in report["entries"]}
        assert features <= {"Income", "Age", "Gender", "Education", "LifeCycle", "Employment"}
        # one match for the coalition table, one for v(full) and v(empty)
        manifest = json.loads((tmp_path / "attr.json.manifest.json").read_text())
        matches = manifest["matches"]
        assert [m["query_rows"] for m in matches] == [8 * 2**6, 8 * 2]
        assert [d["n_households"] for d in manifest["datasets"].values()] == [200, 200]
        assert set(manifest["datasets"]) == {str(missing), str(full)}
        assert len({m["target_rows"] for m in matches}) == 1  # both against the buckets

    @pytest.mark.parametrize("seed", [5, 11])
    def test_only_the_drawn_rows_are_loaded(self, generated, tmp_path, monkeypatch, seed, capsys):
        """For every limit, 0 and n + 5 included, the report is byte for byte
        ``attribute_dataset``'s on the whole file, while ``--data`` is not
        loaded but handed to it as a stream, of which it holds only the rows
        it draws, and the manifest gives the file's counts.  An empty file
        is still refused, even at ``--limit 0``."""
        full, missing = generated
        data = EncodedDataset.load(missing)
        candidate = EncodedDataset.load(full)
        n = data.n_samples
        held, loaded = [], []

        def attribute_dataset(ds, *args, **kwargs):
            held.append((type(ds), ds.n_samples))
            return attribution.attribute_dataset(ds, *args, **kwargs)

        load = cli._Outputs.load

        def load_input(self, path):
            loaded.append(path)
            return load(self, path)

        monkeypatch.setattr(cli, "attribute_dataset", attribute_dataset)
        monkeypatch.setattr(cli._Outputs, "load", load_input)
        for limit in (0, 1, 8, n, n + 5):
            out = tmp_path / f"attr-{limit}.json"
            rc = run("attribute", "--data", missing, "--candidate", full,
                     "--limit", limit, "--seed", seed, "--out", out)
            assert rc == EXIT_OK
            want = attribution.attribute_dataset(
                data, BucketMeanPredictor(candidate.labeled()), sample_limit=limit, seed=seed
            )
            text = json.dumps(want.to_json_dict(), sort_keys=True, indent=2) + "\n"
            assert out.read_bytes() == text.encode("utf-8")
            manifest = json.loads(_manifest_path(out).read_text())
            assert manifest["datasets"][str(missing)] == {
                "n_samples": n, "n_households": data.n_households()
            }
        assert held == [(EncodedStream, n)] * 5
        assert loaded == [str(full)] * 5  # the candidate alone
        data.subset(np.arange(0)).save(tmp_path / "empty.enc")
        for limit in (0, 3):
            out = tmp_path / f"empty-{limit}.json"
            rc = run("attribute", "--data", tmp_path / "empty.enc", "--candidate", full,
                     "--limit", limit, "--seed", seed, "--out", out)
            assert rc == EXIT_DATA
            assert "cannot attribute an empty dataset" in capsys.readouterr().err
            assert not out.exists()


    @pytest.mark.parametrize("damage", ["last row two-hot", "last target negative"])
    def test_a_damaged_data_file_is_refused_as_describe_refuses_it(
        self, generated, tmp_path, capsys, damage
    ):
        """``--data`` is streamed, and each of its rows is checked, drawn or
        not: a fault in its last row is exit 5 with a whole load's message."""
        full, missing = generated
        damaged, described = damaged_copy(missing, tmp_path, damage, capsys)
        out = tmp_path / "attr.json"
        assert run("attribute", "--data", damaged, "--candidate", full, "--limit", 1,
                   "--seed", 5, "--out", out) == EXIT_DATA
        assert capsys.readouterr().err == described
        assert not out.exists()

    def test_predictor_flag_removed(self, generated, tmp_path, capsys):
        full, missing = generated
        out = tmp_path / "attr.json"
        with pytest.raises(SystemExit) as exc:
            run("attribute", "--data", missing, "--candidate", full, "--predictor",
                "bucket-mean", "--seed", 5, "--out", out)
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"predictor": "bucket-mean"}))
        with pytest.raises(SystemExit) as exc:
            run("attribute", "--config", cfg, "--data", missing, "--candidate", full,
                "--seed", 5, "--out", out)
        assert exc.value.code == 2
        assert "unknown config key(s): predictor" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminismAndConfig:
    def test_rerun_byte_identical(self, tmp_path):
        outs = []
        for run_dir in ("r1", "r2"):
            d = tmp_path / run_dir
            d.mkdir()
            run("gen", "--households", 50, "--seed", 9,
                "--out-full", d / "f.enc", "--out-missing", d / "m.enc")
            run("impute", "--source", d / "m.enc", "--candidate", d / "f.enc",
                "--out", d / "i.csv")
            outs.append(d)
        for name in ("f.enc", "m.enc", "i.csv", "i.households.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_threads_do_not_change_output(self, generated, tmp_path):
        full, missing = generated
        a, b = tmp_path / "t1.csv", tmp_path / "t8.csv"
        run("impute", "--source", missing, "--candidate", full, "--threads", 1, "--out", a)
        run("impute", "--source", missing, "--candidate", full, "--threads", 8, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "where, named",
        [
            ("flag", "argument --threads"),
            ("config", "config key 'threads' (--threads): invalid value -5"),
        ],
    )
    def test_negative_threads_is_usage_error(self, generated, tmp_path, capsys, where, named):
        full, missing = generated
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": -5}))
        threads = ["--threads", -5] if where == "flag" else ["--config", cfg]
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run("impute", *threads, "--source", missing, "--candidate", full, "--out", out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{named}: expected a non-negative integer, got '-5'" in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize(
        "command, key, value",
        [("evaluate", "n", 0), ("spike", "n", 0), ("spike", "n", -2), ("attribute", "limit", -1)],
    )
    def test_bad_count_is_usage_error(self, generated, tmp_path, capsys, where, command, key, value):
        """``--n`` takes a positive integer and ``--limit`` a non-negative one."""
        expected = "a positive integer" if key == "n" else "a non-negative integer"
        full, missing = generated
        totals = tmp_path / "totals.csv"
        totals.write_text("household_id,y_total\nh1,1.0\nh2,2.0\nh3,4.0\n")
        out = tmp_path / "out.json"
        args = {
            "evaluate": ["--imputed", totals, "--truth", totals, "--cutoffs", 2],
            "spike": ["--a", totals, "--b", totals],
            "attribute": ["--data", missing, "--candidate", full],
        }[command] + ["--seed", 1, "--out", out]
        if where == "flag":
            args += [f"--{key}", value]
            named = f"argument --{key}"
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            args += ["--config", cfg]
            named = f"config key {key!r} (--{key}): invalid value {value}"
        with pytest.raises(SystemExit) as exc:
            run(command, *args)
        assert exc.value.code == 2
        assert f"{named}: expected {expected}, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("form", ["equals", "abbreviated", "repeated"])
    def test_config_found_as_argparse_finds_it(self, tmp_path, form):
        """``--config=FILE``, an abbreviation of the flag, and the last of two
        ``--config`` flags apply their file, which the manifest records."""
        cfg, other = tmp_path / "cfg.json", tmp_path / "other.json"
        cfg.write_text(json.dumps({"year": 2030}))
        other.write_text(json.dumps({"year": 2020}))
        flag = {"equals": [f"--config={cfg}"], "abbreviated": ["--conf", cfg],
                "repeated": ["--config", other, "--config", cfg]}[form]
        full = tmp_path / "f.enc"
        assert run("gen", "--households", 5, "--seed", 1, *flag,
                   "--out-full", full, "--out-missing", tmp_path / "m.enc") == EXIT_OK
        assert EncodedDataset.load(full).year == 2030
        manifest = json.loads((tmp_path / "f.enc.manifest.json").read_text())
        assert manifest["parameters"]["config"] == str(cfg)

    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"households": 30, "seed": 4}))
        rc = run("gen", "--config", cfg,
                 "--out-full", tmp_path / "f.enc", "--out-missing", tmp_path / "m.enc")
        assert rc == EXIT_OK
        assert EncodedDataset.load(tmp_path / "f.enc").n_households() == 30
        rc = run("gen", "--config", cfg, "--households", 10,
                 "--out-full", tmp_path / "f2.enc", "--out-missing", tmp_path / "m2.enc")
        assert rc == EXIT_OK
        assert EncodedDataset.load(tmp_path / "f2.enc").n_households() == 10

    @pytest.mark.parametrize("key", ["tie_brake", "method"])
    def test_unknown_config_key_is_usage_error(self, generated, tmp_path, capsys, key):
        full, missing = generated
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, key: "pruned"}))
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run("impute", "--config", cfg, "--source", missing, "--candidate", full,
                "--out", out)
        assert exc.value.code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_config_value_outside_choices_is_usage_error(self, generated, tmp_path, capsys):
        full, missing = generated
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tie_break": "bogus"}))
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run("impute", "--config", cfg, "--source", missing, "--candidate", full,
                "--out", out)
        assert exc.value.code == 2
        assert "'tie_break': invalid choice 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [1.5, True, "x"])
    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path, capsys, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed}))
        with pytest.raises(SystemExit) as exc:
            run("gen", "--config", cfg, "--households", 5,
                "--out-full", tmp_path / "f.enc", "--out-missing", tmp_path / "m.enc")
        assert exc.value.code == 2
        assert f"config key 'seed' (--seed): invalid value {json.dumps(seed)}" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == [cfg]

    # every subcommand with a --seed, and its other required flags
    SEEDED = {
        "impute": ["--source", "s.enc", "--candidate", "c.enc", "--out", "i.csv",
                   "--tie-break", "random"],
        "synthesize": ["--source2", "s2.enc", "--source1", "s1.enc", "--candidate", "c.enc",
                       "--out", "s.enc", "--tie-break", "random"],
        "evaluate": ["--imputed", "i.csv", "--truth", "t.csv", "--out", "e.json"],
        "spike": ["--a", "a.csv", "--b", "b.csv", "--n", "5"],
        "attribute": ["--data", "d.enc", "--candidate", "c.enc", "--out", "a.json"],
        "gen": ["--households", "5", "--out-full", "f.enc", "--out-missing", "m.enc"],
    }

    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(command, *self.SEEDED[command], "--seed", -3)
        assert exc.value.code == 2
        assert "argument --seed: expected a non-negative integer, got '-3'" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_negative_config_seed_is_usage_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"seed": -3}))
        with pytest.raises(SystemExit) as exc:
            run(command, "--config", "cfg.json", *self.SEEDED[command])
        assert exc.value.code == 2
        assert "config key 'seed' (--seed): invalid value -3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_config_null_leaves_a_required_flag_unset(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": None}))
        out = ["--out-full", tmp_path / "f.enc", "--out-missing", tmp_path / "m.enc"]
        with pytest.raises(SystemExit) as exc:
            run("gen", "--config", cfg, "--households", 5, *out)
        assert exc.value.code == 2
        assert "required: --seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]
        assert run("gen", "--config", cfg, "--households", 5, "--seed", 3, *out) == EXIT_OK
        assert json.loads((tmp_path / "f.enc.manifest.json").read_text())["seed"] == 3

    @pytest.mark.parametrize(
        "key, value",
        [("out_households", 5), ("out_households", ["x.csv"]), ("out_households", {}),
         ("source", ["m.enc"])],
    )
    def test_config_path_takes_only_strings(self, generated, tmp_path, capsys, key, value):
        """A flag without a type takes a JSON string; anything else is a usage
        error naming the key, not a traceback or a value recorded as given."""
        full, missing = generated
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        args = ["--config", cfg, "--candidate", full, "--out", tmp_path / "x.csv"]
        if key != "source":
            args += ["--source", missing]
        before = set(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            run("impute", *args)
        assert exc.value.code == 2
        flag = "--" + key.replace("_", "-")
        assert (f"config key {key!r} ({flag}): invalid value {json.dumps(value)}: "
                f"expected a string") in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("value", ["no", 0, 1, "true"])
    def test_config_switch_takes_only_booleans(self, generated, tmp_path, capsys, value):
        full, missing = generated
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"impute_all": value}))
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run("impute", "--config", cfg, "--source", missing, "--candidate", full,
                "--out", out)
        assert exc.value.code == 2
        assert (f"config key 'impute_all' (--impute-all): expected true or false, "
                f"got {json.dumps(value)}") in capsys.readouterr().err
        assert not out.exists()

    def test_config_switch_booleans_apply(self, generated, tmp_path, capsys):
        full, missing = generated
        source = EncodedDataset.load(missing)
        for value, n_imputed in ((False, source.n_missing), (True, source.n_samples)):
            cfg = tmp_path / f"{value}.json"
            cfg.write_text(json.dumps({"impute_all": value}))
            rc = run("impute", "--config", cfg, "--source", missing, "--candidate", full,
                     "--out", tmp_path / f"{value}.csv")
            assert rc == EXIT_OK
            assert f"imputed {n_imputed} of {source.n_samples} samples" in capsys.readouterr().out

    def test_config_key_of_other_subcommand_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"households": 30, "seed": 4, "tie_break": "index"}))
        with pytest.raises(SystemExit) as exc:
            run("gen", "--config", cfg,
                "--out-full", tmp_path / "f.enc", "--out-missing", tmp_path / "m.enc")
        assert exc.value.code == 2
        assert "tie_break" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        rc = run("gen", "--config", tmp_path / "nope.json", "--households", 5,
                 "--seed", 1, "--out-full", tmp_path / "f.enc",
                 "--out-missing", tmp_path / "m.enc")
        assert rc == EXIT_MISSING_INPUT


class TestJsonFileFaults:
    """A model, spec or config file that is not JSON, or not UTF-8, is exit 5
    naming the file, and no output is written."""

    @pytest.mark.parametrize(
        "content, reason",
        [(b"{not json", "Expecting property name"), (b"\xff\xfe{}", "'utf-8' codec")],
        ids=["not-json", "not-utf8"],
    )
    @pytest.mark.parametrize("flag", ["--model", "--spec", "--config"])
    def test_exit_5_names_the_file(self, tmp_path, capsys, flag, content, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        if flag == "--spec":
            tables = [tmp_path / f"{t}.csv" for t in ("h", "p", "d")]
            for t in tables:
                t.write_text("")
            outs = [tmp_path / "out.enc"]
            args = ["ingest", "--households", tables[0], "--persons", tables[1],
                    "--days", tables[2], "--survey-id", "s", "--year", 2020, "--out", outs[0]]
        else:
            outs = [tmp_path / "f.enc", tmp_path / "m.enc"]
            args = ["gen", "--households", 5, "--seed", 1,
                    "--out-full", outs[0], "--out-missing", outs[1]]
        assert run(*args, flag, bad) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: {bad}: not a UTF-8 JSON file: " in err and reason in err
        assert not any(o.exists() for o in outs)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["bad.json"] + (["d.csv", "h.csv", "p.csv"] if flag == "--spec" else [])
        )


def outputs() -> _Outputs:
    return _Outputs(argparse.Namespace(subcommand="test"))


class TestAtomicWrite:
    def test_failed_write_leaves_nothing(self, tmp_path):
        out = tmp_path / "out.csv"

        def write(tmp):
            tmp.write_text("partial")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            with outputs() as staged:
                staged.json(tmp_path / "first.json", {"a": 1})
                staged.write(out, write)
        assert list(tmp_path.iterdir()) == []

    def test_output_bytes_and_mode_match_a_plain_write(self, tmp_path):
        plain = tmp_path / "plain.bin"
        plain.write_bytes(b"abc")
        out = tmp_path / "out.bin"
        with outputs() as staged:
            staged.write(out, lambda tmp: tmp.write_bytes(b"abc"))
            assert not out.exists()
        assert out.read_bytes() == b"abc"
        assert out.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.bin", "out.bin.manifest.json", "plain.bin"
        ]
        manifest = json.loads((tmp_path / "out.bin.manifest.json").read_text())
        assert manifest["outputs"] == [str(out)]

    def test_json_bytes(self, tmp_path):
        obj = {"b": [1, 2.5], "a": {"z": None, "y": "x"}}
        with outputs() as staged:
            staged.json(tmp_path / "r.json", obj)
        expected = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "r.json").read_bytes() == expected.encode("utf-8")

    def test_output_path_that_is_a_directory_leaves_nothing(self, tmp_path):
        (tmp_path / "taken").mkdir()
        with pytest.raises(IsADirectoryError, match="taken"):
            with outputs() as staged:
                staged.json(tmp_path / "first.json", {})
                staged.json(tmp_path / "taken", {})
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_plan_checks_the_manifest_path(self, tmp_path):
        (tmp_path / "first.json.manifest.json").mkdir()
        with pytest.raises(IsADirectoryError, match="manifest"):
            with outputs() as staged:
                staged.plan(tmp_path / "first.json", None, tmp_path / "second.json")
        assert [p.name for p in tmp_path.iterdir()] == ["first.json.manifest.json"]


class TestAllOrNothing:
    """A run that fails after staging some outputs commits none of them."""

    def assert_failed_cleanly(self, rc, capsys, tmp_path, before, named):
        assert rc == EXIT_MISSING_INPUT
        assert sorted(tmp_path.iterdir()) == before
        captured = capsys.readouterr()
        assert str(named) in captured.err
        assert captured.out == ""  # no summary for outputs that were not written

    def test_impute_households_in_missing_directory(self, generated, tmp_path, capsys):
        full, missing = generated
        before = sorted(tmp_path.iterdir())
        hh = tmp_path / "nodir" / "h.csv"
        rc = run("impute", "--source", missing, "--candidate", full,
                 "--out", tmp_path / "i.csv", "--out-households", hh)
        self.assert_failed_cleanly(rc, capsys, tmp_path, before, hh)

    def test_synthesize_provenance_not_staged(self, generated, tmp_path, capsys, monkeypatch):
        full, missing = generated
        gone = tmp_path / "gone"
        stage_csv = _Outputs.csv

        def csv_into_missing_dir(self, path, *args):
            stage_csv(self, gone / Path(path).name, *args)

        monkeypatch.setattr(_Outputs, "csv", csv_into_missing_dir)
        before = sorted(tmp_path.iterdir())
        rc = run("synthesize", "--source2", missing, "--source1", full,
                 "--candidate", full, "--out", tmp_path / "synth.enc")
        self.assert_failed_cleanly(rc, capsys, tmp_path, before, gone / "synth.provenance.csv")

    @pytest.mark.parametrize("case", ["impute", "impute-households", "synthesize", "attribute"])
    def test_missing_output_directory_fails_before_loading(
        self, generated, tmp_path, capsys, monkeypatch, case
    ):
        full, missing = generated
        monkeypatch.setattr(matching, "nearest_rows", not_reached)
        monkeypatch.setattr(synthesis, "nearest_rows", not_reached)
        monkeypatch.setattr(EncodedDataset, "load", not_reached)
        monkeypatch.setattr(_Outputs, "stream", not_reached)
        nodir = tmp_path / "nodir"
        argv, named = {
            "impute": (["impute", "--source", missing, "--candidate", full,
                        "--out", nodir / "i.csv"], nodir / "i.csv"),
            "impute-households": (["impute", "--source", missing, "--candidate", full,
                                   "--out", tmp_path / "i.csv", "--out-households",
                                   nodir / "h.csv"], nodir / "h.csv"),
            "synthesize": (["synthesize", "--source2", missing, "--source1", full,
                            "--candidate", full, "--out", nodir / "s.enc"], nodir / "s.enc"),
            "attribute": (["attribute", "--data", missing, "--candidate", full, "--seed", 1,
                           "--out", nodir / "a.json"], nodir / "a.json"),
        }[case]
        before = sorted(tmp_path.iterdir())
        self.assert_failed_cleanly(run(*argv), capsys, tmp_path, before, named)

    @pytest.mark.parametrize("case", ["gen", "impute"])
    def test_a_failed_rename_changes_no_output(self, generated, tmp_path, capsys, monkeypatch, case):
        """Failing the k-th ``os.replace`` of a commit, for every k, leaves the
        directory byte for byte as it was, an earlier run's outputs
        included, and exits 3 with one line; past the last rename the run
        commits."""
        full, missing = generated
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "gen": lambda seed: ["gen", "--households", 30, "--seed", seed,
                                 "--out-full", out / "f.enc", "--out-missing", out / "m.enc"],
            "impute": lambda seed: ["impute", "--source", missing, "--candidate", full,
                                    "--tie-break", "random", "--seed", seed,
                                    "--out", out / "i.csv", "--out-households", out / "h.csv"],
        }[case]
        assert run(*argv(1)) == EXIT_OK
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(before) == 3
        replace = os.replace
        for k in range(1, 8):
            calls = 0

            def failing_replace(src, dst, k=k):
                nonlocal calls
                calls += 1
                if calls == k:
                    raise OSError(28, "No space left on device")
                replace(src, dst)

            monkeypatch.setattr(os, "replace", failing_replace)
            rc = run(*argv(2))
            monkeypatch.setattr(os, "replace", replace)
            after = {p.name: p.read_bytes() for p in out.iterdir()}
            if calls < k:  # 3 moved aside, 3 renamed: the seventh call never comes
                assert k == 7 and rc == EXIT_OK
                assert after.keys() == before.keys() and after != before
                break
            assert rc == EXIT_MISSING_INPUT, k
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "No space left on device" in err, err
            assert after == before, k
        else:
            raise AssertionError("the run never committed")

    def test_gen_missing_output_directory(self, tmp_path, capsys):
        m = tmp_path / "nodir" / "m.enc"
        rc = run("gen", "--households", 20, "--seed", 1,
                 "--out-full", tmp_path / "f.enc", "--out-missing", m)
        self.assert_failed_cleanly(rc, capsys, tmp_path, [], m)


class TestUsableOutputs:
    """Outputs that cannot all land are a usage error (exit 2), found before
    any input is loaded: two that resolve to one file, the manifest's path
    among them, and one that is a directory."""

    @pytest.fixture
    def totals(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("household_id,y_total\nh1,1\nh2,2\n")
        return path

    @pytest.mark.parametrize("case", [
        "impute", "impute-manifest", "impute-spelling",
        "gen", "evaluate",
    ])
    def test_an_output_named_twice(self, generated, totals, tmp_path, capsys, monkeypatch, case):
        full, missing = generated
        monkeypatch.setattr(EncodedDataset, "load", not_reached)
        monkeypatch.setattr(_Outputs, "stream", not_reached)
        monkeypatch.setattr(cli, "_load_totals_csv", not_reached)
        impute = ["impute", "--source", missing, "--candidate", full]
        a = tmp_path / "a.csv"
        argv, named = {
            "impute": (impute + ["--out", a, "--out-households", a], a),
            "impute-manifest": (
                impute + ["--out", a, "--out-households", tmp_path / "a.csv.manifest.json"],
                tmp_path / "a.csv.manifest.json",
            ),
            "impute-spelling": (
                impute + ["--out", a, "--out-households", tmp_path / "sub" / ".." / "a.csv"],
                tmp_path / "sub" / ".." / "a.csv",
            ),
            "gen": (["gen", "--households", 5, "--seed", 1, "--out-full", tmp_path / "g.enc",
                     "--out-missing", tmp_path / "g.enc"], tmp_path / "g.enc"),
            "evaluate": (["evaluate", "--imputed", totals, "--truth", totals, "--seed", 1,
                          "--out", tmp_path / "r", "--sorted-csv", tmp_path / "r"],
                         tmp_path / "r"),
        }[case]
        (tmp_path / "sub").mkdir()
        before = sorted(tmp_path.iterdir())
        assert run(*argv) == EXIT_USAGE
        assert sorted(tmp_path.iterdir()) == before
        assert capsys.readouterr().err == f"error: output path named twice: {named}\n"

    @pytest.mark.parametrize("argv", [
        ["describe", "--data", "{full}", "--out", "{dir}"],
        ["impute", "--source", "{missing}", "--candidate", "{full}", "--out", "{dir}"],
        ["impute", "--source", "{missing}", "--candidate", "{full}", "--out", "{tmp}/i.csv",
         "--out-households", "{dir}"],
    ])
    def test_an_output_that_is_a_directory(self, generated, tmp_path, capsys, monkeypatch, argv):
        full, missing = generated
        monkeypatch.setattr(EncodedDataset, "load", not_reached)
        monkeypatch.setattr(_Outputs, "stream", not_reached)
        taken = tmp_path / "taken"
        taken.mkdir()
        before = sorted(tmp_path.iterdir())
        argv = [a.format(full=full, missing=missing, dir=taken, tmp=tmp_path) for a in argv]
        assert run(*argv) == EXIT_USAGE
        assert sorted(tmp_path.iterdir()) == before
        assert capsys.readouterr().err == f"error: output path is a directory: {taken}\n"

    def test_a_totals_input_that_is_a_directory(self, totals, tmp_path, capsys):
        rc = run("evaluate", "--imputed", tmp_path, "--truth", totals, "--seed", 1,
                 "--out", tmp_path / "r.json")
        assert rc == EXIT_USAGE
        assert "Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_stage_refuses_a_path_it_has_staged(self, tmp_path):
        with pytest.raises(UsageError, match="named twice"):
            with outputs() as staged:
                staged.json(tmp_path / "r.json", {})
                staged.json(tmp_path / "r.json", {"again": 1})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("households", ["0", "-3", "2.5"])
    def test_gen_households_must_be_positive(self, tmp_path, capsys, households):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--households", households, "--seed", 1,
                "--out-full", tmp_path / "f.enc", "--out-missing", tmp_path / "m.enc")
        assert exc.value.code == EXIT_USAGE
        assert "--households: expected a positive integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_gen_households_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"households": 0}))
        with pytest.raises(SystemExit) as exc:
            run("gen", "--config", cfg, "--seed", 1,
                "--out-full", tmp_path / "f.enc", "--out-missing", tmp_path / "m.enc")
        assert exc.value.code == EXIT_USAGE
        cfg.write_text(json.dumps({"households": 30}))
        assert run("gen", "--config", cfg, "--seed", 1,
                   "--out-full", tmp_path / "f.enc", "--out-missing", tmp_path / "m.enc") == EXIT_OK
        assert EncodedDataset.load(tmp_path / "f.enc").n_households() == 30


class TestClosedStdout:
    """A reader that closes stdout early, as ``| head -1`` does, costs no output:
    the summary is printed after the outputs are in place, and a broken pipe
    then ends it quietly."""

    @pytest.mark.parametrize("subcommand", ["describe", "attribute"])
    def test_outputs_are_kept_without_a_traceback(self, generated, tmp_path, subcommand):
        full, missing = generated
        out = tmp_path / "r.json"
        argv = {
            "describe": ["describe", "--data", missing, "--out", out],
            "attribute": ["attribute", "--data", missing, "--candidate", full,
                          "--limit", 20, "--seed", 1, "--out", out],
        }[subcommand]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        read, write = os.pipe()
        os.close(read)  # no reader from the start: the first write meets a broken pipe
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "surveyfuse.cli", *map(str, argv)],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
            )
        finally:
            os.close(write)
        assert "Traceback" not in proc.stderr and "BrokenPipe" not in proc.stderr, proc.stderr
        assert proc.returncode == EXIT_OK
        assert json.loads(out.read_text())
        assert _manifest_path(out).exists()


class TestCsvWriter:
    def test_float_fields_are_repr(self, tmp_path):
        dictionary = FeatureDictionary(features=("F",), categories=(("a", "b"),))
        x = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [1, 0]], dtype=np.uint8)
        source = EncodedDataset(
            dictionary=dictionary, survey_id="s", year=2017,
            households=np.array(["h0", "h1", "h2", "h3", "h4"]), household_code=np.arange(5),
            words=pack_rows(x), y=np.array([0.1 + 0.2, 1e-17, 1e16, np.nan, np.nan]),
        )
        candidate = EncodedDataset(
            dictionary=dictionary, survey_id="c", year=2017,
            households=np.array(["d0", "d1", "d2"]), household_code=np.arange(3),
            words=pack_rows(x[:3]), y=np.array([1.0, 2.0, 1 / 3]),
        )
        source.save(tmp_path / "s.enc")
        candidate.save(tmp_path / "c.enc")
        out = tmp_path / "i.csv"
        assert run("impute", "--source", tmp_path / "s.enc", "--candidate",
                   tmp_path / "c.enc", "--no-augment", "--out", out) == EXIT_OK
        result = impute(source, candidate)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["y_imputed"] for r in rows] == [repr(v) for v in result.sample_y.tolist()]
        assert [r["distance"] for r in rows] == [
            repr(v) for v in result.assignment.distance.tolist()
        ]
        assert {"0.30000000000000004", "1e-17", "1e+16"} <= {r["y_imputed"] for r in rows}
        totals = (tmp_path / "i.households.csv").read_text().splitlines()[1:]
        assert totals == [
            f"{h},{t!r}" for h, t in zip(result.household_ids, result.household_y.tolist())
        ]

    @pytest.mark.parametrize("chunk_rows", [1, 3])
    def test_chunk_size_does_not_change_bytes(self, generated, tmp_path, monkeypatch, chunk_rows):
        full, missing = generated

        def impute_to(name):
            d = tmp_path / name
            d.mkdir()
            assert run("impute", "--source", missing, "--candidate", full,
                       "--out", d / "i.csv") == EXIT_OK
            return [(d / f).read_bytes() for f in ("i.csv", "i.households.csv")]

        reference = impute_to("default")
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        assert impute_to(f"chunk{chunk_rows}") == reference

    @pytest.mark.parametrize("chunk_rows", [1, 3, 65_536])  # 65_536 > n: one chunk
    @pytest.mark.parametrize("n", [0, 1, 17, 40])
    def test_bytes_match_per_value_reference(self, tmp_path, monkeypatch, chunk_rows, n):
        rng = np.random.default_rng(n)
        columns = [
            np.array([f"h {i}é" for i in rng.integers(-2, 5, n)]),
            np.resize(EDGE_FLOATS, n),
            rng.permutation(np.resize(EDGE_FLOATS, n)),
            np.resize(EDGE_FLOATS, n).astype(np.float32),
            np.resize(EDGE_INTS, n),
            rng.integers(-3, 3, n).astype(np.int32),
            np.arange(n),  # all distinct
            np.full(n, -0.0),  # all equal
            np.full(n, 7),
        ]
        # coded numeric columns, formatted once per file: codes that skip
        # values, -0.0 next to 0.0, and impute's distance and bucket columns
        coded = [
            (EDGE_FLOATS, rng.choice([0, 1, 3, 7, 9, 12, 13], n)),
            (np.arange(27) / 26, rng.integers(0, 27, n).astype(np.uint8)),
            (np.arange(301) / 300, rng.integers(250, 301, n).astype(np.uint16)),
            (np.arange(40), rng.integers(0, 40, n).astype(np.int32)),
            (EDGE_INTS, rng.integers(1, 4, n)),
        ]
        header = [f"c{i}" for i in range(len(columns) + len(coded))]
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        with outputs() as staged:
            staged.csv(tmp_path / "t.csv", header, [columns + coded])
        reference = csv_reference(header, columns + [v[c] for v, c in coded])
        assert (tmp_path / "t.csv").read_bytes() == reference

    @pytest.mark.parametrize("chunk_rows", [1, 3, 65_536])
    def test_coded_column_is_written_as_its_values(self, tmp_path, monkeypatch, chunk_rows):
        rng = np.random.default_rng(1)
        values = np.array(["h0", "hé1", "h22", "h"])
        code = rng.integers(0, values.size, 40).astype(np.int32)
        other = rng.random(40)
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        with outputs() as staged:
            staged.csv(tmp_path / "t.csv", ["id", "v"], [[(values, code), other]])
        assert (tmp_path / "t.csv").read_bytes() == csv_reference(["id", "v"], [values[code], other])


EDGE_FLOATS = np.array([
    -0.0, 0.0, 0.1 + 0.2, 5e-324, -5e-324, 1e16, 1e-17, math.nan, -math.nan,
    math.inf, -math.inf, 0.0, -0.0, 1 / 3, 2.5, 2.5,
])
EDGE_INTS = np.array([-(2**63), -7, 0, 7, 2**62, 2**63 - 1, -7], dtype=np.int64)


def csv_reference(header, columns) -> bytes:
    """The CSV formatted value by value: ``repr`` of each float, ``str`` of the rest."""
    fmts = [repr if c.dtype.kind == "f" else str for c in columns]
    rows = zip(*(c.tolist() for c in columns))
    lines = [",".join(header)] + [",".join(f(v) for f, v in zip(fmts, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestTotalsLoader:
    """``_load_totals_csv`` against the per-line ``totals_oracle`` on random files."""

    IDS = ["h1", "h2", "h10", "a", "h 3", "z\x0cq", "é", "h1 ", "0", "h\u2028x", "B"]
    GOOD = ["1.5", " 2.5 ", "1_0", "3", "-0", "0", "1e2", "+4", "0.1", "5e-324", "1E3", "7\t"]
    BAD = ["nan", "inf", "-1", "x", "", "1,2", "-inf", "1e400", "1_"]
    NUL_ENDS = ["\x00,1", ",1\x00", "\x00"]  # a NUL in the id, after the total, or comma-less
    ERRORS = (
        "expected columns", "no household totals", "expected household_id,y_total",
        "duplicate household", "is not a finite non-negative number",
        "contains a NUL character",
    )

    def random_file(self, rng, path) -> None:
        ids = [self.IDS[i] for i in rng.permutation(len(self.IDS))[: rng.integers(0, 8)]]
        ids += [f"h{k}" for k in rng.integers(0, 10**6, rng.integers(0, 6))]
        ids = list(dict.fromkeys(ids))
        if rng.random() < 0.5:
            ids.sort()
        pad = lambda: str(rng.choice(["", " ", "\t", "  "]))
        lines = [f"{pad()}{h}{pad()},{pad()}{rng.choice(self.GOOD)}{pad()}" for h in ids]
        for kind in ("duplicate", "no comma", "bad value", "blank", "nul"):
            if rng.random() < 0.25 and (lines or kind != "duplicate"):
                at = int(rng.integers(0, len(lines) + 1))
                line = {
                    "duplicate": lambda: f"{ids[rng.integers(len(ids))]},{rng.choice(self.GOOD)}",
                    "no comma": lambda: f"{pad()}h{rng.integers(100)}{pad()}",
                    "bad value": lambda: f"h{rng.integers(100)},{rng.choice(self.BAD)}",
                    "blank": pad,
                    "nul": lambda: f"h{rng.integers(100)}{rng.choice(self.NUL_ENDS)}",
                }[kind]()
                lines.insert(at, line)
        header = str(rng.choice(["household_id,y_total"] * 6 + [
            " household_id,y_total ", "household_id,y_total,extra", "household_id;y_total", "",
        ]))
        ends = [str(rng.choice(["\n", "\r\n", "\r"])) for _ in range(len(lines) + 1)]
        if rng.random() < 0.5:
            ends = [ends[0]] * len(ends)
        text = "".join(line + end for line, end in zip([header] + lines, ends))
        path.write_bytes(text.encode("utf-8") if header or lines else b"")

    def test_matches_oracle_on_random_files(self, tmp_path):
        rng = np.random.default_rng(2024)
        outcomes = set()
        for i in range(400):
            path = tmp_path / f"t{i}.csv"
            self.random_file(rng, path)
            try:
                expected = totals_oracle(path)
            except DataError as exc:
                with pytest.raises(DataError) as got:
                    _load_totals_csv(path)
                assert str(got.value) == str(exc), path.read_bytes()
                outcomes.add(next(k for k in self.ERRORS if k in str(exc)))
                continue
            ids, values = _load_totals_csv(path)
            keys = sorted(expected)
            assert ids.dtype.kind == "U" and values.dtype == np.float64
            assert ids.tolist() == keys
            want = np.array([expected[k] for k in keys])
            np.testing.assert_array_equal(values.view(np.int64), want.view(np.int64))
            outcomes.add("ok")
        assert outcomes == {"ok", *self.ERRORS}  # every kind of file was drawn

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbfhousehold_id,y_total\nh2,1.5\nh1,2\n")
        ids, values = _load_totals_csv(path)
        assert ids.tolist() == ["h1", "h2"] and values.tolist() == [2.0, 1.5]

    def regular_lines(self, rng, n: int) -> list[str]:
        """``n`` lines of distinct ids with one comma each, padded at random
        around the total and before the id."""
        ids = self.IDS + [f"h{k:07d}" for k in rng.permutation(10 * n)[: n - len(self.IDS)]]
        if rng.random() < 0.5:
            ids.sort()
        pads = np.array(["", "", "", " ", "\t"])[rng.integers(0, 5, (n, 3))].tolist()
        totals = np.array(self.GOOD)[rng.integers(0, len(self.GOOD), n)].tolist()
        # no pad after an id: "h1" would become "h1 ", which is another id
        return [f"{a}{h},{b}{t}{c}" for h, t, (a, b, c) in zip(ids, totals, pads)]

    @staticmethod
    def write(path, lines: list[str], end: str) -> None:
        path.write_bytes(("household_id,y_total" + end + end.join(lines) + end).encode("utf-8"))

    def check_against_oracle(self, path) -> None:
        expected = totals_oracle(path)
        ids, values = _load_totals_csv(path)
        assert ids.tolist() == sorted(expected)
        want = np.array([expected[k] for k in sorted(expected)])
        np.testing.assert_array_equal(values.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_large_regular_files_match_the_oracle(self, tmp_path, end):
        rng = np.random.default_rng(len(end))
        for i, n in enumerate([len(self.IDS), 20_000, 50_000]):
            path = tmp_path / f"t{i}.csv"
            self.write(path, self.regular_lines(rng, n), end)
            self.check_against_oracle(path)

    @pytest.mark.parametrize(
        "lines",
        [["h2,1.5", "h1,2"], ["", "  h2 ,\t1.5 ", "", "h1,2  ", "   "]],
        ids=["plain", "blank and padded lines"],
    )
    def test_a_good_file_is_read_once(self, tmp_path, monkeypatch, lines):
        calls, totals_blocks = [], cli._totals_blocks

        def blocks(path):
            calls.append(path)
            return totals_blocks(path)

        monkeypatch.setattr(cli, "_totals_blocks", blocks)
        path = tmp_path / "t.csv"
        self.write(path, lines, "\n")
        self.check_against_oracle(path)
        assert calls == [path]

    @pytest.mark.parametrize(
        "kind",
        ["duplicate", "bad value", "no comma", "two commas", "blank", "empty value",
         "no comma, then two commas"],
    )
    def test_one_bad_line_near_the_end_is_named(self, tmp_path, kind):
        rng = np.random.default_rng(7)
        lines = self.regular_lines(rng, 30_000)
        at = len(lines) - int(rng.integers(1, 20))
        lines[at:at] = {
            "duplicate": [lines[3].strip()],
            "bad value": ["h9999999,-1"],
            "no comma": ["h9999999"],
            "two commas": ["h9999999,1,2"],
            "blank": [""],
            "empty value": ["h9999999,"],
            # as many commas as lines, and every field a number once split
            "no comma, then two commas": ["9999999", "9999998,1,2"],
        }[kind]
        path = tmp_path / "t.csv"
        self.write(path, lines, "\n")
        if kind == "blank":  # skipped: the file is still good
            self.check_against_oracle(path)
            return
        with pytest.raises(DataError) as want:
            totals_oracle(path)
        assert f"line {at + 2}:" in str(want.value)
        with pytest.raises(DataError) as got:
            _load_totals_csv(path)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("where", ["first line of block 2", "later block"])
    @pytest.mark.parametrize(
        "kind", ["duplicate", "bad value", "no comma", "nul", "nul after a bad value"]
    )
    def test_a_bad_line_in_a_later_block_is_named(self, tmp_path, kind, where):
        """Lines are read in blocks of ``_TOTALS_BLOCK_CHARS``: a bad line in
        the second or a later block is numbered across the blocks before it,
        with ``totals_oracle``'s exact message, and a NUL is refused before a
        bad line of an earlier block."""
        lines = self.regular_lines(np.random.default_rng(11), 20_000)
        # readlines(hint) ends a block at the line that takes it to hint characters
        ends = np.cumsum([len(line) + 1 for line in lines])
        second = int(np.searchsorted(ends, cli._TOTALS_BLOCK_CHARS)) + 1
        at = second if where == "first line of block 2" else 3 * second + 17
        assert ends[-1] > 4 * cli._TOTALS_BLOCK_CHARS and at < len(lines)
        lines[at:at] = {
            "duplicate": [lines[5].strip()],
            "bad value": ["h9999999,-1"],
            "no comma": ["h9999999"],
            "nul": ["h9999999\x00,1"],
            "nul after a bad value": ["h9999999,\x00"],
        }[kind]
        if kind == "nul after a bad value":
            lines[3] = "h9999998,x"
        path = tmp_path / "t.csv"
        self.write(path, lines, "\n")
        with pytest.raises(DataError) as want:
            totals_oracle(path)
        assert f"line {at + 2}:" in str(want.value)
        with pytest.raises(DataError) as got:
            _load_totals_csv(path)
        assert str(got.value) == str(want.value)

    def test_regular_file_memory_per_line(self, tmp_path):
        """100k regular lines peak under 100 bytes a line: the 40 bytes a line
        of ids and totals kept, their blocks before they are joined, and one
        block of lines.  Splitting the whole body at once took it to 189, and
        a tuple and its two strings per line, beside the list of stripped
        lines, to 360."""
        path = tmp_path / "t.csv"
        rng = np.random.default_rng(100)
        self.write(path, [f"h{i:07d},{v!r}" for i, v in enumerate(rng.random(100_000).tolist())],
                   "\n")
        tracemalloc.start()
        try:
            ids, values = _load_totals_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ids.size == values.size == 100_000
        assert peak < 100 * 100_000, peak / 100_000
