"""Seeded inputs for the benchmark workloads.

Every input derives from the workload seed alone: the same seed writes
byte-identical files.  The `.enc` inputs come from `surveyfuse.datagen`
(the acceptance suite's criterion-9 population: the demo model with 96%
missing targets and covariate missingness 0.15).  The ingest workload gets
a PSRC-shaped CSV triple made by inverting the shipped `psrc2017`
crosswalk, together with the encoding `ingest` must produce from it.

`datagen.generate` and `EncodedDataset.save` are looked up as module and
class attributes on every call, so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from surveyfuse import datagen
from surveyfuse.datagen import PopulationModel, demo_model
from surveyfuse.schema import load_default_spec

# Paper scale (PAPER.md, ROADMAP north star) and a tiny scale for self-tests.
FULL = {
    "src_households": 130_000,
    "src_rows": 364_000,
    "donor_households": 3_000,
    "donor_rows": 8_000,
    "s1_rows": 40_000,
    "s2_households": 130_000,
    "s2_rows": 364_000,
    "ingest_households": 13_500,
    "attribute_limit": 500,
    "eval_cutoffs": "100,200,300,400,500",  # the CLI default: 500 iterations
}
TINY = {
    "src_households": 400,
    "src_rows": 1_000,
    "donor_households": 120,
    "donor_rows": 300,
    "s1_rows": 200,
    "s2_households": 400,
    "s2_rows": 1_000,
    "ingest_households": 60,
    "attribute_limit": 5,
    "eval_cutoffs": "10,20",
}

SURVEY_ID = "psrc2017"
HOUSEHOLD_FEATURES = ("Income", "LifeCycle")  # constant within a household
TARGET_BLANKS = ("", "NA")


def _source_model(missingness: float = 0.96, spike_factor: float = 1.0) -> PopulationModel:
    model = demo_model(missingness=missingness, spike_factor=spike_factor)
    return PopulationModel(**{**model.__dict__, "covariate_missingness": 0.15})


def _head(ds, n: int):
    if ds.n_samples < n:
        raise RuntimeError(f"generator gave {ds.n_samples} rows, need {n}")
    return ds.subset(np.arange(n))


def source(seed: int, size: dict):
    """The PSRC-style source: mostly missing targets."""
    _, observed = datagen.generate(
        _source_model(), size["src_households"], "bench-src", 2017, seed=seed
    )
    return _head(observed, size["src_rows"])


def donors(seed: int, size: dict):
    """The NHTS-style donor pool: fully labeled."""
    full, _ = datagen.generate(
        _source_model(missingness=0.0), size["donor_households"], "bench-donor", 2017,
        seed=seed + 1,
    )
    return _head(full, size["donor_rows"])


def future(seed: int, size: dict):
    """A fully labeled future-year survey with a demand spike."""
    full, _ = datagen.generate(
        _source_model(missingness=0.0, spike_factor=1.3), size["s2_households"],
        "bench-future", 2021, seed=seed + 2,
    )
    return _head(full, size["s2_rows"])


def write_totals_csv(path: Path, totals: dict[str, float]) -> None:
    """Household totals in the CLI's own `household_id,y_total` format."""
    lines = ["household_id,y_total"] + [f"{h},{float(t)!r}" for h, t in totals.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def impute_inputs(directory: Path, seed: int, size: dict) -> dict:
    cand = donors(seed, size)
    source(seed, size).save(directory / "source.enc")
    cand.save(directory / "donors.enc")
    truth = cand.household_totals()
    write_totals_csv(directory / "truth.csv", truth)
    return {"truth_households": len(truth)}


def attribute_inputs(directory: Path, seed: int, size: dict) -> dict:
    source(seed, size).save(directory / "source.enc")
    donors(seed, size).save(directory / "donors.enc")
    return {"limit": size["attribute_limit"]}


def synth_inputs(directory: Path, seed: int, size: dict) -> dict:
    s2 = future(seed, size)
    s2.save(directory / "source2.enc")
    _head(source(seed, size), size["s1_rows"]).save(directory / "source1.enc")
    donors(seed, size).save(directory / "donors.enc")
    return {"labeled_source2_rows": int((~s2.missing_mask).sum())}


# -- the PSRC-shaped CSV triple ------------------------------------------------


@dataclass
class ExpectedEncoding:
    """What `ingest` must produce from the written CSV triple."""

    household_ids: np.ndarray
    x: np.ndarray
    y: np.ndarray


def _raw_choices(feature, survey_id: str) -> tuple[list[list[str]], list[str]]:
    """Raw strings per harmonized category, and the raw strings that mean missing."""
    col = feature.survey_column(survey_id)
    per_cat: list[list[str]] = [[] for _ in feature.categories]
    missing = list(col.missing_values)
    for raw, cat in col.values.items():
        if cat is None:
            missing.append(raw)
        else:
            per_cat[feature.categories.index(cat)].append(raw)
    return per_cat, missing


def _invert(rng, category: np.ndarray, per_cat: list[list[str]], missing: list[str]) -> list[str]:
    """Draw, per row, one raw string that the crosswalk maps back to its category."""
    out = np.empty(category.size, dtype=object)
    for c, raws in enumerate([missing] + per_cat):
        rows = np.flatnonzero(category == c - 1)
        out[rows] = np.array(raws, dtype=object)[rng.integers(len(raws), size=rows.size)]
    return out.tolist()


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def ingest_inputs(directory: Path, seed: int, size: dict) -> ExpectedEncoding:
    """Write households/persons/days CSVs and return their expected encoding.

    Persons come from `datagen.generate`; the household-level features are
    then copied from each household's first person, so they stay constant
    within a household, as in a real survey.  Each person reports one to
    five travel days.
    """
    spec = load_default_spec()
    keys = spec.table_keys(SURVEY_ID)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 3])))
    persons, _ = datagen.generate(
        _source_model(missingness=0.0), size["ingest_households"], SURVEY_ID, 2017,
        seed=seed + 3,
    )
    x = persons.x.copy()
    slices = persons.dictionary.group_slices()
    hh_codes, first, hh_of_person = np.unique(
        persons.household_ids, return_index=True, return_inverse=True
    )
    head = first[hh_of_person]  # the first person of each person's household
    for f, sl in zip(spec.features, slices):
        if f.name in HOUSEHOLD_FEATURES:
            x[:, sl] = x[head, sl]
    category = np.stack(
        [np.where(x[:, sl].any(axis=1), x[:, sl].argmax(axis=1), -1) for sl in slices], axis=1
    )

    hhid = np.array([f"17{int(h[1:]):06d}" for h in hh_codes], dtype=object)[hh_of_person]
    pernum = np.arange(persons.n_samples) - head + 1
    personid = [f"{h}{p:02d}" for h, p in zip(hhid, pernum)]

    raw = {}
    for j, f in enumerate(spec.features):
        per_cat, missing = _raw_choices(f, SURVEY_ID)
        rows = first if f.name in HOUSEHOLD_FEATURES else np.arange(persons.n_samples)
        raw[f.name] = _invert(rng, category[rows, j], per_cat, missing)

    hh_feats = [f for f in spec.features if f.name in HOUSEHOLD_FEATURES]
    p_feats = [f for f in spec.features if f.name not in HOUSEHOLD_FEATURES]
    _write_csv(
        directory / "households.csv",
        [keys.household_id] + [f.survey_column(SURVEY_ID).column for f in hh_feats],
        zip(hhid[first], *(raw[f.name] for f in hh_feats)),
    )
    _write_csv(
        directory / "persons.csv",
        [keys.household_id, keys.person_id] + [f.survey_column(SURVEY_ID).column for f in p_feats],
        zip(hhid, personid, *(raw[f.name] for f in p_feats)),
    )

    # Travel days: 1-5 per person; three delivery columns whose blanks count
    # as zero unless all three are blank (then the target is missing).
    n_days = rng.integers(1, 6, size=persons.n_samples)
    person_of_day = np.repeat(np.arange(persons.n_samples), n_days)
    daynum = np.arange(person_of_day.size) - np.repeat(np.cumsum(n_days) - n_days, n_days) + 1
    rate = np.maximum(persons.y[person_of_day], 0.0) + 0.2
    counts = rng.poisson(rate[:, None] * np.array([0.6, 0.25, 0.15]))
    blank = rng.random(counts.shape) < 0.25
    blank[rng.random(person_of_day.size) < 0.3] = True
    blank_token = rng.integers(len(TARGET_BLANKS), size=counts.shape)
    target = spec.target.survey_target(SURVEY_ID)
    cells = np.where(blank, np.array(TARGET_BLANKS, dtype=object)[blank_token], counts.astype(str))
    _write_csv(
        directory / "days.csv",
        [keys.household_id, keys.person_id, keys.day_id, *target.columns],
        zip(
            hhid[person_of_day],
            np.array(personid, dtype=object)[person_of_day],
            daynum.tolist(),
            *cells.T.tolist(),
        ),
    )

    y = np.where(blank.all(axis=1), np.nan, np.where(blank, 0, counts).sum(axis=1) / target.divisor)
    return ExpectedEncoding(
        household_ids=hhid[person_of_day].astype(np.str_),
        x=x[person_of_day],
        y=y.astype(np.float64),
    )
