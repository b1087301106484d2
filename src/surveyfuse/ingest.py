"""CSV ingestion: join household / person / travel-day tables into encoded samples.

Surveys arrive as three CSV files linked by primary keys (household id;
household id + person id; household id + person id + day id).  One
encoded sample is emitted per travel-day row, replicating household- and
person-level covariates onto it; the delivery target comes from the day
row's delivery column(s) rescaled to deliveries/day.  Ingestion is
column-wise: each travel day is resolved once to its household and person
rows, and each distinct raw value of a column is encoded or parsed once.

Ingestion fails fast: missing key or mapped columns, dangling references,
unmapped categories and malformed delivery counts raise with the offending
file, row (the header is row 1; blank lines are skipped), and value rather
than silently dropping data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dataset import EncodedDataset
from .errors import DataError, IngestionError, MappingError
from .schema import MISSING_LABEL, HarmonizationSpec, TargetColumn, build_dictionary, encode_value


@dataclass(frozen=True)
class Table:
    """One survey CSV read into columns; entry r of a column is file row r + 2."""

    path: Path
    columns: dict[str, tuple[str, ...]]
    n_rows: int

    def column(self, name: str, what: str) -> tuple[str, ...]:
        if name not in self.columns:
            raise MappingError(f"{self.path}: column {name!r} for {what} is absent")
        return self.columns[name]


@dataclass(frozen=True)
class RawTableSet:
    """Parsed survey tables with every travel day joined to its household and person rows."""

    survey_id: str
    households: Table
    persons: Table
    days: Table
    household_row: np.ndarray  # travel-day row -> household-table row
    person_row: np.ndarray  # travel-day row -> person-table row

    @property
    def counts(self) -> dict[str, int]:
        return {name: getattr(self, name).n_rows for name in ("households", "persons", "days")}


def _read_csv(path: str | Path, required: list[str], label: str) -> Table:
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"{label} table not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestionError(f"{path}: empty file, expected a header row")
        missing = [c for c in required if c not in header]
        if missing:
            raise IngestionError(f"{path}: missing key column(s) {missing}")
        rows = list(filter(None, reader))  # a blank line is no record
    width = len(header)
    if set(map(len, rows)) - {width}:
        bad = next(i for i, row in enumerate(rows) if len(row) != width)
        raise IngestionError(f"{path}: row {bad + 2} has {len(rows[bad])} columns, {width} expected")
    columns = zip(*rows) if rows else [()] * width
    return Table(path=path, columns=dict(zip(header, columns)), n_rows=len(rows))


def _index(keys: Sequence, path: Path, what: str) -> dict:
    """Key -> row; a repeated key raises at its second row."""
    index = dict(zip(keys, range(len(keys))))
    if len(index) != len(keys):
        seen = set()
        for row, key in enumerate(keys, start=2):
            if key in seen:
                raise IngestionError(f"{path}: row {row}: duplicate {what} {key!r}")
            seen.add(key)
    return index


def _lookup(index: dict, keys: Sequence, path: Path, what: str) -> np.ndarray:
    """Row of every key; the first key absent from ``index`` raises."""
    rows = list(map(index.get, keys))
    if None in rows:
        bad = rows.index(None)
        raise IngestionError(f"{path}: row {bad + 2}: {what} {keys[bad]!r}")
    return np.array(rows, dtype=np.intp)


def load_tables(
    household_path: str | Path,
    person_path: str | Path,
    day_path: str | Path,
    survey_id: str,
    spec: HarmonizationSpec,
) -> RawTableSet:
    """Read the three survey CSVs and check referential integrity."""
    keys = spec.table_keys(survey_id)
    hh = _read_csv(household_path, [keys.household_id], "household")
    persons = _read_csv(person_path, [keys.household_id, keys.person_id], "person")
    days = _read_csv(day_path, [keys.household_id, keys.person_id, keys.day_id], "travel-day")

    hh_index = _index(hh.columns[keys.household_id], hh.path, "household id")
    p_hid = persons.columns[keys.household_id]
    p_household = _lookup(hh_index, p_hid, persons.path, "person references unknown household")
    p_index = _index(list(zip(p_hid, persons.columns[keys.person_id])), persons.path, "person")
    d_keys = list(zip(days.columns[keys.household_id], days.columns[keys.person_id]))
    person_row = _lookup(p_index, d_keys, days.path, "travel day references unknown person")
    return RawTableSet(survey_id, hh, persons, days, p_household[person_row], person_row)


def _per_value(table: Table, values: Sequence[str], rows: np.ndarray,
               convert: Callable, shape: tuple, dtype) -> np.ndarray:
    """``convert(values[r])`` for every r in ``rows``, called once per distinct value.

    A failed conversion raises with the file and the first row holding the value.
    """
    distinct = list(dict.fromkeys(values))
    code = {v: k for k, v in enumerate(distinct)}
    codes = np.fromiter(map(code.__getitem__, values), np.intp, len(values))[rows]
    used = np.zeros(len(distinct), dtype=bool)
    used[codes] = True
    out = np.zeros((len(distinct), *shape), dtype=dtype)
    for k in np.flatnonzero(used):
        try:
            out[k] = convert(distinct[k])
        except (MappingError, DataError) as exc:
            row = int(rows[codes == k].min()) + 2
            raise type(exc)(f"{table.path}: row {row}: {exc}") from None
    return out[codes]


def _delivery_count(raw: str, target: TargetColumn, column: str, survey_id: str) -> float:
    """One raw delivery count; NaN when blank."""
    raw = raw.strip()
    if raw in target.missing_values:
        return math.nan
    try:
        value = float(raw)
    except ValueError:
        value = None
    if value is None or not 0 <= value < math.inf:
        problem = "non-numeric" if value is None else "negative" if value < 0 else "non-finite"
        raise DataError(f"survey {survey_id!r} column {column!r}: {problem} delivery count {raw!r}")
    return value


def assemble(raw: RawTableSet, spec: HarmonizationSpec, year: int) -> EncodedDataset:
    """Encode one sample per travel-day row; deterministic in input order."""
    dictionary = build_dictionary(spec)
    survey_id = raw.survey_id
    # Resolve every mapped column up front; fail before encoding any row.
    joined = {"household": (raw.households, raw.household_row),
              "person": (raw.persons, raw.person_row)}
    features = []
    for f in spec.features:
        col = f.survey_column(survey_id)
        table, rows = joined[col.table]
        values = table.column(col.column, f"feature {f.name!r} of survey {survey_id!r}")
        features.append((f, table, rows, values))
    tgt = spec.target.survey_target(survey_id)
    targets = [(c, raw.days.column(c, f"the target of survey {survey_id!r}")) for c in tgt.columns]

    n = raw.days.n_rows
    x = np.zeros((n, dictionary.dimension), dtype=np.uint8)
    for (f, table, rows, values), sl in zip(features, dictionary.group_slices()):
        encode = partial(encode_value, f, survey_id=survey_id)
        x[:, sl] = _per_value(table, values, rows, encode, (len(f.categories),), np.uint8)
    total = np.zeros(n)
    answered = np.zeros(n, dtype=bool)
    for name, values in targets:
        parse = partial(_delivery_count, target=tgt, column=name, survey_id=survey_id)
        count = _per_value(raw.days, values, np.arange(n), parse, (), np.float64)
        given = ~np.isnan(count)
        total[given] += count[given]  # a blank column counts as zero beside an answered one
        answered |= given
    y = np.where(answered, total / tgt.divisor, np.nan)
    household_ids = raw.days.columns[spec.table_keys(survey_id).household_id]
    return EncodedDataset(dictionary, survey_id, year, np.array(household_ids, dtype=np.str_), x, y)


def describe(ds: EncodedDataset) -> dict:
    """Descriptive statistics: sizes, missing-target share, per-feature counts."""
    report: dict = {
        "survey_id": ds.survey_id,
        "year": ds.year,
        "n_households": ds.n_households(),
        "n_samples": ds.n_samples,
        "n_missing_target": ds.n_missing,
        "missing_target_fraction": (ds.n_missing / ds.n_samples) if ds.n_samples else 0.0,
    }
    features = {}
    for name, cats, sl in zip(
        ds.dictionary.features, ds.dictionary.categories, ds.dictionary.group_slices()
    ):
        group = ds.x[:, sl]
        counts = {cat: int(group[:, j].sum()) for j, cat in enumerate(cats)}
        counts[MISSING_LABEL] = int((group.sum(axis=1) == 0).sum())
        features[name] = counts
    report["features"] = features
    return report
