"""CSV ingestion: join household / person / travel-day tables into encoded samples.

Surveys arrive as three CSV files linked by primary keys (household id;
household id + person id; household id + person id + day id).  One
encoded sample is emitted per travel-day row, replicating household- and
person-level covariates onto it; the delivery target comes from the day
row's delivery column(s) rescaled to deliveries/day.

Ingestion is column-wise and coded.  A file is parsed ``CHUNK_ROWS``
non-blank rows at a time, and each column is kept as its distinct raw
strings, in order of first appearance, plus one code per row of the
narrowest unsigned type that holds it, so memory follows the number of
distinct values rather than the number of cells.  A key column is coded
while it is read against the table it references: household ids in every
table through one id -> household-row dict, person ids of the travel days
through the persons' id -> code dict, so each id string is held once and
an id that the referenced table lacks gets a code past its end.  Persons
are joined on (household row, person-id code) packed into one integer and
matched by sorted search.  Each distinct raw value of a mapped column is
then encoded or parsed once, and a feature's packed one-hot words are
ORed straight into the samples' words.

Files are UTF-8; a leading byte-order mark is ignored.  Ingestion fails
fast: a header that repeats a column, missing key or mapped columns,
dangling references, unmapped categories and malformed delivery counts
raise with the offending file, row (the header is row 1; blank lines are
skipped), and value rather than silently dropping data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dataset import _PACK_ROWS, EncodedDataset, EncodedStream, _code_ids, pack_rows, unpack_rows
from .errors import DataError, IngestionError, MappingError
from .schema import MISSING_LABEL, HarmonizationSpec, TargetColumn, build_dictionary, encode_value

CHUNK_ROWS = 1024  # non-blank CSV rows held as Python strings at one time


class Column(NamedTuple):
    """One CSV column: its distinct raw strings in order of first appearance, a code per row."""

    values: list[str]
    codes: np.ndarray  # row -> index into ``values``, unsigned, as narrow as ``values`` allow

    def raw(self, row: int) -> str:
        return self.values[self.codes[row]]


@dataclass(frozen=True)
class Table:
    """One survey CSV read into coded columns; code r of a column is row r + 2 of the file."""

    path: Path
    columns: dict[str, Column]
    n_rows: int

    def column(self, name: str, what: str) -> Column:
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
    household_row: np.ndarray  # travel-day row -> household-table row (the days' key codes)
    person_row: np.ndarray  # travel-day row -> person-table row

    @property
    def counts(self) -> dict[str, int]:
        return {name: getattr(self, name).n_rows for name in ("households", "persons", "days")}

    @property
    def day_households(self) -> int:
        """Households with at least one travel day, so with at least one sample."""
        return int(np.count_nonzero(np.bincount(self.household_row, minlength=1)))


class _Coder(dict):
    """Raw string -> code; a string not seen before gets the next code."""

    def __missing__(self, value: str) -> int:
        self[value] = code = len(self)
        return code


def _code_type(n_values: int) -> np.dtype:
    """The narrowest unsigned type of codes 0 .. n_values - 1."""
    return np.min_scalar_type(max(n_values - 1, 0))


def _read_csv(path: str | Path, required: list[str], label: str,
              shared: dict[str, _Coder]) -> Table:
    """One CSV file as coded columns; a column named in ``shared`` is coded
    by, and extends, the coder given for it there."""
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"{label} table not found: {path}")
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestionError(f"{path}: empty file, expected a header row")
        repeated = [c for i, c in enumerate(header) if c in header[:i]]
        if repeated:
            raise IngestionError(f"{path}: column {repeated[0]!r} appears twice in the header")
        missing = [c for c in required if c not in header]
        if missing:
            raise IngestionError(f"{path}: missing key column(s) {missing}")
        width = len(header)
        coders = [shared[c] if c in shared else _Coder() for c in header]
        parts = [[np.zeros(0, dtype=np.uint8)] for _ in header]  # per column: codes per chunk
        n_rows = 0
        records = filter(None, reader)  # a blank line is no record
        while chunk := list(islice(records, CHUNK_ROWS)):
            if set(map(len, chunk)) - {width}:
                bad = next(i for i, row in enumerate(chunk) if len(row) != width)
                raise IngestionError(
                    f"{path}: row {n_rows + bad + 2} has {len(chunk[bad])} columns, {width} expected"
                )
            for coder, part, cells in zip(coders, parts, zip(*chunk)):
                codes = np.fromiter(map(coder.__getitem__, cells), np.intc, len(chunk))
                part.append(codes.astype(_code_type(len(coder))))
            n_rows += len(chunk)
    columns = {}
    for name, coder, part in zip(header, coders, parts):
        codes = np.concatenate(part, dtype=_code_type(len(coder)), casting="unsafe")
        columns[name] = Column(list(coder), codes)
        part.clear()  # free each column's chunks, and its lookup unless shared, once it is built
        if name not in shared:
            coder.clear()
    return Table(path=path, columns=columns, n_rows=n_rows)


def load_tables(
    household_path: str | Path,
    person_path: str | Path,
    day_path: str | Path,
    survey_id: str,
    spec: HarmonizationSpec,
) -> RawTableSet:
    """Read the three survey CSVs and check referential integrity.

    The first offending row is reported, checked in this order: a repeated
    household id, a person of an unknown household, a repeated person, a
    travel day of an unknown person.
    """
    keys = spec.table_keys(survey_id)
    households = _Coder()  # household id -> household-table row, while no id repeats
    person_ids = _Coder()  # person id -> its code in the persons table
    hid, pid = keys.household_id, keys.person_id
    shared = {pid: person_ids, hid: households}  # one column naming both keys codes households
    hh = _read_csv(household_path, [hid], "household", {hid: households})
    persons = _read_csv(person_path, [hid, pid], "person", shared)
    days = _read_csv(day_path, [hid, pid, keys.day_id], "travel-day", shared)

    hh_id = hh.columns[hid]
    n_households = len(hh_id.values)
    if n_households < hh.n_rows:  # codes count 0, 1, 2, ... up to the first repeat
        row = int(np.argmax(hh_id.codes != np.arange(hh.n_rows)))
        raise _row_error(hh, row, "duplicate household id", hh_id.raw(row))
    p_hid, p_pid = persons.columns[hid], persons.columns[pid]
    unknown = p_hid.codes >= n_households
    if unknown.any():
        row = int(np.argmax(unknown))
        raise _row_error(persons, row, "person references unknown household", p_hid.raw(row))
    n_pid = len(p_pid.values)
    p_keys = _person_keys(p_hid.codes, p_pid.codes, n_households, n_pid)
    order = np.argsort(p_keys, kind="stable")
    sorted_keys = p_keys[order]
    repeated = sorted_keys[1:] == sorted_keys[:-1]
    if repeated.any():
        row = int(order[1:][repeated].min())  # a repeat is any but the first row of its key
        raise _row_error(persons, row, "duplicate person", (p_hid.raw(row), p_pid.raw(row)))

    d_hid, d_pid = days.columns[hid], days.columns[pid]
    # A sentinel above every person's key keeps each search result a valid index.
    sorted_keys = np.append(sorted_keys, np.iinfo(np.int64).max)
    person_row = np.empty(days.n_rows, dtype=_code_type(persons.n_rows))
    for s in range(0, days.n_rows, _PACK_ROWS):  # a block of days at a time
        block = slice(s, s + _PACK_ROWS)
        d_keys = _person_keys(d_hid.codes[block], d_pid.codes[block], n_households, n_pid)
        at = np.searchsorted(sorted_keys, d_keys)
        found = sorted_keys[at] == d_keys
        if not found.all():
            row = s + int(np.argmin(found))
            key = (d_hid.raw(row), d_pid.raw(row))
            raise _row_error(days, row, "travel day references unknown person", key)
        person_row[block] = order[at]
    return RawTableSet(survey_id, hh, persons, days, d_hid.codes, person_row)


def _row_error(table: Table, row: int, what: str, key) -> IngestionError:
    return IngestionError(f"{table.path}: row {row + 2}: {what} {key!r}")


def _person_keys(household: np.ndarray, person: np.ndarray,
                 n_household: int, n_person: int) -> np.ndarray:
    """(household row, person-id code) packed into one int64; -1 where either
    is a code past its table's end, of an id the table lacks."""
    keys = household.astype(np.int64)
    keys *= n_person
    keys += person
    keys[(household >= n_household) | (person >= n_person)] = -1
    return keys


def _per_value(table: Table, column: Column, rows: np.ndarray | None,
               convert: Callable, shape: tuple, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``convert`` of each distinct value in ``rows`` (every row if None),
    called once per value used, and each row's index into them.

    A failed conversion raises with the file and the first row holding the value.
    """
    codes = column.codes if rows is None else column.codes[rows]
    used = np.zeros(len(column.values), dtype=bool)
    used[codes] = True
    out = np.zeros((len(column.values), *shape), dtype=dtype)
    for k in np.flatnonzero(used):
        try:
            out[k] = convert(column.values[k])
        except (MappingError, DataError) as exc:
            held = codes == k
            row = int(np.argmax(held) if rows is None else rows[held].min()) + 2
            raise type(exc)(f"{table.path}: row {row}: {exc}") from None
    return out, codes


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
        column = table.column(col.column, f"feature {f.name!r} of survey {survey_id!r}")
        features.append((f, table, rows, column))
    tgt = spec.target.survey_target(survey_id)
    targets = [(c, raw.days.column(c, f"the target of survey {survey_id!r}")) for c in tgt.columns]

    n, d = raw.days.n_rows, dictionary.dimension
    words = np.zeros((n, (d + 63) // 64), dtype=np.uint64)
    for (f, table, rows, column), sl in zip(features, dictionary.group_slices()):
        encode = partial(encode_value, f, survey_id=survey_id)
        bits, codes = _per_value(table, column, rows, encode, (len(f.categories),), np.uint8)
        placed = np.zeros((len(bits), d), dtype=np.uint8)
        placed[:, sl] = bits
        words |= pack_rows(placed)[codes]  # the feature's words of each distinct value, per row
    y = np.zeros(n)  # the total count, then the target
    answered = np.zeros(n, dtype=bool)
    for name, column in targets:
        parse = partial(_delivery_count, target=tgt, column=name, survey_id=survey_id)
        counts, codes = _per_value(raw.days, column, None, parse, (), np.float64)
        count = counts[codes]
        given = ~np.isnan(count)
        np.add(y, count, out=y, where=given)  # a blank column counts as zero beside an answered one
        answered |= given
    y /= tgt.divisor
    y[~answered] = np.nan
    # the days' household codes number household-table rows: renumbered in
    # order of first appearance among the days, they are the samples' codes
    row = raw.household_row
    rows, household_code = _code_ids(
        (row[s : s + _PACK_ROWS] for s in range(0, n, _PACK_ROWS)), n, row.dtype
    )
    ids = raw.households.columns[spec.table_keys(survey_id).household_id].values
    # only households with days: the array is as wide as the longest of their ids
    households = np.array([ids[r] for r in rows.tolist()], dtype=np.str_)
    return EncodedDataset(
        dictionary, survey_id, year, words=words, y=y,
        households=households, household_code=household_code,
    )


def describe(ds: EncodedDataset | EncodedStream) -> dict:
    """Descriptive statistics: sizes, missing-target share, per-feature counts.

    The ``blocks()`` of a dataset or a stream are read once, each adding its
    rows' bits to one count per bit and its NaN targets to the missing
    count.  A feature's missing count is the rows less its categories'
    counts: a row has at most one bit of a one-hot group set, as the
    constructor checks, and a stream's row checks before its blocks end.
    """
    n, d = ds.n_samples, ds.dictionary.dimension
    bits = np.zeros(d, dtype=np.int64)
    n_missing = 0
    for words, y in ds.blocks():
        bits += unpack_rows(words, d).sum(axis=0, dtype=np.int64)
        n_missing += int(np.count_nonzero(np.isnan(y)))
    report: dict = {
        "survey_id": ds.survey_id,
        "year": ds.year,
        "n_households": ds.n_households(),
        "n_samples": n,
        "n_missing_target": n_missing,
        "missing_target_fraction": (n_missing / n) if n else 0.0,
    }
    features = {}
    for name, cats, sl in zip(
        ds.dictionary.features, ds.dictionary.categories, ds.dictionary.group_slices()
    ):
        hot = bits[sl].tolist()
        counts = dict(zip(cats, hot))
        counts[MISSING_LABEL] = n - sum(hot)
        features[name] = counts
    report["features"] = features
    return report
