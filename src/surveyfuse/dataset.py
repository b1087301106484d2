"""Encoded person-day datasets and their on-disk artifact format.

An :class:`EncodedDataset` is the unit every pipeline stage exchanges:
one row per person-day sample, a fixed-width bit matrix of one-hot
covariates, and an optional deliveries/day target (NaN = missing).

The ``.enc`` artifact is a zip container holding a JSON header plus raw
``.npy`` arrays.  The header embeds the feature-dictionary hash so that
loading or combining datasets encoded with different dictionaries fails
loudly instead of silently matching incompatible coordinates.  Writes are
byte-deterministic: fixed zip timestamps, fixed member order.

Members are streamed in both directions: ``save`` deflates each array
from its own buffer in slices, after its ``.npy`` header, and ``load``
reads each member through numpy in small blocks, so neither holds a
whole member as one ``bytes`` object.  Household ids are coded in
memory (distinct ids plus an int32 code per sample, see
:class:`EncodedDataset`): ``load`` codes ``household_ids.npy`` before it
reads ``x.npy``, and ``save`` gathers each block of the per-sample ids
from the codes, so the file holds the same ``.npy`` member as ever.
``load`` checks each member where it enters: present, of its expected
dimensions and dtype before any conversion, and as long as
``meta.json``'s ``n_samples``.  Each key that ``meta.json`` must hold is
checked for presence and JSON type, and a damaged container is a
``FusionError``.
"""

from __future__ import annotations

import io
import json
import math
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .errors import DataError, DictionaryMismatchError, DimensionError, FusionError, SchemaError
from .schema import FeatureDictionary, json_field

ENC_FORMAT = "surveyfuse-encoded"
ENC_VERSION = 1

# Fixed zip metadata so identical datasets serialize to identical bytes.
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)

# Rows per block of ``_packed_first_occurrence``'s row-index OR.
_ROW_BLOCK = 1 << 16


def rng_stream(*key: int) -> np.random.Generator:
    """The PCG64 generator of one named stream, e.g. ``(seed, row)``.

    Every random draw in the package comes from such a stream, so results
    never depend on call order or thread count.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def first_occurrence(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-occurrence index of each distinct key, in order of appearance,
    and each element's rank among them.

    Integer keys whose span and row index fit together in 64 bits, such as
    packed covariate rows of d <= 44 at a million rows, take one packed
    ``(key, row)`` sort (``_packed_first_occurrence``).  Other keys (strings
    such as household ids, void rows, integer keys too wide to pack) are
    cut into runs of equal adjacent keys.  Integer, string and bytes keys
    already in non-decreasing order, as a household's samples arrive, are
    answered from the runs alone: the first occurrences are the run starts
    and an element's rank is its run's, with no sort.  Otherwise
    ``np.unique`` groups the runs' keys, which is exact in any order; void
    keys have no order and always take it.
    """
    keys = np.asarray(keys)
    n = keys.shape[0]
    if keys.dtype.kind in "iu" and n:
        bits = (n - 1).bit_length()  # of a row index
        lowest = keys.argmin()
        if (int(keys.max()) - int(keys[lowest])).bit_length() + bits <= 64:
            return _packed_first_occurrence(keys, lowest, bits)
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = keys[1:] != keys[:-1]
    if keys.dtype.kind in "iuSU" and not (keys[1:] < keys[:-1]).any():
        rank = np.cumsum(run_start, dtype=np.intp)
        rank -= 1
        return np.flatnonzero(run_start), rank
    starts = np.flatnonzero(run_start)
    _, first, inverse = np.unique(keys[starts], return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    lengths = np.diff(starts, append=n)
    return starts[first[order]], np.repeat(rank[inverse], lengths)


def _packed_first_occurrence(
    keys: np.ndarray, lowest: int, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """``first_occurrence`` by one sort of ``(key - keys[lowest]) << bits | row``.

    The packed values are distinct, and each key's group starts with its
    first occurrence.  Besides the two outputs, only the sorted buffer and
    the row index (uint32 when it fits) are as long as ``keys``: the row
    index is ORed in ``_ROW_BLOCK`` rows at a time, and each element's rank
    is written into the sorted buffer, dead by then, before the scatter.
    """
    n = keys.shape[0]
    packed = keys.astype(np.uint64)  # two's complement: differences stay exact
    packed -= packed[lowest]
    packed <<= np.uint64(bits)
    for s in range(0, n, _ROW_BLOCK):
        packed[s : s + _ROW_BLOCK] |= np.arange(s, min(s + _ROW_BLOCK, n), dtype=np.uint64)
    packed.sort()
    row = np.empty(n, dtype=np.uint32 if bits <= 32 else np.intp)
    np.bitwise_and(packed, np.uint64((1 << bits) - 1), out=row, casting="unsafe")
    packed >>= np.uint64(bits)
    start = np.ones(n, dtype=bool)
    np.not_equal(packed[1:], packed[:-1], out=start[1:])
    firsts = row[np.flatnonzero(start)].astype(np.intp)  # of each key's group, in key order
    order = np.argsort(firsts)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    group = packed.view(np.intp)  # each sorted element's group, then its rank
    np.cumsum(start, out=group)
    group -= 1
    np.take(rank, group, out=group, mode="clip")
    inverse = np.empty(n, dtype=np.intp)
    inverse[row] = group
    return firsts[order], inverse


def household_index(household_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct household ids in first-appearance order, and each sample's
    position among them."""
    first, inverse = first_occurrence(household_ids)
    return np.asarray(household_ids)[first], inverse


def household_sums(
    household_ids: np.ndarray,
    sample_y: np.ndarray,
    code: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-sample values per household, first-appearance order.

    With ``code``, ``household_ids`` are already the distinct ids and
    ``code`` each sample's position among them, as an ``EncodedDataset``'s
    ``households`` and ``household_code``.
    """
    if code is None:
        household_ids, code = household_index(household_ids)
    return household_ids, np.bincount(code, weights=sample_y, minlength=household_ids.size)


def _code_ids(household_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``household_index`` of a 1-D id array, positions as int32."""
    if household_ids.ndim != 1:
        raise DimensionError(f"household ids must be 1-D, got shape {household_ids.shape}")
    households, position = household_index(household_ids)
    return households, position.astype(np.int32)


def _checked_codes(households: np.ndarray, code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coded household ids as stored, or a ``DataError`` if an id repeats or
    the codes are out of range, skip a household, or are not in
    first-appearance order."""
    households = np.asarray(households, dtype=np.str_)
    code = np.asarray(code)
    if households.ndim != 1 or code.ndim != 1:
        raise DimensionError(
            f"households and household_code must be 1-D, got shapes "
            f"{households.shape} and {code.shape}"
        )
    if code.dtype.kind not in "iu":
        raise DataError(f"household_code must be integers, got {code.dtype}")
    # ascending ids are distinct; any others are counted in a set
    if households.size > 1 and not (households[1:] > households[:-1]).all():
        if len(set(households.tolist())) < households.size:
            ids, counts = np.unique(households, return_counts=True)
            raise DataError(f"households must be distinct, but {str(ids[counts > 1][0])!r} repeats")
    if code.size:
        # in first-appearance order iff every code is at most one above all before it
        top = np.maximum.accumulate(code)
        ordered = code[0] == 0 and not (top[1:] - top[:-1] > 1).any() and code.min() >= 0
        if not ordered or top[-1] != households.size - 1:
            raise DataError(
                "household_code must number all households 0, 1, ... in order of first appearance"
            )
    elif households.size:
        raise DataError(f"{households.size} households, but no samples")
    return households, code.astype(np.int32, copy=False)


class EncodedDataset:
    """Ordered person-day samples sharing one feature dictionary.

    Household ids are held coded: ``households`` are the distinct ids in
    order of first appearance and ``household_code`` is each sample's
    position among them (int32), 4 bytes a sample instead of one string.
    Pass either ``household_ids``, one per sample, which are coded here, or
    ``households`` and ``household_code`` already coded; the codes are
    checked to be in first-appearance order and to use every household,
    and ``households`` to be distinct.
    """

    def __init__(
        self,
        dictionary: FeatureDictionary,
        survey_id: str,
        year: int,
        household_ids: np.ndarray | None = None,
        x: np.ndarray | None = None,
        y: np.ndarray | None = None,
        *,
        households: np.ndarray | None = None,
        household_code: np.ndarray | None = None,
    ) -> None:
        if x is None or y is None:
            raise TypeError("EncodedDataset needs x and y")
        given = (household_ids is not None, households is not None, household_code is not None)
        if given not in ((True, False, False), (False, True, True)):
            raise TypeError("pass household_ids, or households and household_code")
        self.dictionary = dictionary
        self.survey_id = survey_id
        self.year = year
        if household_ids is not None:
            households, household_code = _code_ids(np.asarray(household_ids, dtype=np.str_))
        else:
            households, household_code = _checked_codes(households, household_code)
        self.households: np.ndarray = households  # (k,) unicode, distinct
        self.household_code: np.ndarray = household_code  # (n,) int32 into households
        x = np.asarray(x)
        self.x = np.ascontiguousarray(x, dtype=np.uint8)  # (n, d) one-hot groups per feature
        self.y = np.asarray(y, dtype=np.float64)  # (n,) NaN = missing target
        n = self.household_code.shape[0]
        if self.x.shape != (n, self.dictionary.dimension):
            raise DimensionError(
                f"x has shape {self.x.shape}, expected ({n}, {self.dictionary.dimension})"
            )
        if self.y.shape != (n,):
            raise DimensionError(f"y has shape {self.y.shape}, expected ({n},)")
        if self.x.max(initial=0) > 1 or (x.dtype != np.uint8 and not np.array_equal(self.x, x)):
            raise DataError("x values must be 0 or 1")
        for name, sl in zip(self.dictionary.features, self.dictionary.group_slices()):
            # a one-hot group has popcount 0 (missing) or 1; summing column by
            # column is several times faster than a row-wise sum over the slice
            if sl.stop - sl.start < 2:
                continue
            pop = self.x[:, sl.start].astype(np.uint16)
            for col in range(sl.start + 1, sl.stop):
                pop += self.x[:, col]
            if pop.max(initial=0) > 1:
                row = int(np.argmax(pop > 1))
                raise DataError(f"x row {row}: feature {name!r} has more than one bit set")
        present = self.y[~np.isnan(self.y)]
        if not np.isfinite(present).all():
            raise DataError("target values must be finite (NaN marks a missing target)")
        if present.size and present.min() < 0:
            raise DataError("target values must be >= 0")

    # -- basic views ----------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return int(self.household_code.shape[0])

    @property
    def household_ids(self) -> np.ndarray:
        """Each sample's household id: a new ``households[household_code]``
        array, as large as the strings; not meant for hot paths."""
        return self.households[self.household_code]

    @property
    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.y)

    @property
    def n_missing(self) -> int:
        return int(self.missing_mask.sum())

    def n_households(self) -> int:
        return int(self.households.size)

    def subset(self, indices: np.ndarray) -> "EncodedDataset":
        indices = np.asarray(indices)
        code = self.household_code[indices]
        first, rank = first_occurrence(code)
        return EncodedDataset(
            dictionary=self.dictionary,
            survey_id=self.survey_id,
            year=self.year,
            households=self.households[code[first]],
            household_code=rank.astype(np.int32),
            x=self.x[indices],
            y=self.y[indices],
        )

    def labeled(self) -> "EncodedDataset":
        """Samples whose target is present."""
        return self.subset(np.flatnonzero(~self.missing_mask))

    def household_totals(self) -> dict[str, float]:
        """Sum of per-sample targets per household, ordered by first appearance.

        Requires a fully labeled dataset; impute first if targets are missing.
        """
        if self.n_missing:
            raise DataError(
                f"{self.n_missing} samples have missing targets; "
                "impute before computing household totals"
            )
        ids, totals = household_sums(self.households, self.y, self.household_code)
        return dict(zip(ids.tolist(), totals.tolist()))

    # -- persistence -----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        meta = {
            "format": ENC_FORMAT,
            "version": ENC_VERSION,
            "survey_id": self.survey_id,
            "year": self.year,
            "n_samples": self.n_samples,
            "dictionary": self.dictionary.to_json_dict(),
            "dictionary_hash": self.dictionary.hash(),
        }
        with zipfile.ZipFile(path, "w") as zf:
            _write_member(zf, "meta.json", json.dumps(meta, sort_keys=True, indent=1).encode())
            _write_member(zf, "household_ids.npy", self.households, self.household_code)
            _write_member(zf, "x.npy", self.x)
            _write_member(zf, "y.npy", self.y)

    @classmethod
    def load(cls, path: str | Path) -> "EncodedDataset":
        try:
            with zipfile.ZipFile(path, "r") as zf:
                with _open_member(zf, path, "meta.json") as fh:
                    try:
                        meta = json.load(fh)
                    except ValueError as exc:
                        raise DataError(f"{path}: member 'meta.json' is not JSON: {exc}") from None
                if not isinstance(meta, dict):
                    raise DataError(f"{path}: member 'meta.json' is not a JSON object")
                if meta.get("format") != ENC_FORMAT:
                    raise FusionError(f"{path}: not a {ENC_FORMAT} artifact")
                if meta.get("version") != ENC_VERSION:
                    raise FusionError(
                        f"{path}: unsupported artifact version {meta.get('version')!r}"
                    )
                where = f"{path}: member 'meta.json'"
                for key, kind in _META_FIELDS.items():
                    json_field(meta, key, kind, where, error=DataError)
                try:
                    dictionary = FeatureDictionary.from_json_dict(meta["dictionary"])
                except SchemaError as exc:
                    raise DataError(
                        f"{where} key 'dictionary' must be a feature dictionary: {exc}"
                    ) from None
                if dictionary.hash() != meta["dictionary_hash"]:
                    raise DictionaryMismatchError(
                        f"{path}: embedded dictionary hash does not match its layout"
                    )
                # the ids are coded as soon as they are read, before x and y
                households, code = _code_ids(_read_npy(zf, path, "household_ids.npy"))
                arrays = {"household_ids.npy": code}
                for name in ("x.npy", "y.npy"):
                    arrays[name] = _read_npy(zf, path, name)
        except FileNotFoundError:  # a missing path stays what it is
            raise
        except _ZIP_ERRORS as exc:
            raise FusionError(f"{path}: not a readable {ENC_FORMAT} artifact: {exc}") from None
        n = meta.get("n_samples")
        for name, arr in arrays.items():
            if type(n) is not int or arr.shape[0] != n:
                raise DataError(
                    f"{path}: meta.json n_samples is {n!r}, but member {name!r} has "
                    f"{arr.shape[0]} rows"
                )
        return cls(
            dictionary=dictionary,
            survey_id=meta["survey_id"],
            year=meta["year"],
            households=households,
            household_code=code,
            x=arrays["x.npy"],
            y=arrays["y.npy"],
        )


# meta.json key -> what its value must be (a key of schema.JSON_KINDS)
_META_FIELDS = {
    "survey_id": "a string",
    "year": "an integer",
    "dictionary": "an object",
    "dictionary_hash": "a string",
}

# what zipfile raises on a damaged container or member: a bad CRC, a bad
# deflate stream, a cut stream, an unknown compression method or version,
# an encryption flag, an impossible offset (or a path that is no file)
_ZIP_ERRORS = (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, RuntimeError, OSError)

_WRITE_BYTES = 1 << 20  # array bytes handed to the compressor per write

# array member -> (dimensions, dtype kind, item size or None for any, as named in errors)
_ARRAY_MEMBERS = {
    "household_ids.npy": (1, "U", None, "unicode"),
    "x.npy": (2, "u", 1, "uint8"),
    "y.npy": (1, "f", 8, "float64"),
}


def _write_member(
    zf: zipfile.ZipFile, name: str, data: bytes | np.ndarray, rows: np.ndarray | None = None
) -> None:
    """Deflate one member; an array is streamed as ``.npy`` 1.0, header then
    rows in blocks of about ``_WRITE_BYTES``.  With ``rows``, the array
    written is ``data[rows]``, gathered one block at a time."""
    info = zipfile.ZipInfo(name, date_time=_ZIP_DATE)
    info.create_system = 3
    info.external_attr = 0o644 << 16
    info.compress_type = zipfile.ZIP_DEFLATED
    if isinstance(data, np.ndarray):
        arr = np.ascontiguousarray(data)
        n = arr.shape[0] if rows is None else rows.shape[0]
        fields = np.lib.format.header_data_from_array_1_0(arr)
        fields["shape"] = (n, *arr.shape[1:])
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(buf, fields)
        row_bytes = arr.dtype.itemsize * math.prod(arr.shape[1:])
        block = max(1, _WRITE_BYTES // max(1, row_bytes))
        header, body_bytes = buf.getvalue(), n * row_bytes
        blocks = (
            arr[s : s + block] if rows is None else arr[rows[s : s + block]]
            for s in range(0, n, block)
        )
    else:
        header, body_bytes, blocks = data, 0, ()
    # the exact size up front makes the same zip64 choice as ``ZipFile.writestr``
    info.file_size = len(header) + body_bytes
    with zf.open(info, "w") as fh:
        fh.write(header)
        for part in blocks:
            fh.write(np.ascontiguousarray(part).reshape(-1).view(np.uint8))


def _open_member(zf: zipfile.ZipFile, path: str | Path, name: str):
    try:
        return zf.open(name)
    except KeyError:
        raise FusionError(f"{path}: member {name!r} is missing") from None


def _read_npy(zf: zipfile.ZipFile, path: str | Path, name: str) -> np.ndarray:
    """One array member, read in blocks and checked before any conversion."""
    ndim, kind, itemsize, expected = _ARRAY_MEMBERS[name]
    with _open_member(zf, path, name) as fh:
        try:
            arr = np.lib.format.read_array(fh, allow_pickle=False)
        except (ValueError, EOFError, zlib.error) as exc:
            raise DataError(f"{path}: member {name!r} is not a readable array: {exc}") from None
    if arr.ndim != ndim or arr.dtype.kind != kind or itemsize not in (None, arr.dtype.itemsize):
        raise DataError(
            f"{path}: member {name!r} must be a {ndim}-D {expected} array, "
            f"got a {arr.ndim}-D {arr.dtype} array"
        )
    return arr


def require_same_dictionary(*datasets: EncodedDataset) -> None:
    """Raise unless every dataset was encoded with an identical dictionary."""
    hashes = {ds.dictionary.hash() for ds in datasets}
    if len(hashes) > 1:
        raise DictionaryMismatchError(
            "datasets use different feature dictionaries: "
            + ", ".join(f"{ds.survey_id}:{ds.dictionary.hash()[:12]}" for ds in datasets)
        )


def concat_datasets(
    datasets: list[EncodedDataset], survey_id: str, year: int
) -> EncodedDataset:
    """Stack coordinate-compatible datasets into one (dictionary hash checked)."""
    if not datasets:
        raise FusionError("cannot concatenate zero datasets")
    require_same_dictionary(*datasets)
    # each dataset's households are distinct and in first-appearance order,
    # so their concatenation's first occurrences are the stacked samples'
    stacked = np.concatenate([d.households for d in datasets])
    first, rank = first_occurrence(stacked)
    rank = rank.astype(np.int32)
    offsets = np.cumsum([0] + [d.households.size for d in datasets])
    return EncodedDataset(
        dictionary=datasets[0].dictionary,
        survey_id=survey_id,
        year=year,
        households=stacked[first],
        household_code=np.concatenate(
            [rank[d.household_code + off] for d, off in zip(datasets, offsets.tolist())]
        ),
        x=np.concatenate([d.x for d in datasets], axis=0),
        y=np.concatenate([d.y for d in datasets]),
    )
