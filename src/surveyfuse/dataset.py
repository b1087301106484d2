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
whole member as one ``bytes`` object.  ``load`` checks each member where
it enters: present, of its expected dimensions and dtype before any
conversion, and as long as ``meta.json``'s ``n_samples``.  Each key that
``meta.json`` must hold is checked for presence and JSON type.
"""

from __future__ import annotations

import io
import json
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, DictionaryMismatchError, DimensionError, FusionError
from .schema import DICTIONARY_KIND, FeatureDictionary, json_field

ENC_FORMAT = "surveyfuse-encoded"
ENC_VERSION = 1

# Fixed zip metadata so identical datasets serialize to identical bytes.
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)


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
    packed covariate rows of d <= 44 at a million rows, are packed as
    ``(key - min) << bits | row`` and sorted once: the packed values are
    distinct, and each key's group starts with its first occurrence.  Other
    keys (strings such as household ids, void rows, integer keys too wide
    to pack) go through ``np.unique`` after runs of equal adjacent keys are
    collapsed, which is exact in any order and cheap when keys arrive
    grouped, as a household's samples do.
    """
    keys = np.asarray(keys)
    n = keys.shape[0]
    if keys.dtype.kind in "iu" and n:
        bits = (n - 1).bit_length()  # of a row index
        lowest = keys.argmin()
        if (int(keys.max()) - int(keys[lowest])).bit_length() + bits <= 64:
            packed = keys.astype(np.uint64)  # two's complement: differences stay exact
            packed -= packed[lowest]
            packed <<= np.uint64(bits)
            packed |= np.arange(n, dtype=np.uint64)
            packed.sort()
            row = (packed & np.uint64((1 << bits) - 1)).view(np.int64)
            packed >>= np.uint64(bits)
            start = np.ones(n, dtype=bool)
            np.not_equal(packed[1:], packed[:-1], out=start[1:])
            starts = np.flatnonzero(start)  # of each key's group, in key order
            firsts = row[starts]
            order = np.argsort(firsts)
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            inverse = np.empty(n, dtype=np.intp)
            inverse[row] = np.repeat(rank, np.diff(starts, append=n))
            return firsts[order], inverse
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(run_start)
    _, first, inverse = np.unique(keys[starts], return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    lengths = np.diff(starts, append=n)
    return starts[first[order]], np.repeat(rank[inverse], lengths)


def household_index(household_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct household ids in first-appearance order, and each sample's
    position among them."""
    first, inverse = first_occurrence(household_ids)
    return np.asarray(household_ids)[first], inverse


def household_sums(
    household_ids: np.ndarray,
    sample_y: np.ndarray,
    index: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-sample values per household, first-appearance order.

    ``index`` is ``household_index(household_ids)`` if the caller has it.
    """
    ids, position = household_index(household_ids) if index is None else index
    return ids, np.bincount(position, weights=sample_y, minlength=ids.size)


@dataclass
class EncodedDataset:
    """Ordered person-day samples sharing one feature dictionary."""

    dictionary: FeatureDictionary
    survey_id: str
    year: int
    household_ids: np.ndarray  # (n,) unicode
    x: np.ndarray  # (n, d) uint8, one-hot groups per feature
    y: np.ndarray  # (n,) float64, NaN = missing target

    def __post_init__(self) -> None:
        self.household_ids = np.asarray(self.household_ids, dtype=np.str_)
        x = np.asarray(self.x)
        self.x = np.ascontiguousarray(x, dtype=np.uint8)
        self.y = np.asarray(self.y, dtype=np.float64)
        n = self.household_ids.shape[0]
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
        return int(self.household_ids.shape[0])

    @property
    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.y)

    @property
    def n_missing(self) -> int:
        return int(self.missing_mask.sum())

    def n_households(self) -> int:
        return int(household_index(self.household_ids)[0].size)

    def subset(self, indices: np.ndarray) -> "EncodedDataset":
        indices = np.asarray(indices)
        return EncodedDataset(
            dictionary=self.dictionary,
            survey_id=self.survey_id,
            year=self.year,
            household_ids=self.household_ids[indices],
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
        ids, totals = household_sums(self.household_ids, self.y)
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
            _write_member(zf, "household_ids.npy", self.household_ids)
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
                for key, kind in _META_FIELDS.items():
                    json_field(meta, key, kind, f"{path}: member 'meta.json'", error=DataError)
                dictionary = FeatureDictionary.from_json_dict(meta["dictionary"])
                if dictionary.hash() != meta["dictionary_hash"]:
                    raise DictionaryMismatchError(
                        f"{path}: embedded dictionary hash does not match its layout"
                    )
                arrays = {name: _read_npy(zf, path, name) for name in _ARRAY_MEMBERS}
        except zipfile.BadZipFile:
            raise FusionError(f"{path}: not a readable {ENC_FORMAT} artifact") from None
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
            household_ids=arrays["household_ids.npy"],
            x=arrays["x.npy"],
            y=arrays["y.npy"],
        )


# meta.json key -> what its value must be (a key of schema.JSON_KINDS)
_META_FIELDS = {
    "survey_id": "a string",
    "year": "an integer",
    "dictionary": DICTIONARY_KIND,
    "dictionary_hash": "a string",
}

_WRITE_BYTES = 1 << 20  # array bytes handed to the compressor per write

# array member -> (dimensions, dtype kind, item size or None for any, as named in errors)
_ARRAY_MEMBERS = {
    "household_ids.npy": (1, "U", None, "unicode"),
    "x.npy": (2, "u", 1, "uint8"),
    "y.npy": (1, "f", 8, "float64"),
}


def _write_member(zf: zipfile.ZipFile, name: str, data: bytes | np.ndarray) -> None:
    """Deflate one member; an array is streamed as ``.npy`` 1.0, header then buffer."""
    info = zipfile.ZipInfo(name, date_time=_ZIP_DATE)
    info.create_system = 3
    info.external_attr = 0o644 << 16
    info.compress_type = zipfile.ZIP_DEFLATED
    body: bytes | np.ndarray = b""
    if isinstance(data, np.ndarray):
        arr = np.ascontiguousarray(data)
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(arr))
        data, body = header.getvalue(), arr.reshape(-1).view(np.uint8)
    # the exact size up front makes the same zip64 choice as ``ZipFile.writestr``
    info.file_size = len(data) + len(body)
    with zf.open(info, "w") as fh:
        fh.write(data)
        for start in range(0, len(body), _WRITE_BYTES):
            fh.write(body[start : start + _WRITE_BYTES])


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
    return EncodedDataset(
        dictionary=datasets[0].dictionary,
        survey_id=survey_id,
        year=year,
        household_ids=np.concatenate([d.household_ids for d in datasets]),
        x=np.concatenate([d.x for d in datasets], axis=0),
        y=np.concatenate([d.y for d in datasets]),
    )
