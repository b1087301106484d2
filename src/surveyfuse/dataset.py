"""Encoded person-day datasets and their on-disk artifact format.

An :class:`EncodedDataset` is the unit every pipeline stage exchanges:
one row per person-day sample, a fixed-width bit matrix of one-hot
covariates, and an optional deliveries/day target (NaN = missing).  In
memory the bit matrix is held packed, ``ceil(d / 64)`` uint64 words a row
(``pack_rows``); on disk it is the n x d uint8 ``x.npy`` it always was.

The ``.enc`` artifact is a zip container holding a JSON header plus raw
``.npy`` arrays.  The header embeds the feature-dictionary hash so that
loading or combining datasets encoded with different dictionaries fails
loudly instead of silently matching incompatible coordinates.  Writes are
byte-deterministic: fixed zip timestamps, fixed member order.

Members are streamed in both directions: ``save`` deflates each array
after its ``.npy`` header in slices (``_write_array``), and ``load`` reads
each array's header, checks it, and only then allocates the array and
reads its rows in small blocks (``_read_array``).  Household ids are coded in
memory (distinct ids plus an int32 code per sample, see
:class:`EncodedDataset`): ``load`` codes ``household_ids.npy`` before it
reads ``x.npy``, and ``save`` gathers each block of the per-sample ids
from the codes, so the file holds the same ``.npy`` member as ever.
Likewise ``load`` packs ``x.npy`` block by block as it reads it, and
``save`` unpacks the words block by block, so the whole uint8 matrix
never exists in either direction.  ``load(path, rows=...)`` still reads
and checks every row but keeps only the selected ones, and
``load(path, ids=False)`` keeps no household id, only their count.
``load`` checks each member where it enters: present, stored or deflated,
with a header of its expected dimensions and dtype, ``meta.json``'s
``n_samples`` rows and the data bytes the zip directory gives it.  Each key
that ``meta.json`` must hold is checked for presence and JSON type, and a
damaged container is a ``FusionError``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tokenize
import zipfile
import zlib
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .errors import DataError, DictionaryMismatchError, DimensionError, FusionError, SchemaError
from .schema import FeatureDictionary, json_field

ENC_FORMAT = "surveyfuse-encoded"
ENC_VERSION = 1

# Fixed zip metadata so identical datasets serialize to identical bytes.
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)

# Rows per block of ``_packed_first_occurrence``'s row-index OR and rank scatter.
_ROW_BLOCK = 1 << 16

# Run keys per block of ``first_occurrence``'s order test.
_RUN_BLOCK = 1 << 13

# Rows per block of the bit packing and unpacking (pack_rows' zero-padded
# byte copy is 512 KiB at d <= 64), of the constructor's checks and of
# ``_code_ids``' remap.
_PACK_ROWS = 8192


def rng_stream(*key: int) -> np.random.Generator:
    """The PCG64 generator of one named stream, e.g. ``(seed, row)``.

    Every random draw in the package comes from such a stream, so results
    never depend on call order or thread count.  Attribution's sample and
    random ties make their draws through ``streams``, which reproduces
    them without importing ``numpy.random``.
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
    return first_occurrence_of_parts(np.asarray(keys))


def first_occurrence_of_parts(*parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``first_occurrence`` of the concatenation of key arrays of one dtype.

    Packable integer parts are cast straight into the packed sort's
    buffer, which is then the only full-length copy of the keys; other
    parts are concatenated first.
    """
    n = sum(p.shape[0] for p in parts)
    if parts[0].dtype.kind in "iu" and n:
        bits = (n - 1).bit_length()  # of a row index
        lowest = min((p.min() for p in parts if p.size), key=int)
        highest = max(int(p.max()) for p in parts if p.size)
        if (highest - int(lowest)).bit_length() + bits <= 64:
            return _packed_first_occurrence(parts, lowest, bits)
    keys = parts[0] if len(parts) == 1 else np.concatenate(parts)
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(run_start)
    if keys.dtype.kind in "iuSU" and _ascending(keys, starts):
        rank = np.cumsum(run_start, dtype=np.intp)
        rank -= 1
        return starts, rank
    _, first, inverse = np.unique(keys[starts], return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    lengths = np.diff(starts, append=n)
    return starts[first[order]], np.repeat(rank[inverse], lengths)


def _ascending(keys: np.ndarray, starts: np.ndarray) -> bool:
    """Whether the runs' keys, at ``starts``, ascend: then so do all the
    keys.  Compared ``_RUN_BLOCK`` runs at a time, so no copy of every run
    key is made."""
    for s in range(0, starts.size - 1, _RUN_BLOCK):
        run_keys = keys[starts[s : s + _RUN_BLOCK + 1]]
        if (run_keys[1:] < run_keys[:-1]).any():
            return False
    return True


def _packed_first_occurrence(
    parts: tuple[np.ndarray, ...], lowest: np.generic, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """``first_occurrence`` by one sort of ``(key - lowest) << bits | row``,
    with int32 ranks below 2**31 keys.

    The packed values are distinct, and each key's group starts with its
    first occurrence.  Besides the ranks, only the sorted buffer and a
    group-start flag are as long as the keys: each part is cast into the
    buffer in place, the row index is ORed in ``_ROW_BLOCK`` rows at a
    time, and after the sort each element's row is read back from the low
    bits of the buffer, a block at a time, to scatter its group's rank.
    """
    n = sum(p.shape[0] for p in parts)
    packed = np.empty(n, dtype=np.uint64)
    s = 0
    for p in parts:  # two's complement: differences stay exact
        np.copyto(packed[s : s + p.shape[0]], p, casting="unsafe")
        s += p.shape[0]
    packed -= np.asarray(lowest).astype(np.uint64)
    packed <<= np.uint64(bits)
    for s in range(0, n, _ROW_BLOCK):
        packed[s : s + _ROW_BLOCK] |= np.arange(s, min(s + _ROW_BLOCK, n), dtype=np.uint64)
    packed.sort()
    low = np.uint64((1 << bits) - 1)  # the row bits
    start = np.ones(n, dtype=bool)  # a key unlike its predecessor's: its group's first
    for s in range(1, n, _ROW_BLOCK):
        e = min(s + _ROW_BLOCK, n)
        np.greater(packed[s:e] ^ packed[s - 1 : e - 1], low, out=start[s:e])
    firsts = packed[np.flatnonzero(start)]
    firsts &= low
    firsts = firsts.view(np.intp)  # each group's first row, in key order
    order = np.argsort(firsts)
    firsts = firsts[order]
    index = np.int32 if n < 2**31 else np.intp
    rank = np.empty(order.size, dtype=index)
    rank[order] = np.arange(order.size, dtype=index)
    del order
    inverse = np.empty(n, dtype=index)
    groups = 0  # before the block
    for s in range(0, n, _ROW_BLOCK):
        group = np.cumsum(start[s : s + _ROW_BLOCK], dtype=index)
        group += groups - 1
        groups = int(group[-1]) + 1
        rows = packed[s : s + _ROW_BLOCK] & low
        inverse[rows.view(np.intp)] = rank[group]
    return firsts, inverse


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
    return household_ids, index_sum(code, household_ids.size, sample_y)


def index_sum(index: np.ndarray, size: int, values=1) -> np.ndarray:
    """``np.bincount(index, values, size)`` with no intp copy of ``index``,
    in the dtype of ``values`` but at least intp: counts by default.

    ``np.add.at`` adds the values into zeros in element order, as
    ``bincount`` does, so float sums are bit-identical to its.
    """
    out = np.zeros(size, dtype=np.result_type(values, np.intp))
    np.add.at(out, index, values)
    return out


def pack_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pack an (n, d) 0/1 matrix into (n, ceil(d/64)) uint64 words: bit j of
    a row is bit j % 64 of its word j // 64, and the bits past d are zero.

    Rows go through a reused zero-padded (chunk, 64 * words) byte copy,
    ``_PACK_ROWS`` at a time, which one flat ``packbits`` turns into whole
    words; memory beyond the output stays fixed.  The words are written
    into ``out`` if it is given.
    """
    x = np.ascontiguousarray(x, dtype=np.uint8)
    n, d = x.shape
    words = (d + 63) // 64
    if out is None:
        out = np.empty((n, words), dtype=np.uint64)
    pad = np.zeros((min(n, _PACK_ROWS), 64 * words), dtype=np.uint8)
    for s in range(0, n, _PACK_ROWS):
        e = min(s + _PACK_ROWS, n)
        pad[: e - s, :d] = x[s:e]
        bits = np.packbits(pad[: e - s], bitorder="little")  # flat: 8 * words bytes a row
        out[s:e] = bits.view("<u8").reshape(e - s, words)
    return out


def unpack_rows(words: np.ndarray, d: int) -> np.ndarray:
    """The (n, d) uint8 0/1 matrix of packed rows: ``pack_rows`` undone."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, count=d, bitorder="little")


def bit_mask(start: int, stop: int, d: int) -> np.ndarray:
    """Bits ``start:stop`` of a packed row of d bits, as its ceil(d/64) words."""
    bits = ((1 << (stop - start)) - 1) << start
    return np.array(
        [(bits >> (64 * w)) & (2**64 - 1) for w in range((d + 63) // 64)], dtype=np.uint64
    )


def bit_popcount(words: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per packed row, how many of the bits set in ``mask`` (one row's words)
    it has set, as int32: the popcount of each word under its mask, summed."""
    total = np.zeros(words.shape[0], dtype=np.int32)
    for w in np.flatnonzero(mask):
        total += np.bitwise_count(words[:, w] & mask[w])
    return total


def _code_ids(
    blocks, n: int, dtype: np.dtype, keep: _Selection | None = None, codes: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """``household_index`` of ``n`` per-sample ids of ``dtype`` given in
    consecutive non-empty blocks, positions as int32: the one id coder of
    ``load`` and the constructor.  With ``keep``, only the kept rows'
    positions are returned, still among the households of all ``n`` ids.
    Without ``codes`` the households are only counted: no position is made,
    and what is returned is ``(k distinct ids, in no set order), None``.

    The int32 codes are allocated first, and each block's are written into
    them in place: the running count of runs of equal adjacent ids, so no
    n-long temporary is made.  One key per run is kept, in one buffer grown
    and finally trimmed in place (``ndarray.resize``, a ``realloc``), not in
    per-block arrays whose freed space would stay resident between larger
    allocations.  Run keys that ascend are the households; otherwise
    ``np.unique`` groups them, as in ``first_occurrence``, and the codes are
    remapped in place.
    """
    code = None if not codes else np.empty(n if keep is None else keep.rows.size, np.int32)
    households = np.empty(min(n, _PACK_ROWS), dtype)  # the run keys; no view of it is kept
    last = np.empty(0, dtype)  # the id before the block
    s = runs = 0
    ascending = True
    for ids in blocks:
        e = s + ids.shape[0]
        start = np.empty(e - s, dtype=bool)
        start[0] = s == 0 or ids[0] != last[0]
        np.not_equal(ids[1:], ids[:-1], out=start[1:])
        if code is not None:
            here = code[s:e] if keep is None else np.empty(e - s, dtype=np.int32)
            np.cumsum(start, out=here)
            here += runs - 1
            if keep is not None:
                keep.take(code, s, here)
        run_keys = ids[start]
        ascending = ascending and not (
            (run_keys[1:] < run_keys[:-1]).any() or (run_keys[:1] < last).any()
        )
        if runs + run_keys.size > households.size:
            households.resize(max(runs + run_keys.size, households.size * 3 // 2), refcheck=False)
        households[runs : runs + run_keys.size] = run_keys
        runs += run_keys.size
        s, last = e, ids[-1:]
    households.resize(runs, refcheck=False)
    if code is None:
        return (households if ascending else np.unique(households)), None
    if not ascending:
        _, first, inverse = np.unique(households, return_index=True, return_inverse=True)
        order = np.argsort(first, kind="stable")
        rank = np.empty(order.size, dtype=np.int32)
        rank[order] = np.arange(order.size)
        households, run_rank = households[first[order]], rank[inverse]
        for s in range(0, code.size, _PACK_ROWS):
            block = code[s : s + _PACK_ROWS]
            block[:] = run_rank[block]
    return households, code


def _checked_codes(
    households: np.ndarray, code: np.ndarray, distinct: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Coded household ids as stored, or a ``DataError`` if an id repeats or
    the codes are out of range, skip a household, or are not in
    first-appearance order.  ``distinct`` households, distinct by
    construction, are not counted again."""
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
    if not distinct and households.size > 1 and not (households[1:] > households[:-1]).all():
        if len(set(households.tolist())) < households.size:
            ids, counts = np.unique(households, return_counts=True)
            raise DataError(f"households must be distinct, but {str(ids[counts > 1][0])!r} repeats")
    if code.size:
        # in first-appearance order iff every code is at most one above all
        # before it: the running top code starts at 0 and rises by at most one
        # at a time.  Checked a block at a time, from the top before the block.
        ordered, top = code[0] == 0, code[0]
        for s in range(0, code.size, _PACK_ROWS):
            if not ordered:
                break
            block = code[s : s + _PACK_ROWS]
            tops = np.maximum.accumulate(block)
            np.maximum(tops, top, out=tops)
            ordered = (
                block.min() >= 0 and tops[0] - top <= 1 and not (tops[1:] - tops[:-1] > 1).any()
            )
            top = tops[-1]
        if not ordered or top != households.size - 1:
            raise DataError(
                "household_code must number all households 0, 1, ... in order of first appearance"
            )
    elif households.size:
        raise DataError(f"{households.size} households, but no samples")
    return households, code.astype(np.int32, copy=False)


def _recode(households: np.ndarray, code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The households that ``code`` uses, in order of first appearance, and
    ``code`` renumbered among them as int32."""
    first, rank = first_occurrence(code)
    return households[code[first]], rank.astype(np.int32, copy=False)


class _RowChecks:
    """The checks of each row's words and target, fed a block of rows at a
    time in row order and raised by ``raise_first`` in one order: the first
    row with more than one bit of a one-hot group set, of the first feature
    that has one; then an infinite target; then a negative one.  The
    constructor checks its arrays with it, and a row-selective ``load`` the
    rows it streams past, so both refuse a file with the same error."""

    def __init__(self, dictionary: FeatureDictionary) -> None:
        d = dictionary.dimension
        # a one-hot group has popcount 0 (missing) or 1, and a 1-bit group no
        # more; each group's words and their masks are looked up once, here
        self.groups = []
        for name, sl in zip(dictionary.features, dictionary.group_slices()):
            if sl.stop - sl.start > 1:
                mask = bit_mask(sl.start, sl.stop, d)
                self.groups.append((name, [(w, mask[w]) for w in np.flatnonzero(mask).tolist()]))
        self.two_hot: dict[str, int] = {}  # feature -> its first row with two bits set
        self.infinite = self.negative = False

    def words(self, words: np.ndarray, start: int) -> None:
        """Check packed rows ``start:start + len(words)``."""
        for name, masks in self.groups:
            if name not in self.two_hot:
                (w, mask), *rest = masks
                pop = np.bitwise_count(words[:, w] & mask)  # uint8: at most 64
                for w, mask in rest:  # a group across words counts in int32
                    pop = np.add(pop, np.bitwise_count(words[:, w] & mask), dtype=np.int32)
                if pop.max(initial=0) > 1:
                    self.two_hot[name] = start + int(np.argmax(pop > 1))

    def targets(self, y: np.ndarray) -> None:
        # NaN is neither infinite nor negative
        self.infinite = self.infinite or bool(np.isinf(y).any())
        self.negative = self.negative or bool((y < 0).any())

    def raise_first(self) -> None:
        for name, _ in self.groups:
            if name in self.two_hot:
                raise DataError(
                    f"x row {self.two_hot[name]}: feature {name!r} has more than one bit set"
                )
        if self.infinite:
            raise DataError("target values must be finite (NaN marks a missing target)")
        if self.negative:
            raise DataError("target values must be >= 0")


class EncodedDataset:
    """Ordered person-day samples sharing one feature dictionary.

    Household ids are held coded: ``households`` are the distinct ids in
    order of first appearance and ``household_code`` is each sample's
    position among them (int32), 4 bytes a sample instead of one string.
    Pass either ``household_ids``, one per sample, which are coded here, or
    ``households`` and ``household_code`` already coded; the codes are
    checked to be in first-appearance order and to use every household,
    and ``households`` to be distinct.

    The one-hot covariates are held packed: ``words`` is the (n, ceil(d/64))
    uint64 array of ``pack_rows``, 8 bytes a sample at d <= 64 instead of d.
    Pass either ``x``, the (n, d) 0/1 matrix, which is packed here, or
    ``words`` already packed; ``x`` unpacks them again.

    A dataset loaded with ``ids=False`` holds no household ids:
    ``households`` and ``household_code`` are None, and what needs them
    raises a ``FusionError``.
    """

    # (n_samples, n_households) of the file ``load`` read, of which a row
    # selection keeps fewer; None for a dataset that was not loaded
    file_shape: tuple[int, int] | None = None

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
        words: np.ndarray | None = None,
    ) -> None:
        if y is None or (x is None) == (words is None):
            raise TypeError("EncodedDataset needs y and one of x and words")
        given = (household_ids is not None, households is not None, household_code is not None)
        if given not in ((True, False, False), (False, True, True)):
            raise TypeError("pass household_ids, or households and household_code")
        if household_ids is not None:
            ids = np.asarray(household_ids, dtype=np.str_)
            if ids.ndim != 1:
                raise DimensionError(f"household ids must be 1-D, got shape {ids.shape}")
            rows = max(1, _READ_BYTES // ids.itemsize)
            blocks = (ids[s : s + rows] for s in range(0, ids.size, rows))
            households, household_code = _code_ids(blocks, ids.size, ids.dtype)
        else:
            households, household_code = _checked_codes(households, household_code)
        if x is not None:
            x = np.asarray(x)
            n, d = household_code.shape[0], dictionary.dimension
            if x.shape != (n, d):
                raise DimensionError(f"x has shape {x.shape}, expected ({n}, {d})")
            bits = np.ascontiguousarray(x, dtype=np.uint8)
            if bits.max(initial=0) > 1 or (x.dtype != np.uint8 and not np.array_equal(bits, x)):
                raise DataError("x values must be 0 or 1")
            words = pack_rows(bits)
        self._set(dictionary, survey_id, year, households, household_code, words, y)

    @classmethod
    def _of_distinct(
        cls, dictionary: FeatureDictionary, survey_id: str, year: int,
        households: np.ndarray, household_code: np.ndarray, words: np.ndarray, y: np.ndarray,
    ) -> "EncodedDataset":
        """The constructor for households distinct by construction (``load``,
        ``subset``, ``concat_datasets``): their codes are checked, but the
        ids are not counted again.  ``load(path, ids=False)`` passes no ids."""
        ds = cls.__new__(cls)
        if household_code is not None:
            households, household_code = _checked_codes(households, household_code, distinct=True)
        ds._set(dictionary, survey_id, year, households, household_code, words, y)
        return ds

    def _set(self, dictionary, survey_id, year, households, household_code, words, y) -> None:
        """Hold checked coded ids, or none, and check the words and targets
        against them (against y's length without ids)."""
        self.dictionary = dictionary
        self.survey_id = survey_id
        self.year = year
        self.households: np.ndarray | None = households  # (k,) unicode, distinct
        self.household_code: np.ndarray | None = household_code  # (n,) int32 into households
        self.words = np.ascontiguousarray(words)  # (n, ceil(d/64)) uint64, see pack_rows
        self.y = np.asarray(y, dtype=np.float64)  # (n,) NaN = missing target
        n = (self.y if household_code is None else household_code).shape[0]
        d = dictionary.dimension
        if self.words.dtype != np.uint64 or self.words.shape != (n, (d + 63) // 64):
            raise DimensionError(
                f"words are a {self.words.shape} {self.words.dtype} array, expected "
                f"({n}, {(d + 63) // 64}) uint64"
            )
        if self.y.shape != (n,):
            raise DimensionError(f"y has shape {self.y.shape}, expected ({n},)")
        # every check runs a block of rows at a time, so its temporaries stay small
        blocks = [slice(s, s + _PACK_ROWS) for s in range(0, n, _PACK_ROWS)]
        if d % 64 and any((self.words[b, -1] >> np.uint64(d % 64)).any() for b in blocks):
            raise DataError(f"words must be zero past bit {d}")
        checks = _RowChecks(dictionary)
        for b in blocks:
            checks.words(self.words[b], b.start)
            checks.targets(self.y[b])
        checks.raise_first()

    # -- basic views ----------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return int(self.y.shape[0])

    def _require_ids(self) -> None:
        if self.household_code is None:
            raise FusionError(
                f"{self.survey_id}: the dataset was loaded without household ids (ids=False)"
            )

    @property
    def household_ids(self) -> np.ndarray:
        """Each sample's household id: a new ``households[household_code]``
        array, as large as the strings; not meant for hot paths."""
        self._require_ids()
        return self.households[self.household_code]

    @property
    def x(self) -> np.ndarray:
        """The (n, d) uint8 one-hot matrix: a new ``unpack_rows`` of
        ``words``, d bytes a sample; not meant for hot paths."""
        return unpack_rows(self.words, self.dictionary.dimension)

    @property
    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.y)

    @property
    def n_missing(self) -> int:
        return int(self.missing_mask.sum())

    def n_households(self) -> int:
        self._require_ids()
        return int(self.households.size)

    def subset(self, indices: np.ndarray) -> "EncodedDataset":
        self._require_ids()
        indices = np.asarray(indices)
        if not indices.size:  # ``[]`` is float64
            indices = indices.astype(np.intp)
        households, code = _recode(self.households, self.household_code[indices])
        return EncodedDataset._of_distinct(
            self.dictionary, self.survey_id, self.year,
            households, code, self.words[indices], self.y[indices],
        )

    def labeled(self) -> "EncodedDataset":
        """Samples whose target is present."""
        return self.subset(np.flatnonzero(~self.missing_mask))

    def household_totals(self) -> dict[str, float]:
        """Sum of per-sample targets per household, ordered by first appearance.

        Requires a fully labeled dataset; impute first if targets are missing.
        """
        self._require_ids()
        if self.n_missing:
            raise DataError(
                f"{self.n_missing} samples have missing targets; "
                "impute before computing household totals"
            )
        ids, totals = household_sums(self.households, self.y, self.household_code)
        return dict(zip(ids.tolist(), totals.tolist()))

    # -- persistence -----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        self._require_ids()
        meta = {
            "format": ENC_FORMAT,
            "version": ENC_VERSION,
            "survey_id": self.survey_id,
            "year": self.year,
            "n_samples": self.n_samples,
            "dictionary": self.dictionary.to_json_dict(),
            "dictionary_hash": self.dictionary.hash(),
        }
        n, d = self.n_samples, self.dictionary.dimension
        ids, code, words, y = self.households, self.household_code, self.words, self.y
        with zipfile.ZipFile(path, "w") as zf:
            _write_member(zf, "meta.json", json.dumps(meta, sort_keys=True, indent=1).encode())
            # each block of the per-sample ids and of x is made from the codes
            # and the words as it is written
            _write_array(zf, "household_ids.npy", ids.dtype, (n,), lambda s, e: ids[code[s:e]])
            _write_array(
                zf, "x.npy", np.dtype(np.uint8), (n, d), lambda s, e: unpack_rows(words[s:e], d)
            )
            _write_array(zf, "y.npy", y.dtype, (n,), lambda s, e: y[s:e])

    @classmethod
    def load(
        cls, path: str | Path, rows: Callable[[int], np.ndarray] | None = None, *,
        ids: bool = True,
    ) -> "EncodedDataset":
        """The dataset of an ``.enc`` file, or only some of its rows.

        ``rows``, if given, is a function of ``meta.json``'s ``n_samples``
        that returns the ascending, distinct indices of the rows to keep
        (a ``ValueError`` otherwise).  It is called once, when the first
        member's header has confirmed ``n_samples``.  Every member is still
        read to its end and every row checked, so a file is refused with
        the same error either way; only the kept rows' ids, words and
        targets are held, and the result equals
        ``load(path).subset(rows(n_samples))``.  Either way ``file_shape``
        gives the file's samples and households.

        With ``ids=False`` no household id is kept: ``household_ids.npy`` is
        still read to its end and checked, and its households counted for
        ``file_shape``, but not coded per sample.  It does not combine with
        ``rows`` (a ``ValueError``).
        """
        if rows is not None and not ids:
            raise ValueError("load takes rows or ids=False, not both")
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
                # the ids are coded and x is packed block by block as they are read
                n = meta.get("n_samples")
                keep = None if rows is None else _Selection(rows, dictionary)
                households, code = _read_array(
                    zf, path, "household_ids.npy", n, keep=keep, codes=ids
                )
                k = households.size
                if not ids:
                    households = None  # only counted
                words = _read_array(zf, path, "x.npy", n, dictionary.dimension, keep)
                y = _read_array(zf, path, "y.npy", n, keep=keep)
        except FileNotFoundError:  # a missing path stays what it is
            raise
        except _ZIP_ERRORS as exc:
            raise FusionError(f"{path}: not a readable {ENC_FORMAT} artifact: {exc}") from None
        file_shape = (n, k)
        if keep is not None:
            keep.checks.raise_first()
            households, code = _recode(households, code)  # the file's households are dropped
        ds = cls._of_distinct(
            dictionary, meta["survey_id"], meta["year"], households, code, words, y
        )
        ds.file_shape = file_shape
        return ds


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

# what numpy's .npy reader raises on a damaged member: a cut body or header,
# bad magic, a header that does not parse (or, tokenized again as numpy
# does for old headers, does not tokenize)
_NPY_ERRORS = (ValueError, EOFError, zlib.error, tokenize.TokenError)

# zip compression method -> how many bytes a member's compressed byte can
# hold at most: deflate's longest match, 258 bytes, takes 2 bits at the least
_MAX_RATIO = {zipfile.ZIP_STORED: 1, zipfile.ZIP_DEFLATED: 1032}

_WRITE_BYTES = 1 << 20  # array bytes handed to the compressor per write
# array bytes per read: a zip member's read(k) makes copies k long, and
# below glibc's 128 KiB mmap threshold each block reuses the heap
_READ_BYTES = 1 << 16

# array member -> (dimensions, dtype kind, item size or None for any, as named in errors)
_ARRAY_MEMBERS = {
    "household_ids.npy": (1, "U", None, "unicode"),
    "x.npy": (2, "u", 1, "uint8"),
    "y.npy": (1, "f", 8, "float64"),
}

# .npy format version -> its header reader
_NPY_HEADERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def _write_member(zf: zipfile.ZipFile, name: str, head: bytes, size: int = 0, blocks=()) -> None:
    """Deflate one member: ``head``, then ``size`` more bytes of arrays in ``blocks``."""
    info = zipfile.ZipInfo(name, date_time=_ZIP_DATE)
    info.create_system = 3
    info.external_attr = 0o644 << 16
    info.compress_type = zipfile.ZIP_DEFLATED
    # the exact size up front makes the same zip64 choice as ``ZipFile.writestr``
    info.file_size = len(head) + size
    with zf.open(info, "w") as fh:
        fh.write(head)
        for part in blocks:
            fh.write(np.ascontiguousarray(part).reshape(-1).view(np.uint8))


def _write_array(
    zf: zipfile.ZipFile, name: str, dtype: np.dtype, shape: tuple[int, ...], rows
) -> None:
    """Stream one ``.npy`` 1.0 member of ``dtype`` and ``shape``: its header,
    then ``rows(s, e)``, rows ``s:e`` of the array, in blocks of about
    ``_WRITE_BYTES``."""
    buf = io.BytesIO()
    fields = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape}
    np.lib.format.write_array_header_1_0(buf, fields)
    n, row_bytes = shape[0], dtype.itemsize * math.prod(shape[1:])
    block = max(1, _WRITE_BYTES // max(1, row_bytes))
    blocks = (rows(s, min(s + block, n)) for s in range(0, n, block))
    _write_member(zf, name, buf.getvalue(), n * row_bytes, blocks)


def _open_member(zf: zipfile.ZipFile, path: str | Path, name: str):
    """A member opened for reading, if it is stored or deflated: those
    methods bound the size it may claim (``_MAX_RATIO``), and ``save``
    writes no other.  Any other method is refused before a byte is read."""
    try:
        info = zf.getinfo(name)
    except KeyError:
        raise FusionError(f"{path}: member {name!r} is missing") from None
    if info.compress_type not in _MAX_RATIO:
        method = zipfile.compressor_names.get(info.compress_type, info.compress_type)
        raise DataError(
            f"{path}: member {name!r} uses compression method {method!r}; "
            "only stored and deflated members are read"
        )
    return zf.open(info)


def _check_array(path: str | Path, name: str, ndim: int, dtype: np.dtype) -> None:
    """A ``DataError`` unless an array member has its expected dimensions and
    dtype, whose items are not empty."""
    want_ndim, kind, itemsize, expected = _ARRAY_MEMBERS[name]
    if ndim != want_ndim or dtype.kind != kind or dtype.itemsize != (itemsize or dtype.itemsize or 1):
        raise DataError(
            f"{path}: member {name!r} must be a {want_ndim}-D {expected} array, "
            f"got a {ndim}-D {dtype} array"
        )


def _check_rows(path: str | Path, n, name: str, rows: int) -> None:
    """A ``DataError`` unless a member has ``meta.json``'s ``n_samples`` rows."""
    if type(n) is not int or rows != n:
        raise DataError(
            f"{path}: meta.json n_samples is {n!r}, but member {name!r} has {rows} rows"
        )


class _Selection:
    """The rows a ``load`` keeps, ``of_n(n)`` of the file's n, and the
    ``_RowChecks`` of every row it reads, kept or not."""

    def __init__(self, of_n: Callable[[int], np.ndarray], dictionary: FeatureDictionary) -> None:
        self.of_n = of_n
        self.rows: np.ndarray | None = None
        self.checks = _RowChecks(dictionary)

    def resolve(self, n: int) -> None:
        """The kept rows, from one call of ``of_n``; a ``ValueError`` unless
        they are integers that ascend without repeats from 0 to below n."""
        if self.rows is not None:
            return
        rows = np.asarray(self.of_n(n))
        if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
            raise ValueError(f"rows must be 1-D integers, got a {rows.ndim}-D {rows.dtype} array")
        if (rows[1:] <= rows[:-1]).any():
            raise ValueError("rows must ascend without repeats")
        if rows.size and (rows[0] < 0 or rows[-1] >= n):
            raise ValueError(f"rows must lie in [0, {n}), got {rows[0]} to {rows[-1]}")
        self.rows = rows.astype(np.intp)

    def take(self, out: np.ndarray, start: int, block: np.ndarray) -> None:
        """Copy the kept rows among rows ``start:start + len(block)`` into
        their places in ``out``."""
        i, j = np.searchsorted(self.rows, (start, start + block.shape[0]))
        out[i:j] = block[self.rows[i:j] - start]


@contextlib.contextmanager
def _readable(path: str | Path, name: str):
    """What numpy's ``.npy`` reader raises, as the ``DataError`` of a member
    that is not a readable array."""
    try:
        yield
    except _NPY_ERRORS as exc:
        raise DataError(f"{path}: member {name!r} is not a readable array: {exc}") from None


def _read_array(
    zf: zipfile.ZipFile, path: str | Path, name: str, n, d: int | None = None,
    keep: _Selection | None = None, codes: bool = True,
):
    """``_write_array`` undone: one array member of ``meta.json``'s ``n`` rows,
    ``x.npy`` (d given) packed into words and ``household_ids.npy`` coded
    into ``(households, household_code)`` (``_code_ids``).  Its header is
    checked before anything is allocated, against the member's size in the
    zip directory too, and that size against what its compressed bytes can
    hold; its rows are then read ``_READ_BYTES`` at a time.  With ``keep``,
    resolved once a header has vouched for n, every row still goes through
    the checks, ``keep.checks`` included, but only the kept rows are held.
    Without ``codes`` the ids are only counted."""
    with _open_member(zf, path, name) as fh:
        with _readable(path, name):
            version = np.lib.format.read_magic(fh)
            if version not in _NPY_HEADERS:
                raise ValueError(f"unsupported .npy format version {version}")
            shape, fortran_order, dtype = _NPY_HEADERS[version](fh)
            _check_array(path, name, len(shape), dtype)
            _check_rows(path, n, name, shape[0])
            if d is not None and shape[1] != d:
                raise DimensionError(
                    f"{path}: member {name!r} has shape {shape}, expected ({n}, {d})"
                )
            if fortran_order and len(shape) > 1:
                raise DataError(f"{path}: member {name!r} must be stored in C order")
            row_bytes = dtype.itemsize * math.prod(shape[1:])
            info = zf.getinfo(name)
            held = info.file_size - fh.tell()
            if n * row_bytes != held:
                raise ValueError(f"header claims {n * row_bytes} bytes of data, member holds {held}")
            if info.file_size > _MAX_RATIO[info.compress_type] * info.compress_size:
                raise ValueError(
                    f"the zip directory claims {info.file_size} bytes, more than its "
                    f"{info.compress_size} compressed bytes can hold"
                )
            blocks = _read_rows(fh, shape, dtype, max(1, _READ_BYTES // max(1, row_bytes)))
        if keep is not None:
            keep.resolve(n)  # a bad selection stays a ValueError
        with _readable(path, name):
            if dtype.kind == "U":
                return _code_ids(blocks, n, dtype, keep, codes)
            kept = n if keep is None else keep.rows.size
            if d is None:
                out = np.empty(kept, dtype)
            else:
                out = np.empty((kept, (d + 63) // 64), np.uint64)
            s = t = 0
            staged = []  # packed rows t:s, checked and kept some _PACK_ROWS at a time
            for rows in blocks:
                e = s + rows.shape[0]
                if d is not None and rows.max(initial=0) > 1:
                    raise DataError(f"{path}: member {name!r}: x values must be 0 or 1")
                if keep is None:  # the constructor checks the whole arrays
                    if d is None:
                        out[s:e] = rows
                    else:
                        pack_rows(rows, out=out[s:e])
                elif d is None:
                    keep.checks.targets(rows)
                    keep.take(out, s, rows)
                else:
                    staged.append(pack_rows(rows))
                    if e - t >= _PACK_ROWS or e == n:
                        words = np.concatenate(staged)
                        keep.checks.words(words, t)
                        keep.take(out, t, words)
                        staged, t = [], e
                s = e
    return out


def _read_rows(fh, shape: tuple[int, ...], dtype: np.dtype, block: int):
    """The rows of an ``.npy`` member's data, ``block`` at a time."""
    row_bytes = dtype.itemsize * math.prod(shape[1:])
    for s in range(0, shape[0], block):
        k = min(block, shape[0] - s)
        # a short read, where the zip directory lies, does not reshape
        yield np.frombuffer(fh.read(k * row_bytes), dtype).reshape(k, *shape[1:])


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
    for ds in datasets:
        ds._require_ids()
    # each dataset's households are distinct and in first-appearance order,
    # so their concatenation's first occurrences are the stacked samples'
    stacked = np.concatenate([d.households for d in datasets])
    first, rank = first_occurrence(stacked)
    rank = rank.astype(np.int32, copy=False)
    offsets = np.cumsum([0] + [d.households.size for d in datasets])
    return EncodedDataset._of_distinct(
        datasets[0].dictionary,
        survey_id,
        year,
        stacked[first],
        np.concatenate(
            [rank[d.household_code + off] for d, off in zip(datasets, offsets.tolist())]
        ),
        np.concatenate([d.words for d in datasets]),
        np.concatenate([d.y for d in datasets]),
    )
