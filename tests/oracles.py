"""Independent brute-force oracles the engine's fast paths are checked against.

These deliberately avoid the library's packed-word kernels: distances come
from elementwise comparison on unpacked arrays, grouping from plain dicts,
Shapley values from permutation enumeration rather than weighted
coalition sums, attribution groups from a per-cell dict loop rather than
one ``bincount`` per feature, ingestion from a per-cell loop over dict rows rather
than column-wise encoding, and household totals files from a per-line
loop into a dict rather than whole-body array parsing.  The earlier
whole-array forms of the packer, the dedup and the ``.enc`` writer are
kept here as the references their streamed replacements must equal.
"""

import csv
import io
import json
import math
import zipfile
from itertools import permutations

import numpy as np

from surveyfuse.errors import DataError, DimensionError
from surveyfuse.schema import MISSING_LABEL, build_dictionary, encode_value


def hamming(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of differing coordinates between two equal-length bit-vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise DimensionError(f"expected equal-length vectors, got {a.shape} and {b.shape}")
    if a.size == 0:
        raise DimensionError("vectors must have at least one coordinate")
    return float(np.count_nonzero(a != b)) / a.size


def nn_scan_oracle(query_x: np.ndarray, target_x: np.ndarray):
    """Nearest target row per query row; ties to the smallest target index."""
    idx = np.empty(query_x.shape[0], dtype=np.int64)
    dist = np.empty(query_x.shape[0], dtype=np.float64)
    d = query_x.shape[1]
    for i, row in enumerate(query_x):
        counts = (row[None, :] != target_x).sum(axis=1)
        j = int(np.argmin(counts))
        idx[i] = j
        dist[i] = counts[j] / d
    return idx, dist


def nn_random_tie_oracle(query_x: np.ndarray, target_x: np.ndarray, seed: int) -> np.ndarray:
    """Nearest target row per query row; a tie is drawn uniformly from the
    query row's tied targets with the PCG64 stream of ``(seed, row)``."""
    idx = np.empty(query_x.shape[0], dtype=np.int64)
    for i, row in enumerate(query_x):
        counts = (row[None, :] != target_x).sum(axis=1)
        ties = np.flatnonzero(counts == counts.min())
        if ties.size > 1:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
            idx[i] = int(rng.choice(ties))
        else:
            idx[i] = ties[0]
    return idx


def bucket_oracle(x: np.ndarray, y: np.ndarray):
    """Group identical rows (first-occurrence order) and average their targets."""
    groups: dict[bytes, list[int]] = {}
    order: list[bytes] = []
    for i, row in enumerate(x):
        key = row.tobytes()
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(i)
    xs, counts, means = [], [], []
    for key in order:
        members = groups[key]
        xs.append(x[members[0]])
        counts.append(len(members))
        means.append(float(np.mean([y[i] for i in members])))
    return np.array(xs), np.array(counts), np.array(means)


def synthesis_oracle(x2, y2, x1, xc, *, literal_v2_norm=False, seed=None):
    """Synthesized entries by per-row loops over unpacked rows, following
    the ``synthesis`` module's formula.

    Labeled source2 rows (in row order) match source1 rows, and source1
    rows match the candidate's buckets (distinct rows, first-occurrence
    order), by ``nn_scan_oracle``, or ``nn_random_tie_oracle`` under
    ``seed``.  Per bucket, each matched source1 row adds ``w1 * w2 *`` the
    mean target of its matched source2 rows (zero for none); the sum is
    divided by the bucket's matched source1 rows, or by all of them with
    ``literal_v2_norm``.  Returns ``(bucket, y, n_S, n_G_total)`` per
    reachable bucket, ascending.
    """
    bucket_x, _, _ = bucket_oracle(xc, np.zeros(len(xc)))
    labeled = [i for i, v in enumerate(y2) if not math.isnan(v)]
    query = x2[labeled]
    if seed is None:
        mu1, mu2 = nn_scan_oracle(x1, bucket_x)[0], nn_scan_oracle(query, x1)[0]
    else:
        mu1 = nn_random_tie_oracle(x1, bucket_x, seed)
        mu2 = nn_random_tie_oracle(query, x1, seed)
    n1 = len(x1)
    w1, w2 = n1 / len(xc), len(labeled) / n1
    g_count, g_sum = [0] * n1, [0.0] * n1
    for q, s in enumerate(mu2.tolist()):
        g_count[s] += 1
        g_sum[s] += float(y2[labeled[q]])
    k = len(bucket_x)
    n_s, n_g, total = [0] * k, [0] * k, [0.0] * k
    for s, b in enumerate(mu1.tolist()):
        mean = g_sum[s] / g_count[s] if g_count[s] else 0.0
        n_s[b] += 1
        n_g[b] += g_count[s]
        total[b] += w1 * w2 * mean
    return [
        (b, total[b] / (n1 if literal_v2_norm else n_s[b]), n_s[b], n_g[b])
        for b in range(k)
        if n_g[b]
    ]


def shapley_permutation_oracle(x, predictor, dictionary) -> np.ndarray:
    """Average marginal contribution over all player orderings, for one sample."""
    m = dictionary.n_features
    phi = np.zeros(m)
    orderings = list(permutations(range(m)))
    for order in orderings:
        active = np.zeros(m, dtype=bool)
        prev = predictor(x[None], active[None])[0, 0]
        for player in order:
            active[player] = True
            cur = predictor(x[None], active[None])[0, 0]
            phi[player] += cur - prev
            prev = cur
    return phi / len(orderings)


def attribution_entries_oracle(xs, phis, dictionary) -> list[tuple[str, str, float, int]]:
    """``(feature, category, mean value, samples)`` per group, by a per-cell
    dict loop: each sample's value of a feature lands in the group of its own
    category (the missing label for an all-zero bit group), summed in sample
    order; groups sorted by name, then by descending |mean|."""
    sums: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], int] = {}
    for x, phi in zip(xs, phis):
        for j, (name, cats, sl) in enumerate(
            zip(dictionary.features, dictionary.categories, dictionary.group_slices())
        ):
            hot = np.flatnonzero(x[sl])
            key = (name, cats[int(hot[0])] if hot.size else MISSING_LABEL)
            sums[key] = sums.get(key, 0.0) + float(phi[j])
            counts[key] = counts.get(key, 0) + 1
    entries = [(f, c, sums[(f, c)] / counts[(f, c)], counts[(f, c)]) for f, c in sorted(sums)]
    entries.sort(key=lambda e: -abs(e[2]))
    return entries


def household_sum_oracle(household_ids, sample_y) -> dict[str, float]:
    totals: dict[str, float] = {}
    for h, v in zip(household_ids, sample_y):
        totals[str(h)] = totals.get(str(h), 0.0) + float(v)
    return totals


def totals_oracle(path) -> dict[str, float]:
    """A ``household_id,y_total`` file read line by line into a dict, in file
    order; a line holding a NUL character is refused before any other check."""
    totals: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["household_id", "y_total"]:
            raise DataError(f"{path}: expected columns household_id,y_total")
        lines = list(fh)
    for lineno, line in enumerate(lines, start=2):
        if "\x00" in line:
            raise DataError(f"{path}: line {lineno}: contains a NUL character")
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        hid, comma, val = line.partition(",")
        if not comma:
            raise DataError(f"{path}: line {lineno}: expected household_id,y_total")
        if hid in totals:
            raise DataError(f"{path}: line {lineno}: duplicate household {hid!r}")
        try:
            value = float(val)
        except ValueError:
            value = math.nan
        if not 0.0 <= value < math.inf:
            raise DataError(
                f"{path}: line {lineno}: total {val!r} is not a finite non-negative number"
            )
        totals[hid] = value
    if not totals:
        raise DataError(f"{path}: no household totals")
    return totals


def sorted_mse_oracle(a, b) -> float:
    sa, sb = sorted(a), sorted(b)
    return sum((u - v) ** 2 for u, v in zip(sa, sb)) / len(sa)


def ingest_oracle(household_path, person_path, day_path, survey_id, spec):
    """(x, y, household_ids) of one sample per travel-day row, cell by cell.

    Rows are dicts joined through dicts of rows; every (day, feature) cell
    is encoded on its own, and the delivery columns of each day are summed
    in order, a blank one counting as zero when a sibling is answered.
    """

    def rows(path):
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    keys = spec.table_keys(survey_id)
    households = {r[keys.household_id]: r for r in rows(household_path)}
    persons = {(r[keys.household_id], r[keys.person_id]): r for r in rows(person_path)}
    days = rows(day_path)
    tgt = spec.target.survey_target(survey_id)
    x = np.zeros((len(days), build_dictionary(spec).dimension), dtype=np.uint8)
    y = np.full(len(days), np.nan)
    for i, day in enumerate(days):
        hid, pid = day[keys.household_id], day[keys.person_id]
        cells = []
        for f in spec.features:
            col = f.survey_column(survey_id)
            source = households[hid] if col.table == "household" else persons[(hid, pid)]
            cells.append(encode_value(f, source[col.column], survey_id))
        x[i] = np.concatenate(cells)
        total, answered = 0.0, False
        for c in tgt.columns:
            raw = day[c].strip()
            if raw not in tgt.missing_values:
                total += float(raw)
                answered = True
        if answered:
            y[i] = total / tgt.divisor
    return x, y, np.array([d[keys.household_id] for d in days], dtype=np.str_)


def pack_rows_padded_oracle(x: np.ndarray) -> np.ndarray:
    """Bits packed into uint64 words through a zero-padded (n, 64 * words) copy."""
    n, d = x.shape
    words = (d + 63) // 64
    padded = np.zeros((n, words * 64), dtype=np.uint8)
    padded[:, :d] = x
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def one_hot_error_oracle(x: np.ndarray, dictionary) -> str | None:
    """The first one-hot violation of an (n, d) 0/1 matrix, as the uint8
    check named it: features in order, then the first row of each whose
    bit group has more than one bit set."""
    for name, sl in zip(dictionary.features, dictionary.group_slices()):
        pop = x[:, sl].sum(axis=1)
        if (pop > 1).any():
            return f"x row {int(np.argmax(pop > 1))}: feature {name!r} has more than one bit set"
    return None


def describe_oracle(ds) -> dict:
    """``describe``'s report from one column sum of the unpacked x per
    category and, per feature, the rows with none of its bits set."""
    x, n = ds.x, ds.n_samples
    n_missing = int(np.isnan(ds.y).sum())
    features = {}
    for name, cats, sl in zip(
        ds.dictionary.features, ds.dictionary.categories, ds.dictionary.group_slices()
    ):
        counts = {cat: int(x[:, c].sum()) for c, cat in enumerate(cats, sl.start)}
        counts[MISSING_LABEL] = int((x[:, sl].sum(axis=1) == 0).sum())
        features[name] = counts
    return {
        "survey_id": ds.survey_id,
        "year": ds.year,
        "n_households": len(set(ds.household_ids.tolist())),
        "n_samples": n,
        "n_missing_target": n_missing,
        "missing_target_fraction": (n_missing / n) if n else 0.0,
        "features": features,
    }


def first_occurrence_unique_oracle(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each distinct key in order of appearance, and each
    element's rank, from one ``np.unique`` over all keys."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse]


def save_writestr_oracle(ds, path, household_ids=None) -> None:
    """``EncodedDataset.save`` with every member built whole in memory and
    written by ``ZipFile.writestr``.  ``household_ids``, one string per
    sample as a per-sample array would hold them, replaces
    ``ds.household_ids``, so the expected file need not come from the codes."""
    meta = {
        "format": "surveyfuse-encoded",
        "version": 1,
        "survey_id": ds.survey_id,
        "year": ds.year,
        "n_samples": ds.n_samples,
        "dictionary": ds.dictionary.to_json_dict(),
        "dictionary_hash": ds.dictionary.hash(),
    }

    def npy(arr):
        buf = io.BytesIO()
        np.lib.format.write_array(buf, np.ascontiguousarray(arr), version=(1, 0))
        return buf.getvalue()

    members = [
        ("meta.json", json.dumps(meta, sort_keys=True, indent=1).encode("utf-8")),
        ("household_ids.npy", npy(ds.household_ids if household_ids is None else household_ids)),
        ("x.npy", npy(ds.x)),
        ("y.npy", npy(ds.y)),
    ]
    with zipfile.ZipFile(path, "w") as zf:
        for name, blob in members:
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.create_system = 3
            info.external_attr = 0o644 << 16
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, blob)
