"""Output checks for each workload.

Each check reads the artifacts of one sample and returns, per CLI call
(by its position in the workload's command list), the problems found.
A call with any problem counts as a failed operation.  The oracles here
are written against the unpacked 0/1 matrices and share no code with the
packed matching kernel.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from surveyfuse.dataset import EncodedDataset

# Rows of the per-sample CSV that are re-matched by brute force.
ORACLE_ROWS = 2_000
# Relative tolerance for sums that the oracle may add up in another order.
SUM_RTOL = 1e-9


def _read_csv(path: Path, header: str) -> np.ndarray:
    """The body of a comma-separated file without quoting, as a 2-D string array."""
    text = path.read_text(encoding="utf-8")
    first, _, body = text.partition("\n")
    if first != header or not body.endswith("\n"):
        raise ValueError(f"{path.name}: header is not {header!r} or the last line is cut")
    cells = np.array(body[:-1].replace("\n", ",").split(","))
    width = header.count(",") + 1
    if cells.size % width:
        raise ValueError(f"{path.name}: rows do not all have {width} fields")
    return cells.reshape(-1, width)


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=SUM_RTOL, atol=0.0))


def _brute_force(query: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest target per query row by unpacked Hamming count; ties to the smallest index."""
    idx = np.empty(len(query), dtype=np.int64)
    cnt = np.empty(len(query), dtype=np.int64)
    for s in range(0, len(query), 64):
        diff = (query[s : s + 64, None, :] != targets[None, :, :]).sum(axis=2)
        idx[s : s + 64] = diff.argmin(axis=1)
        cnt[s : s + 64] = diff.min(axis=1)
    return idx, cnt


def _first_occurrence_buckets(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in order of first appearance, with the mean y of their members."""
    bucket_of: dict[bytes, int] = {}
    inverse = np.array([bucket_of.setdefault(r.tobytes(), len(bucket_of)) for r in x])
    first = np.unique(inverse, return_index=True)[1]
    counts = np.bincount(inverse)
    return x[first], np.bincount(inverse, weights=y) / counts


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def check_impute(run_dir: Path, seed: int, expect: dict) -> dict[int, list[str]]:
    """Impute (call 0) against a brute-force oracle; evaluate (call 1) is finite."""
    imp: list[str] = []
    ev: list[str] = []
    source = EncodedDataset.load(run_dir / "inputs" / "source.enc")
    donors = EncodedDataset.load(run_dir / "inputs" / "donors.enc")
    rows = _read_csv(
        run_dir / "out" / "imputed.csv",
        "household_id,sample_index,matched_bucket,distance,y_imputed",
    )
    if len(rows) != source.n_samples:
        return {0: [f"imputed.csv has {len(rows)} rows, source has {source.n_samples}"]}
    hh = rows[:, 0]
    index, bucket = rows[:, 1].astype(np.int64), rows[:, 2].astype(np.int64)
    dist, y = rows[:, 3].astype(np.float64), rows[:, 4].astype(np.float64)
    if not np.array_equal(index, np.arange(source.n_samples)):
        imp.append("sample_index is not 0..n-1")
    if not np.array_equal(hh, source.household_ids):
        imp.append("household_id column differs from the source")
    if not (np.isfinite(y).all() and (y >= 0).all()):
        imp.append("y_imputed has negative or non-finite values")

    # The augmented donor pool: donors, then the labeled source rows.
    labeled = ~np.isnan(source.y)
    pool_x = np.concatenate([donors.x, source.x[labeled]])
    pool_y = np.concatenate([donors.y, source.y[labeled]])
    bucket_x, bucket_mean = _first_occurrence_buckets(pool_x, pool_y)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7])))
    pick = np.sort(rng.choice(source.n_samples, size=min(ORACLE_ROWS, source.n_samples), replace=False))
    want_idx, want_cnt = _brute_force(source.x[pick], bucket_x)
    d = source.x.shape[1]
    if not np.array_equal(bucket[pick], want_idx):
        imp.append(f"matched_bucket differs from the oracle on {int((bucket[pick] != want_idx).sum())} rows")
    if not np.array_equal(dist[pick], want_cnt / d):
        imp.append(f"distance differs from the oracle on {int((dist[pick] != want_cnt / d).sum())} rows")
    w = source.n_samples / len(pool_x)
    want_y = np.where(labeled[pick], source.y[pick], bucket_mean[want_idx] / w)
    if not _close(y[pick], want_y):
        imp.append("y_imputed differs from bucket mean / w")

    totals = _read_csv(run_dir / "out" / "imputed.households.csv", "household_id,y_total")
    ids, first, inverse = np.unique(hh, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    want_totals = np.bincount(inverse, weights=y)[order]
    got_totals = totals[:, 1].astype(np.float64)
    if not np.array_equal(totals[:, 0], ids[order]):
        imp.append("household totals are not in first-appearance order of the samples")
    elif not _close(got_totals, want_totals):
        imp.append("household totals differ from the per-sample sums")
    if not (np.isfinite(got_totals).all() and (got_totals >= 0).all()):
        imp.append("household totals have negative or non-finite values")

    report = json.loads((run_dir / "out" / "evaluation.json").read_text(encoding="utf-8"))
    if not _all_finite(report):
        ev.append("evaluation.json holds a non-finite number")
    if report.get("n") != expect["truth_households"]:
        ev.append(f"evaluation n = {report.get('n')}, truth has {expect['truth_households']}")
    return {0: imp, 1: ev}


def check_synth(run_dir: Path, seed: int, expect: dict) -> dict[int, list[str]]:
    problems: list[str] = []
    rows = _read_csv(run_dir / "out" / "synthetic.provenance.csv", "bucket_id,n_S,n_G_total,y_synth")
    _, n_s, n_g, y = rows.astype(np.float64).T
    if not (np.isfinite(y).all() and (y >= 0).all()):
        problems.append("y_synth has negative or non-finite values")
    if (n_s < 1).any():
        problems.append("a synthesized bucket has n_S < 1")
    if int(n_g.sum()) != expect["labeled_source2_rows"]:
        problems.append(
            f"sum of n_G_total is {int(n_g.sum())}, "
            f"expected {expect['labeled_source2_rows']} labeled source2 rows"
        )
    synth = EncodedDataset.load(run_dir / "out" / "synthetic.enc")
    if not np.array_equal(synth.y, y):
        problems.append("synthetic.enc targets differ from the provenance CSV")
    return {0: problems}


def check_attribute(run_dir: Path, seed: int, expect: dict) -> dict[int, list[str]]:
    problems: list[str] = []
    report = json.loads((run_dir / "out" / "attribution.json").read_text(encoding="utf-8"))
    if not _all_finite(report):
        problems.append("attribution.json holds a non-finite number")
    if not report.get("efficiency_max_error", math.inf) <= 1e-9:
        problems.append(f"efficiency_max_error = {report.get('efficiency_max_error')}")
    if report.get("n_evaluated") != expect["limit"]:
        problems.append(f"n_evaluated = {report.get('n_evaluated')}, expected {expect['limit']}")
    return {0: problems}


def check_ingest(run_dir: Path, seed: int, expect) -> dict[int, list[str]]:
    problems: list[str] = []
    ds = EncodedDataset.load(run_dir / "out" / "psrc.enc")
    if not np.array_equal(ds.household_ids, expect.household_ids):
        problems.append("household ids differ from the generated survey")
    if not np.array_equal(ds.x, expect.x):
        problems.append("encoded x differs from the generated categories")
    if not np.array_equal(ds.y, expect.y, equal_nan=True):
        problems.append("encoded y differs from the generated delivery counts")
    return {0: problems}
