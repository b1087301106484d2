"""Randomized evaluation protocol: sorted-MSE over household subsets.

Households are not identified across surveys, so vectors of household
delivery totals are compared after ascending sort.  Repeatedly drawing
random household subsets the size of the reference set and averaging the
sorted-MSE (plus mean and standard deviation of the drawn totals) over
growing iteration cutoffs yields curves whose prefix property makes the
cutoffs directly comparable.

All randomness flows through ``rng_stream(seed, iteration index)``, so
serial and parallel runs agree and every report is reproducible bit for
bit from its recorded seed.  The report also keeps the sorted reference
vector and the first three sorted draws, which ``evaluate --sorted-csv``
writes out for plotting.

Household totals travel as a :data:`Totals` pair ``(ids, values)``: a
``str_`` id array and the aligned ``float64`` totals.  Draws index the
totals in ascending id order, whatever order the pair comes in.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataset import EncodedDataset, household_sums, rng_stream
from .errors import DataError, DimensionError
from .matching import ImputationResult

DEFAULT_CUTOFFS = (100, 200, 300, 400, 500)
KEPT_DRAWS = 3  # sorted draws kept on the report for plotting

Totals = tuple[np.ndarray, np.ndarray]  # (household ids, totals), one entry per household


def sort_totals(
    ids: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Totals in ascending id order, and the positions in the given order of
    every id that repeats an earlier one."""
    if ids.size < 2 or (ids[1:] > ids[:-1]).all():
        return ids, values, np.empty(0, dtype=np.intp)
    order = np.argsort(ids, kind="stable")
    ids, values = ids[order], values[order]
    return ids, values, order[1:][ids[1:] == ids[:-1]]


def _values_by_id(totals: Totals) -> np.ndarray:
    """The values of a totals pair in ascending id order; an id must not repeat."""
    ids = np.asarray(totals[0], dtype=np.str_)
    values = np.asarray(totals[1], dtype=np.float64)
    if ids.ndim != 1 or ids.shape != values.shape:
        raise DimensionError(
            f"expected equal-length ids and totals, got {ids.shape} and {values.shape}"
        )
    _, values, repeated = sort_totals(ids, values)
    if repeated.size:
        raise DataError(f"duplicate household {str(ids[repeated.min()])!r}")
    return values


def sorted_mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared difference of ascending-sorted value vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise DimensionError(f"expected equal-length vectors, got {a.shape} and {b.shape}")
    if a.size == 0:
        raise DimensionError("vectors must have at least one entry")
    diff = np.sort(a) - np.sort(b)
    return float(np.mean(diff * diff))


@dataclass
class CutoffStats:
    """Statistics over the first ``cutoff`` iterations."""

    cutoff: int
    mse_mean: float
    mse_std: float  # spread of per-iteration MSEs
    mse_stderr: float  # standard error of the mean MSE; shrinks as cutoff grows
    mean_of_means: float
    mean_of_stddevs: float

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class EvaluationReport:
    cutoffs: tuple[int, ...]
    per_cutoff: list[CutoffStats]
    seed: int
    n: int
    n_imputed_households: int
    iteration_mse: np.ndarray  # per-iteration values, len = max cutoff
    truth_sorted: np.ndarray  # (n,) the reference totals, ascending
    sorted_draws: np.ndarray  # (min(KEPT_DRAWS, max cutoff), n) first draws, ascending

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "n_imputed_households": self.n_imputed_households,
            "cutoffs": list(self.cutoffs),
            "per_cutoff": [c.to_json_dict() for c in self.per_cutoff],
        }


def subsample_compare(
    imputed: Totals,
    truth: Totals,
    n: int,
    cutoffs: tuple[int, ...] = DEFAULT_CUTOFFS,
    seed: int = 0,
) -> EvaluationReport:
    """Compare imputed household totals against a reference set of size ``n``.

    Both are :data:`Totals` pairs, such as the CLI's totals loader returns
    or ``(result.household_ids, result.household_y)``.  Each iteration
    draws ``n`` households without replacement from the imputed totals
    and records the sorted-MSE against the reference plus the mean and
    standard deviation of the drawn totals.  Cutoff ``k`` averages the
    first ``k`` iterations, so curves at different cutoffs share their
    draws.
    """
    if not cutoffs or any(c <= 0 for c in cutoffs):
        raise DataError(f"cutoffs must be positive, got {cutoffs}")
    cutoffs = tuple(sorted(cutoffs))
    totals = _values_by_id(imputed)
    truth_vals = np.sort(_values_by_id(truth))
    if truth_vals.size != n:
        raise DataError(f"reference set has {truth_vals.size} households, expected n={n}")
    if n > totals.size:
        raise DataError(f"cannot draw {n} households from {totals.size}")

    iters = cutoffs[-1]
    mse = np.empty(iters)
    means = np.empty(iters)
    stds = np.empty(iters)
    kept = np.empty((min(KEPT_DRAWS, iters), n))
    for it in range(iters):
        draw = totals[rng_stream(seed, it).choice(totals.size, size=n, replace=False)]
        drawn_sorted = np.sort(draw)
        if it < kept.shape[0]:
            kept[it] = drawn_sorted
        diff = drawn_sorted - truth_vals
        mse[it] = np.mean(diff * diff)
        means[it] = draw.mean()
        stds[it] = draw.std()

    per_cutoff = []
    for k in cutoffs:
        head = mse[:k]
        per_cutoff.append(
            CutoffStats(
                cutoff=k,
                mse_mean=float(head.mean()),
                mse_std=float(head.std(ddof=1)) if k > 1 else 0.0,
                mse_stderr=float(head.std(ddof=1) / np.sqrt(k)) if k > 1 else 0.0,
                mean_of_means=float(means[:k].mean()),
                mean_of_stddevs=float(stds[:k].mean()),
            )
        )
    return EvaluationReport(
        cutoffs=cutoffs,
        per_cutoff=per_cutoff,
        seed=seed,
        n=n,
        n_imputed_households=int(totals.size),
        iteration_mse=mse,
        truth_sorted=truth_vals,
        sorted_draws=kept,
    )


@dataclass
class SpikeReport:
    """Sorted-MSE between two surveys' household totals (the cross-year spike)."""

    mse: float
    n: int
    seed: int
    size_a: int
    size_b: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def spike(a: Totals, b: Totals, n: int, seed: int = 0) -> SpikeReport:
    """Sorted-MSE between size-``n`` random subsets of two surveys' totals.

    A side whose population already has exactly ``n`` households is used
    in full; the two draw streams derive from ``(seed, 0)`` and ``(seed, 1)``.
    """

    def _draw(vals: np.ndarray, stream: int) -> np.ndarray:
        if vals.size < n:
            raise DataError(f"cannot draw {n} households from {vals.size}")
        if vals.size == n:
            return vals
        return vals[rng_stream(seed, stream).choice(vals.size, size=n, replace=False)]

    va, vb = _values_by_id(a), _values_by_id(b)
    return SpikeReport(
        mse=sorted_mse(_draw(va, 0), _draw(vb, 1)), n=n, seed=seed,
        size_a=int(va.size), size_b=int(vb.size),
    )


def baseline_mean_impute(source: EncodedDataset) -> ImputationResult:
    """Fill every missing target with the mean of the observed ones.

    The strawman baseline: with heavy missingness the imputed distribution
    collapses onto a single value.
    """
    present = ~source.missing_mask
    if not present.any():
        raise DataError("mean imputation needs at least one observed target")
    fill = float(source.y[present].mean())
    sample_y = np.where(present, source.y, fill)
    ids, totals = household_sums(source.households, sample_y, source.household_code)
    return ImputationResult(
        sample_y=sample_y,
        imputed_mask=~present,
        household_ids=ids,
        household_y=totals,
        weight=1.0,
        assignment=None,
    )
