"""The randomized evaluation protocol, and why sorting comes first.

Households are anonymous and differ across surveys, so totals cannot be
compared row by row.  Sorting both vectors ascending compares the
distributions instead; drawing many random household subsets the size
of the reference set and averaging over growing iteration cutoffs shows
how stable that comparison is.
"""

import numpy as np

from surveyfuse import (
    baseline_mean_impute,
    demo_model,
    generate,
    impute,
    sorted_mse,
    subsample_compare,
)
from surveyfuse.dataset import household_sums
from surveyfuse.matching import augment_candidate

# sorted-MSE is blind to ordering but sharp on distribution shifts
a = np.array([3.0, 0.0, 1.0])
print("sorted-MSE([3,0,1], [1,2,0]) =", sorted_mse(a, np.array([1.0, 2.0, 0.0])))
print("sorted-MSE of a permutation  =", sorted_mse(a, np.array([0.0, 1.0, 3.0])))
print()

# Imputed source survey vs a labeled reference survey drawn from the
# same population.  The donor pool is comparable in size to the source,
# so the weight w stays near one.
source_model = demo_model(missingness=0.96, seed=11)
truth_model = demo_model(missingness=0.0, seed=12)
full_source, observed = generate(source_model, 1200, "source", 2017, seed=11)
reference, _ = generate(truth_model, 1100, "reference", 2017, seed=12)

pool = augment_candidate(observed, reference)
matched = impute(observed, pool)
# household totals travel as (ids, values) pairs
truth_totals = household_sums(reference.households, reference.y, reference.household_code)
n = truth_totals[0].size

report = subsample_compare(
    (matched.household_ids, matched.household_y), truth_totals, n=n, seed=0
)
print(f"imputed with w = {matched.weight:.3f}; comparing random household "
      f"subsets of size {n}:")
print(f"  {'cutoff':>6s} {'mse':>8s} {'stderr':>8s} {'mean':>7s} {'stddev':>7s}")
for c in report.per_cutoff:
    print(
        f"  {c.cutoff:6d} {c.mse_mean:8.4f} {c.mse_stderr:8.4f}"
        f" {c.mean_of_means:7.3f} {c.mean_of_stddevs:7.3f}"
    )
print("(the standard error of the mean MSE shrinks as cutoffs deepen)")
print()

# Against the source's own planted oracle the comparison is absolute:
# matching recovers covariate structure the mean baseline throws away.
truth = full_source.household_totals()
order = list(truth)
truth_vals = np.array([truth[h] for h in order])
matched_vals = np.array([matched.household_totals()[h] for h in order])
baseline = baseline_mean_impute(observed)
baseline_vals = np.array([baseline.household_totals()[h] for h in order])
print("sorted-MSE against the planted per-household truth:")
print(f"  nearest-neighbor matching: {sorted_mse(matched_vals, truth_vals):.4f}")
print(f"  mean-imputation baseline:  {sorted_mse(baseline_vals, truth_vals):.4f}")
