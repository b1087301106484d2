"""Synthesizing a future-year survey by nested nearest-neighbor matching.

Setting: a small ground-truth survey and a large source survey exist
for the base year, but only the source survey was repeated in the
future year, at triple the delivery volume.  Nested matching chains
future-year samples to base-year samples to donor buckets and averages
the future-year targets hierarchically onto each reachable bucket,
producing a synthetic future-year version of the ground-truth survey.
"""

import numpy as np

from surveyfuse import demo_model, generate, generate_future, nested_match, spike, synthesize
from surveyfuse.dataset import household_sums

base = demo_model(missingness=0.0, seed=3)
surge = demo_model(missingness=0.3, seed=4, spike_factor=3.0)  # 3x demand in 2021

candidate, _ = generate(base, 300, "truth-2017", 2017, seed=3)  # small ground truth
source1, _ = generate(base, 1200, "source-2017", 2017, seed=5)  # large base-year survey
_, source2 = generate(surge, 900, "source-2021", 2021, seed=4)  # future year, 30% missing

print(f"candidate (ground truth 2017): {candidate.n_samples} samples")
print(f"source1   (base year 2017)  : {source1.n_samples} samples")
print(f"source2   (future year 2021): {source2.n_samples} samples, "
      f"{source2.n_missing} missing targets (dropped before matching)")
print()

graph = nested_match(source2, source1, candidate)
w1, w2 = graph.default_weights()
print(f"tri-partite graph: {len(graph.buckets)} buckets <- "
      f"{graph.n_source1} samples <- {graph.n_source2} labeled future samples")
print(f"weights: w1 = {w1:.3f}, w2 = {w2:.3f}")

synthetic = synthesize(graph, w1, w2)
print(f"synthesized {synthetic.n_entries} of {len(graph.buckets)} buckets "
      f"covering {len(synthetic.covered_households)} of "
      f"{candidate.n_households()} ground-truth households")
print()

# The whole chain in one call, emitted as a regular encoded dataset so it
# can feed straight back into evaluation or matching.
synthetic_ds = generate_future(source2, source1, candidate).to_encoded_dataset(
    "synthetic-truth-2021", 2021
)

# Spike check, in matching units: 2017 bucket means vs the 2021 values
# synthesized for the same buckets.  The surge planted into the
# future-year survey should separate the two years clearly.
# Totals are (ids, values) pairs; each synthetic "household" is one bucket.
base_bucket_y = (
    np.array([f"b{int(b):06d}" for b in synthetic.bucket_index]),
    graph.buckets.y_mean[synthetic.bucket_index],
)
synth_bucket_y = household_sums(
    synthetic_ds.households, synthetic_ds.y, synthetic_ds.household_code
)
n = base_bucket_y[0].size
same_year = spike(base_bucket_y, base_bucket_y, n=n, seed=0)
cross_year = spike(base_bucket_y, synth_bucket_y, n=n, seed=0)

print(f"spike 2017 vs 2017 (control): sorted-MSE = {same_year.mse:.3f}")
print(f"spike 2017 vs synthetic 2021: sorted-MSE = {cross_year.mse:.3f}")
print(f"mean per-bucket target rose from "
      f"{base_bucket_y[1].mean():.2f} (2017) to "
      f"{synthetic_ds.y.mean():.2f} (synthetic 2021)")
