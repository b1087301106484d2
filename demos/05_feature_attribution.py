"""Which covariates drive the delivery estimates, measured exactly.

Each harmonized feature is treated as one player; its Shapley value is
the average marginal change in the prediction over all feature
coalitions, computed by full enumeration (64 coalitions for six
features).  The predictor here is the bucket-mean lookup itself:
masking a feature zeroes its bit group, which the encoding reads as
"missing".
"""

import numpy as np

from surveyfuse import (
    BucketMeanPredictor,
    attribute_dataset,
    demo_model,
    generate,
    shapley,
)

model = demo_model(missingness=0.0, seed=21)
donor, _ = generate(model, 800, "donor", 2017, seed=21)
data, _ = generate(model, 400, "survey", 2017, seed=22)

predictor = BucketMeanPredictor(donor)

# One sample end to end: its prediction decomposes exactly into
# per-feature contributions on top of the global mean.
x = data.x[:1]  # a one-sample batch
values = shapley(x, predictor, data.dictionary)[0]
full, empty = predictor(x, np.array([[True] * 6, [False] * 6]))[0]
print("single sample decomposition:")
for name, v in zip(data.dictionary.features, values):
    print(f"  {name:12s} {v:+.4f}")
print(f"  sum = {values.sum():+.4f} = prediction {full:.4f} - global mean {empty:.4f}")
print()

# Across a seeded sample of the survey, aggregated by the category the
# sample actually has.  The generating model made high income and
# children in the household strong delivery drivers, and the
# attribution recovers exactly that.
report = attribute_dataset(data, predictor, sample_limit=150, seed=5)
print(f"strongest mean contributions over {report.n_evaluated} samples "
      f"(efficiency gap {report.efficiency_max_error:.1e}):")
for e in report.entries[:10]:
    print(f"  {e.feature:12s} {e.category:20s} {e.mean_value:+.4f}  {e.direction}")
