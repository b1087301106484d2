"""Survey data fusion for household delivery demand.

Harmonizes categorical travel-survey data into coordinate-compatible
one-hot bit-vectors, imputes missing delivery counts by exact bucketed
nearest-neighbor matching under Hamming distance, projects a future-year
dataset through nested matching, and evaluates results with a randomized
sorted-MSE protocol plus exact Shapley feature attribution.
"""

__version__ = "0.1.0"

from .attribution import (
    AttributionReport,
    BucketMeanPredictor,
    attribute_dataset,
    shapley,
)
from .dataset import EncodedDataset, concat_datasets, require_same_dictionary
from .datagen import PopulationModel, demo_model, generate
from .errors import (
    DataError,
    DictionaryMismatchError,
    DimensionError,
    FusionError,
    IngestionError,
    MappingError,
    MatchError,
    SchemaError,
)
from .evaluation import (
    EvaluationReport,
    SpikeReport,
    baseline_mean_impute,
    sorted_mse,
    spike,
    subsample_compare,
)
from .ingest import RawTableSet, assemble, describe, load_tables
from .matching import (
    BucketSet,
    ImputationResult,
    MatchAssignment,
    augment_candidate,
    build_buckets,
    hamming,
    impute,
    nearest_rows,
)
from .schema import (
    FeatureDictionary,
    FeatureSpec,
    HarmonizationSpec,
    build_dictionary,
    encode_value,
    harmonize_target,
    load_default_spec,
)
from .synthesis import (
    SyntheticDataset,
    TriPartiteGraph,
    generate_future,
    nested_match,
    synthesize,
)

__all__ = [
    "AttributionReport",
    "BucketMeanPredictor",
    "BucketSet",
    "DataError",
    "DictionaryMismatchError",
    "DimensionError",
    "EncodedDataset",
    "EvaluationReport",
    "FeatureDictionary",
    "FeatureSpec",
    "FusionError",
    "HarmonizationSpec",
    "ImputationResult",
    "IngestionError",
    "MappingError",
    "MatchAssignment",
    "MatchError",
    "PopulationModel",
    "RawTableSet",
    "SchemaError",
    "SpikeReport",
    "SyntheticDataset",
    "TriPartiteGraph",
    "assemble",
    "attribute_dataset",
    "augment_candidate",
    "baseline_mean_impute",
    "build_buckets",
    "build_dictionary",
    "concat_datasets",
    "demo_model",
    "describe",
    "encode_value",
    "generate",
    "generate_future",
    "hamming",
    "harmonize_target",
    "impute",
    "load_default_spec",
    "load_tables",
    "nearest_rows",
    "nested_match",
    "require_same_dictionary",
    "shapley",
    "sorted_mse",
    "spike",
    "subsample_compare",
    "synthesize",
    "__version__",
]
