"""Survey data fusion for household delivery demand.

Harmonizes categorical travel-survey data into coordinate-compatible
one-hot bit-vectors, imputes missing delivery counts by exact bucketed
nearest-neighbor matching under Hamming distance, projects a future-year
dataset through nested matching, and evaluates results with a randomized
sorted-MSE protocol plus exact Shapley feature attribution.

The public names below are loaded from their submodules on first use
(PEP 562), so ``import surveyfuse`` alone imports neither the submodules
nor numpy.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "attribution": ("AttributionReport", "BucketMeanPredictor", "attribute_dataset", "shapley"),
    "dataset": ("EncodedDataset", "EncodedStream", "concat_datasets", "require_same_dictionary"),
    "datagen": ("PopulationModel", "demo_model", "generate"),
    "errors": (
        "DataError",
        "DictionaryMismatchError",
        "DimensionError",
        "FusionError",
        "IngestionError",
        "MappingError",
        "MatchError",
        "SchemaError",
    ),
    "evaluation": (
        "EvaluationReport",
        "SpikeReport",
        "baseline_mean_impute",
        "sorted_mse",
        "spike",
        "subsample_compare",
    ),
    "ingest": ("RawTableSet", "assemble", "describe", "load_tables"),
    "matching": (
        "BucketSet",
        "ImputationResult",
        "MatchAssignment",
        "augment_candidate",
        "build_buckets",
        "impute",
        "nearest_rows",
    ),
    "schema": (
        "FeatureDictionary",
        "FeatureSpec",
        "HarmonizationSpec",
        "build_dictionary",
        "encode_value",
        "harmonize_target",
        "load_default_spec",
    ),
    "synthesis": (
        "SyntheticDataset",
        "TriPartiteGraph",
        "generate_future",
        "nested_match",
        "synthesize",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBMODULE))


__all__ = sorted(_SUBMODULE) + ["__version__"]
