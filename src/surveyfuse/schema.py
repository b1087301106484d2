"""Harmonized feature dictionary and one-hot encoding of raw survey columns.

A :class:`HarmonizationSpec` declares, as data, how each survey's raw
categorical columns map onto a shared categorical vocabulary, and how the
delivery target column(s) are rescaled to deliveries per day.  Specs are
loaded from a versioned JSON file so new surveys need no code changes.

Encoding turns a harmonized category into a one-hot bit group; a missing
raw value encodes as an all-zero group.  Because every dataset encoded
with the same :class:`FeatureDictionary` is coordinate-compatible, bit
position i always means the same (feature, category) pair.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, MappingError, SchemaError

SPEC_FORMAT_VERSION = 1

# Category label used in reports for an all-zero (missing) bit group.
MISSING_LABEL = "Missing"


@dataclass(frozen=True)
class SurveyColumn:
    """Where one harmonized feature lives in one survey.

    Exactly one of ``values`` (categorical crosswalk) or ``bins``
    (ascending numeric edges, lower bound inclusive) must be given.
    A crosswalk maps a raw string either to a harmonized category or to
    ``None`` meaning "treat as missing".
    """

    column: str
    table: str  # "household" or "person"
    values: dict[str, str | None] = field(default_factory=dict)
    bins: tuple[float, ...] | None = None
    missing_values: tuple[str, ...] = ("",)


@dataclass(frozen=True)
class FeatureSpec:
    """One harmonized categorical feature and its per-survey mappings."""

    name: str
    categories: tuple[str, ...]
    surveys: dict[str, SurveyColumn] = field(default_factory=dict)

    def survey_column(self, survey_id: str) -> SurveyColumn:
        try:
            return self.surveys[survey_id]
        except KeyError:
            raise SchemaError(
                f"feature {self.name!r} has no mapping for survey {survey_id!r}"
            ) from None


@dataclass(frozen=True)
class TargetColumn:
    """Delivery columns of one survey and the divisor taking them to deliveries/day."""

    columns: tuple[str, ...]
    divisor: float
    table: str = "day"  # the only table delivery columns are read from
    missing_values: tuple[str, ...] = ("",)


@dataclass(frozen=True)
class TargetSpec:
    name: str
    surveys: dict[str, TargetColumn] = field(default_factory=dict)

    def survey_target(self, survey_id: str) -> TargetColumn:
        try:
            return self.surveys[survey_id]
        except KeyError:
            raise SchemaError(
                f"target {self.name!r} has no mapping for survey {survey_id!r}"
            ) from None


@dataclass(frozen=True)
class TableKeys:
    """Primary-key column names of one survey's three tables."""

    household_id: str = "household_id"
    person_id: str = "person_id"
    day_id: str = "day_id"


@dataclass(frozen=True)
class HarmonizationSpec:
    """Declarative mapping from raw survey columns to harmonized features."""

    features: tuple[FeatureSpec, ...]
    target: TargetSpec
    keys: dict[str, TableKeys] = field(default_factory=dict)
    version: int = SPEC_FORMAT_VERSION

    def validate(self) -> None:
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate feature names in spec: {sorted(names)}")
        for f in self.features:
            if len(f.categories) < 2:
                raise SchemaError(
                    f"feature {f.name!r} needs at least 2 categories, got {len(f.categories)}"
                )
            if len(set(f.categories)) != len(f.categories):
                raise SchemaError(f"duplicate categories in feature {f.name!r}")
            for survey_id, col in f.surveys.items():
                if col.table not in ("household", "person"):
                    raise SchemaError(
                        f"feature {f.name!r} survey {survey_id!r}: table must be "
                        f"'household' or 'person', got {col.table!r}"
                    )
                has_values = bool(col.values)
                has_bins = col.bins is not None
                if has_values == has_bins:
                    raise SchemaError(
                        f"feature {f.name!r} survey {survey_id!r}: give exactly one "
                        "of 'values' or 'bins'"
                    )
                if has_bins:
                    edges = col.bins
                    if len(edges) != len(f.categories) - 1:
                        raise SchemaError(
                            f"feature {f.name!r} survey {survey_id!r}: {len(f.categories)} "
                            f"categories need {len(f.categories) - 1} bin edges, got {len(edges)}"
                        )
                    if any(a >= b for a, b in zip(edges, edges[1:])):
                        raise SchemaError(
                            f"feature {f.name!r} survey {survey_id!r}: bin edges must ascend"
                        )
                else:
                    for raw, cat in col.values.items():
                        if cat is not None and cat not in f.categories:
                            raise SchemaError(
                                f"feature {f.name!r} survey {survey_id!r}: raw value "
                                f"{raw!r} maps to unknown category {cat!r}"
                            )
        for survey_id, tgt in self.target.surveys.items():
            if tgt.divisor <= 0:
                raise SchemaError(
                    f"target divisor for survey {survey_id!r} must be > 0, got {tgt.divisor}"
                )
            if not tgt.columns:
                raise SchemaError(f"target for survey {survey_id!r} lists no columns")
            if tgt.table != "day":
                raise SchemaError(
                    f"target for survey {survey_id!r}: table must be 'day' (delivery "
                    f"columns are read from the travel-day table), got {tgt.table!r}"
                )

    def table_keys(self, survey_id: str) -> TableKeys:
        return self.keys.get(survey_id, TableKeys())

    # -- JSON round trip ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "features": [
                {
                    "name": f.name,
                    "categories": list(f.categories),
                    "surveys": {
                        sid: {
                            "column": c.column,
                            "table": c.table,
                            **({"values": dict(c.values)} if c.values else {}),
                            **({"bins": list(c.bins)} if c.bins is not None else {}),
                            "missing_values": list(c.missing_values),
                        }
                        for sid, c in f.surveys.items()
                    },
                }
                for f in self.features
            ],
            "target": {
                "name": self.target.name,
                "surveys": {
                    sid: {
                        "columns": list(t.columns),
                        "divisor": t.divisor,
                        "table": t.table,
                        "missing_values": list(t.missing_values),
                    }
                    for sid, t in self.target.surveys.items()
                },
            },
            "keys": {
                sid: {
                    "household_id": k.household_id,
                    "person_id": k.person_id,
                    "day_id": k.day_id,
                }
                for sid, k in self.keys.items()
            },
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "HarmonizationSpec":
        if not isinstance(obj, dict):
            raise SchemaError(
                f"harmonization spec must be a JSON object, got {type(obj).__name__}"
            )
        if "version" not in obj:
            raise SchemaError("harmonization spec is missing the required 'version' field")
        if obj["version"] != SPEC_FORMAT_VERSION:
            raise SchemaError(
                f"unsupported spec version {obj['version']!r} "
                f"(this build reads version {SPEC_FORMAT_VERSION})"
            )
        objs = obj.get("features", [])
        if not isinstance(objs, list) or not all(isinstance(fo, dict) for fo in objs):
            raise SchemaError("harmonization spec 'features' must be a list of objects")
        features = []
        for fo in objs:
            surveys = {}
            for sid, co in fo.get("surveys", {}).items():
                surveys[sid] = SurveyColumn(
                    column=co["column"],
                    table=co.get("table", "person"),
                    values=dict(co.get("values", {})),
                    bins=tuple(co["bins"]) if "bins" in co else None,
                    missing_values=tuple(co.get("missing_values", [""])),
                )
            features.append(
                FeatureSpec(
                    name=fo["name"],
                    categories=tuple(fo["categories"]),
                    surveys=surveys,
                )
            )
        tgt = obj.get("target", {})
        target = TargetSpec(
            name=tgt.get("name", "Delivery"),
            surveys={
                sid: TargetColumn(
                    columns=tuple(t["columns"]),
                    divisor=float(t["divisor"]),
                    table=t.get("table", "day"),
                    missing_values=tuple(t.get("missing_values", [""])),
                )
                for sid, t in tgt.get("surveys", {}).items()
            },
        )
        keys = {
            sid: TableKeys(
                household_id=k.get("household_id", "household_id"),
                person_id=k.get("person_id", "person_id"),
                day_id=k.get("day_id", "day_id"),
            )
            for sid, k in obj.get("keys", {}).items()
        }
        spec = cls(features=tuple(features), target=target, keys=keys, version=obj["version"])
        spec.validate()
        return spec

    @classmethod
    def from_file(cls, path: str | Path) -> "HarmonizationSpec":
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        try:
            return cls.from_json_dict(obj)
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class FeatureDictionary:
    """Ordered one-hot column layout shared by coordinate-compatible datasets.

    Column i of an encoded bit-vector is ``columns[i] == (feature, category)``;
    the order is the harmonization spec's declared order (features, then
    categories within a feature).
    """

    features: tuple[str, ...]
    categories: tuple[tuple[str, ...], ...]

    @property
    def dimension(self) -> int:
        return sum(len(c) for c in self.categories)

    @property
    def columns(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (f, c) for f, cats in zip(self.features, self.categories) for c in cats
        )

    @property
    def n_features(self) -> int:
        return len(self.features)

    def group_slice(self, feature: str) -> slice:
        """Bit positions occupied by one feature's one-hot group."""
        start = 0
        for name, cats in zip(self.features, self.categories):
            if name == feature:
                return slice(start, start + len(cats))
            start += len(cats)
        raise KeyError(feature)

    def group_slices(self) -> tuple[slice, ...]:
        out = []
        start = 0
        for cats in self.categories:
            out.append(slice(start, start + len(cats)))
            start += len(cats)
        return tuple(out)

    def feature_index(self, feature: str) -> int:
        return self.features.index(feature)

    def to_json_dict(self) -> dict:
        return {
            "features": [
                {"name": f, "categories": list(c)}
                for f, c in zip(self.features, self.categories)
            ]
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FeatureDictionary":
        return cls(
            features=tuple(f["name"] for f in obj["features"]),
            categories=tuple(tuple(f["categories"]) for f in obj["features"]),
        )

    def hash(self) -> str:
        """SHA-256 of the canonical JSON layout; equal hash = coordinate compatible."""
        blob = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_dictionary(spec: HarmonizationSpec) -> FeatureDictionary:
    """Lay out one bit column per (feature, category) pair, in spec order."""
    spec.validate()
    return FeatureDictionary(
        features=tuple(f.name for f in spec.features),
        categories=tuple(f.categories for f in spec.features),
    )


def _map_raw(feature: FeatureSpec, col: SurveyColumn, raw: str | None, survey_id: str):
    """Resolve a raw string to a harmonized category index, or None for missing."""
    if raw is None:
        return None
    raw = raw.strip()
    if raw in col.missing_values:
        return None
    if col.bins is not None:
        try:
            value = float(raw)
        except ValueError:
            raise MappingError(
                f"survey {survey_id!r} column {col.column!r}: value {raw!r} is not numeric"
            ) from None
        # lower bound inclusive: value == edge falls into the higher bin
        return int(np.searchsorted(np.asarray(col.bins), value, side="right"))
    if raw not in col.values:
        raise MappingError(
            f"survey {survey_id!r} column {col.column!r}: unmapped value {raw!r} "
            f"for feature {feature.name!r}"
        )
    cat = col.values[raw]
    if cat is None:
        return None
    return feature.categories.index(cat)


def encode_value(feature: FeatureSpec, raw: str | None, survey_id: str) -> np.ndarray:
    """One-hot encode a raw value: one bit set, or all zeros when missing."""
    col = feature.survey_column(survey_id)
    bits = np.zeros(len(feature.categories), dtype=np.uint8)
    idx = _map_raw(feature, col, raw, survey_id)
    if idx is not None:
        bits[idx] = 1
    return bits


def harmonize_target(raw_value: float | None, divisor: float) -> float | None:
    """Rescale a raw delivery count to deliveries/day; missing propagates."""
    if divisor <= 0:
        raise SchemaError(f"target divisor must be > 0, got {divisor}")
    if raw_value is None:
        return None
    if raw_value < 0:
        raise DataError(f"negative delivery count {raw_value!r}")
    return raw_value / divisor


def default_spec_path() -> Path:
    """Shipped best-effort PSRC/NHTS crosswalk (editable data, not code)."""
    return Path(__file__).parent / "data" / "psrc_nhts_harmonization.json"


def load_default_spec() -> HarmonizationSpec:
    return HarmonizationSpec.from_file(default_spec_path())
