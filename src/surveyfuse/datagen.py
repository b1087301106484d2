"""Seedable synthetic-survey generator with planted delivery propensity.

Generates paired datasets — one fully labeled oracle, one with targets
removed at a configured missingness rate — so the matching and synthesis
pipeline can be validated desk-scale against known ground truth.
Covariates are drawn per sample from per-feature category marginals; the
expected deliveries/day of a sample is a base rate plus additive
per-category effects, clipped at zero, and optionally scaled by a spike
factor to emulate a demand surge year.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import EncodedDataset, rng_stream
from .errors import DataError, SchemaError
from .schema import FeatureDictionary

_NOISE_MODES = ("poisson", "none")


@dataclass(frozen=True)
class PopulationModel:
    """Marginals, planted propensity, household sizes, and missingness."""

    dictionary: FeatureDictionary
    marginals: tuple[tuple[float, ...], ...]  # per feature, sums to 1
    propensity_base: float
    propensity: dict[str, dict[str, float]] = field(default_factory=dict)
    household_sizes: tuple[int, ...] = (1, 2, 3, 4, 5)
    household_size_probs: tuple[float, ...] = (0.2, 0.2, 0.2, 0.2, 0.2)
    missingness: float = 0.0
    covariate_missingness: float = 0.0
    target_noise: str = "poisson"
    spike_factor: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if len(self.marginals) != self.dictionary.n_features:
            raise SchemaError("one marginal vector per feature is required")
        for name, cats, probs in zip(
            self.dictionary.features, self.dictionary.categories, self.marginals
        ):
            if len(probs) != len(cats):
                raise SchemaError(f"feature {name!r}: marginals do not match categories")
            if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
                raise SchemaError(f"feature {name!r}: marginals must be >= 0 and sum to 1")
        for fname, effects in self.propensity.items():
            if fname not in self.dictionary.features:
                raise SchemaError(f"propensity references unknown feature {fname!r}")
            cats = self.dictionary.categories[self.dictionary.feature_index(fname)]
            for cat in effects:
                if cat not in cats:
                    raise SchemaError(
                        f"propensity references unknown category {cat!r} of {fname!r}"
                    )
        if not (0.0 <= self.missingness <= 1.0):
            raise SchemaError(f"missingness must be in [0, 1], got {self.missingness}")
        if not (0.0 <= self.covariate_missingness <= 1.0):
            raise SchemaError("covariate_missingness must be in [0, 1]")
        if len(self.household_sizes) != len(self.household_size_probs):
            raise SchemaError("household size distribution is malformed")
        if any(s <= 0 for s in self.household_sizes):
            raise SchemaError("household sizes must be positive")
        if abs(sum(self.household_size_probs) - 1.0) > 1e-9:
            raise SchemaError("household size probabilities must sum to 1")
        if self.target_noise not in _NOISE_MODES:
            raise SchemaError(f"target_noise must be one of {_NOISE_MODES}")
        if self.spike_factor < 0:
            raise SchemaError("spike_factor must be >= 0")
        if self.propensity_base < 0:
            raise SchemaError("propensity_base must be >= 0")

    def expected_rate(self, category_idx: np.ndarray) -> np.ndarray:
        """Deliveries/day for samples given per-feature category indices (-1 = missing)."""
        rate = np.full(category_idx.shape[0], self.propensity_base, dtype=np.float64)
        for j, (name, cats) in enumerate(
            zip(self.dictionary.features, self.dictionary.categories)
        ):
            effects = self.propensity.get(name)
            if not effects:
                continue
            per_cat = np.array([effects.get(c, 0.0) for c in cats])
            idx = category_idx[:, j]
            present = idx >= 0
            rate[present] += per_cat[idx[present]]
        return np.maximum(rate, 0.0) * self.spike_factor

    # -- JSON ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "features": [
                {"name": f, "categories": list(c), "marginals": list(m)}
                for f, c, m in zip(
                    self.dictionary.features, self.dictionary.categories, self.marginals
                )
            ],
            "propensity": {"base": self.propensity_base, "effects": self.propensity},
            "household_sizes": {
                "sizes": list(self.household_sizes),
                "probs": list(self.household_size_probs),
            },
            "missingness": self.missingness,
            "covariate_missingness": self.covariate_missingness,
            "target_noise": self.target_noise,
            "spike_factor": self.spike_factor,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PopulationModel":
        if not isinstance(obj, dict):
            raise SchemaError(f"model must be a JSON object, got {type(obj).__name__}")
        if obj.get("version") != 1:
            raise SchemaError(f"unsupported model version {obj.get('version')!r}")
        feats = obj.get("features")
        if not isinstance(feats, list) or not all(isinstance(f, dict) for f in feats):
            raise SchemaError("model 'features' must be a list of objects")
        dictionary = FeatureDictionary(
            features=tuple(f["name"] for f in feats),
            categories=tuple(tuple(f["categories"]) for f in feats),
        )
        sizes = obj.get("household_sizes", {})
        model = cls(
            dictionary=dictionary,
            marginals=tuple(tuple(f["marginals"]) for f in feats),
            propensity_base=float(obj["propensity"]["base"]),
            propensity={
                f: dict(e) for f, e in obj["propensity"].get("effects", {}).items()
            },
            household_sizes=tuple(sizes.get("sizes", (1, 2, 3, 4, 5))),
            household_size_probs=tuple(sizes.get("probs", (0.2,) * 5)),
            missingness=float(obj.get("missingness", 0.0)),
            covariate_missingness=float(obj.get("covariate_missingness", 0.0)),
            target_noise=obj.get("target_noise", "poisson"),
            spike_factor=float(obj.get("spike_factor", 1.0)),
            seed=int(obj.get("seed", 0)),
        )
        model.validate()
        return model

    @classmethod
    def from_file(cls, path: str | Path) -> "PopulationModel":
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        try:
            return cls.from_json_dict(obj)
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}") from None


def generate(
    model: PopulationModel,
    n_households: int,
    survey_id: str,
    year: int,
    seed: int | None = None,
) -> tuple[EncodedDataset, EncodedDataset]:
    """Draw a survey; returns (fully labeled oracle, missingness applied).

    Both datasets share households, covariates, and targets; the second
    one has targets removed at the model's missingness rate.
    """
    model.validate()
    if n_households <= 0:
        raise DataError(f"n_households must be positive, got {n_households}")
    rng = rng_stream(model.seed if seed is None else seed)
    dictionary = model.dictionary

    sizes = rng.choice(
        np.array(model.household_sizes), size=n_households, p=model.household_size_probs
    )
    n = int(sizes.sum())
    household_ids = np.repeat(
        np.array([f"h{i:06d}" for i in range(n_households)], dtype=np.str_), sizes
    )

    # one category index per (sample, feature); -1 marks a missing covariate
    category_idx = np.empty((n, dictionary.n_features), dtype=np.int64)
    for j, probs in enumerate(model.marginals):
        category_idx[:, j] = rng.choice(len(probs), size=n, p=np.array(probs))
    if model.covariate_missingness > 0:
        drop = rng.random((n, dictionary.n_features)) < model.covariate_missingness
        category_idx[drop] = -1

    x = np.zeros((n, dictionary.dimension), dtype=np.uint8)
    for j, sl in enumerate(dictionary.group_slices()):
        idx = category_idx[:, j]
        present = np.flatnonzero(idx >= 0)
        x[present, sl.start + idx[present]] = 1

    rate = model.expected_rate(category_idx)
    if model.target_noise == "poisson":
        y = rng.poisson(rate).astype(np.float64)
    else:
        y = rate.copy()

    full = EncodedDataset(
        dictionary=dictionary,
        survey_id=survey_id,
        year=year,
        household_ids=household_ids,
        x=x,
        y=y,
    )
    y_missing = y.copy()
    if model.missingness > 0:
        mask = rng.random(n) < model.missingness
        y_missing[mask] = np.nan
    observed = EncodedDataset(
        dictionary=dictionary,
        survey_id=survey_id,
        year=year,
        household_ids=household_ids.copy(),
        x=x.copy(),
        y=y_missing,
    )
    return full, observed


def demo_model(
    missingness: float = 0.96,
    seed: int = 0,
    spike_factor: float = 1.0,
    target_noise: str = "poisson",
) -> PopulationModel:
    """A six-feature model shaped like the harmonized survey dictionary."""
    dictionary = FeatureDictionary(
        features=("Income", "Age", "Gender", "Education", "LifeCycle", "Employment"),
        categories=(
            (">100k", "75-100k", "<75k"),
            ("<25", "25-45", "45-65", ">65"),
            ("Female", "Male"),
            (
                "<HighSchool",
                "HighSchoolGrad",
                "TechnicalTraining",
                "AssociateDegree",
                "BachelorDegree",
                "GraduateDegree",
            ),
            (
                "2AdultsNoChildren",
                "1AdultNoChildren",
                "1AdultWithChildren",
                "2AdultsWithChildren",
            ),
            (
                "FullTime",
                "Retired",
                "PartTime",
                "Freelancer",
                "NotEmployed",
                "Homemaker",
                "Volunteer",
            ),
        ),
    )
    model = PopulationModel(
        dictionary=dictionary,
        marginals=(
            (0.42, 0.15, 0.43),
            (0.2, 0.45, 0.22, 0.13),
            (0.51, 0.49),
            (0.02, 0.05, 0.03, 0.15, 0.42, 0.33),
            (0.45, 0.32, 0.05, 0.18),
            (0.6, 0.12, 0.08, 0.06, 0.05, 0.05, 0.04),
        ),
        propensity_base=0.25,
        propensity={
            "Income": {">100k": 0.9, "75-100k": 0.35, "<75k": -0.1},
            "Age": {"<25": 0.25, "25-45": 0.45, "45-65": 0.05, ">65": -0.2},
            "LifeCycle": {"2AdultsWithChildren": 0.55, "1AdultWithChildren": 0.3},
            "Employment": {"FullTime": 0.3, "Retired": -0.15},
        },
        missingness=missingness,
        target_noise=target_noise,
        spike_factor=spike_factor,
        seed=seed,
    )
    model.validate()
    return model
