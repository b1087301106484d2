import numpy as np
import pytest

from surveyfuse import DataError, SchemaError, demo_model, generate
from surveyfuse.datagen import PopulationModel


class TestDeterminism:
    def test_same_model_and_seed_identical(self):
        model = demo_model(missingness=0.5, seed=12)
        f1, o1 = generate(model, 100, "s", 2017)
        f2, o2 = generate(model, 100, "s", 2017)
        assert np.array_equal(f1.x, f2.x)
        assert np.array_equal(f1.y, f2.y)
        assert np.array_equal(o1.y, o2.y, equal_nan=True)
        assert np.array_equal(f1.household_ids, f2.household_ids)

    def test_seed_override_changes_draw(self):
        model = demo_model(missingness=0.5, seed=12)
        f1, _ = generate(model, 100, "s", 2017)
        f2, _ = generate(model, 100, "s", 2017, seed=13)
        assert not np.array_equal(f1.y, f2.y)


class TestMissingness:
    def test_zero_missingness_outputs_identical(self):
        full, observed = generate(demo_model(missingness=0.0, seed=1), 80, "s", 2017)
        assert np.array_equal(full.y, observed.y)
        assert observed.n_missing == 0

    def test_full_missingness(self):
        full, observed = generate(demo_model(missingness=1.0, seed=1), 80, "s", 2017)
        assert observed.n_missing == observed.n_samples
        assert full.n_missing == 0

    def test_heavy_missingness_regime(self):
        # the 96%-missing survey regime at its published household count
        _, observed = generate(demo_model(missingness=0.96, seed=5), 2665, "s", 2017)
        frac = observed.n_missing / observed.n_samples
        assert abs(frac - 0.96) < 0.01

    def test_pair_shares_samples(self):
        full, observed = generate(demo_model(missingness=0.7, seed=2), 60, "s", 2017)
        assert np.array_equal(full.x, observed.x)
        present = ~observed.missing_mask
        assert np.array_equal(observed.y[present], full.y[present])


class TestStructure:
    def test_one_hot_validity(self):
        full, _ = generate(demo_model(missingness=0.0, seed=3), 200, "s", 2017)
        for sl in full.dictionary.group_slices():
            assert full.x[:, sl].sum(axis=1).max() <= 1

    def test_covariate_missingness_produces_zero_groups(self):
        model = demo_model(missingness=0.0, seed=4)
        model = PopulationModel(
            **{**model.__dict__, "covariate_missingness": 0.5}
        )
        full, _ = generate(model, 200, "s", 2017)
        pops = np.stack(
            [full.x[:, sl].sum(axis=1) for sl in model.dictionary.group_slices()]
        )
        assert (pops == 0).any()
        assert pops.max() <= 1

    def test_marginals_converge(self):
        model = demo_model(missingness=0.0, seed=7)
        full, _ = generate(model, 4000, "s", 2017)  # ~12k samples
        n = full.n_samples
        assert n >= 10_000
        for sl, probs in zip(model.dictionary.group_slices(), model.marginals):
            counts = full.x[:, sl].sum(axis=0)
            for j, p in enumerate(probs):
                sigma = np.sqrt(n * p * (1 - p))
                assert abs(counts[j] - n * p) <= 3 * sigma + 1

    def test_household_sizes_respected(self):
        model = demo_model(missingness=0.0, seed=8)
        full, _ = generate(model, 500, "s", 2017)
        _, counts = np.unique(full.household_ids, return_counts=True)
        assert set(counts.tolist()) <= set(model.household_sizes)
        assert full.n_households() == 500

    def test_targets_nonnegative(self):
        full, _ = generate(demo_model(missingness=0.0, seed=9), 300, "s", 2017)
        assert (full.y >= 0).all()


class TestPropensity:
    def test_spike_factor_scales_rates(self):
        base = demo_model(missingness=0.0, seed=10, target_noise="none")
        spiked = demo_model(
            missingness=0.0, seed=10, target_noise="none", spike_factor=3.0
        )
        f_base, _ = generate(base, 200, "s", 2017)
        f_spiked, _ = generate(spiked, 200, "s", 2021)
        np.testing.assert_allclose(f_spiked.y, 3.0 * f_base.y, atol=1e-12)

    def test_deterministic_noise_mode_equals_rate(self):
        model = demo_model(missingness=0.0, seed=11, target_noise="none")
        full, _ = generate(model, 100, "s", 2017)
        # deterministic targets: identical covariates always share a target
        seen = {}
        for row, y in zip(full.x, full.y):
            key = row.tobytes()
            assert seen.setdefault(key, y) == y


class TestValidation:
    def test_bad_marginals(self):
        model = demo_model()
        bad = PopulationModel(
            **{**model.__dict__, "marginals": ((0.5, 0.2, 0.2),) + model.marginals[1:]}
        )
        with pytest.raises(SchemaError, match="sum to 1"):
            bad.validate()

    def test_bad_missingness(self):
        model = demo_model()
        bad = PopulationModel(**{**model.__dict__, "missingness": 1.5})
        with pytest.raises(SchemaError):
            bad.validate()

    def test_unknown_propensity_feature(self):
        model = demo_model()
        bad = PopulationModel(
            **{**model.__dict__, "propensity": {"Nope": {"x": 1.0}}}
        )
        with pytest.raises(SchemaError, match="unknown feature"):
            bad.validate()

    def test_nonpositive_households(self):
        with pytest.raises(DataError):
            generate(demo_model(), 0, "s", 2017)

    def test_json_round_trip(self, tmp_path):
        import json

        model = demo_model(missingness=0.3, seed=21, spike_factor=2.0)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model.to_json_dict()))
        again = PopulationModel.from_file(path)
        assert again == model
