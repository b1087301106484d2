import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surveyfuse import (
    BucketMeanPredictor,
    DataError,
    DimensionError,
    attribute_dataset,
    baseline_mean_impute,
    demo_model,
    generate,
    impute,
    sorted_mse,
    spike,
    subsample_compare,
)
from surveyfuse.matching import augment_candidate
from conftest import make_dataset
from oracles import sorted_mse_oracle

floats = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestSortedMse:
    def test_equal_sets_any_order(self):
        assert sorted_mse(np.array([3, 1, 2]), np.array([1, 2, 3])) == 0.0

    def test_direct_arithmetic(self):
        assert sorted_mse(np.array([0, 2]), np.array([1, 1])) == 1.0

    def test_hand_computed(self):
        # sorted [0,1,3] vs [0,1,2] -> (0 + 0 + 1) / 3
        assert sorted_mse(np.array([3, 0, 1]), np.array([1, 2, 0])) == pytest.approx(1 / 3)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            sorted_mse(np.array([1.0]), np.array([1.0, 2.0]))

    def test_empty(self):
        with pytest.raises(DimensionError):
            sorted_mse(np.array([]), np.array([]))

    @given(st.lists(floats, min_size=1, max_size=30), st.data())
    def test_permutation_invariant_and_symmetric(self, a, data):
        b = data.draw(st.lists(floats, min_size=len(a), max_size=len(a)))
        a_arr, b_arr = np.array(a), np.array(b)
        rng = np.random.default_rng(0)
        pa, pb = rng.permutation(a_arr), rng.permutation(b_arr)
        assert sorted_mse(pa, pb) == pytest.approx(sorted_mse(a_arr, b_arr), abs=1e-9)
        assert sorted_mse(a_arr, b_arr) == pytest.approx(sorted_mse(b_arr, a_arr))

    @given(st.lists(floats, min_size=1, max_size=20), st.data())
    def test_matches_oracle(self, a, data):
        b = data.draw(st.lists(floats, min_size=len(a), max_size=len(a)))
        assert sorted_mse(np.array(a), np.array(b)) == pytest.approx(
            sorted_mse_oracle(a, b), abs=1e-6
        )


def totals(n, value=None, rng=None):
    """An (ids, values) pair over households h0 .. h<n-1>, not in id order past h9."""
    ids = np.array([f"h{i}" for i in range(n)])
    if value is not None:
        return ids, np.full(n, float(value))
    return ids, rng.uniform(0, 5, n)


class TestSubsampleCompare:
    def test_identical_inputs_zero_mse(self):
        t = totals(40, rng=np.random.default_rng(1))
        report = subsample_compare(t, t, n=40, cutoffs=(5, 10), seed=7)
        for c in report.per_cutoff:
            assert c.mse_mean == 0.0

    def test_disjoint_constants(self):
        imputed = totals(50, value=0.0)
        truth = totals(20, value=1.0)
        report = subsample_compare(imputed, truth, n=20, cutoffs=(3,), seed=0)
        assert report.per_cutoff[0].mse_mean == 1.0

    def test_cutoffs_are_nested_prefixes(self):
        rng = np.random.default_rng(5)
        imputed = totals(60, rng=rng)
        truth = totals(25, rng=rng)
        both = subsample_compare(imputed, truth, n=25, cutoffs=(4, 8), seed=3)
        only8 = subsample_compare(imputed, truth, n=25, cutoffs=(8,), seed=3)
        assert np.array_equal(both.iteration_mse, only8.iteration_mse)
        assert both.per_cutoff[0].mse_mean == pytest.approx(
            only8.iteration_mse[:4].mean()
        )

    def test_reproducible_given_seed(self):
        rng = np.random.default_rng(11)
        imputed = totals(80, rng=rng)
        truth = totals(30, rng=rng)
        r1 = subsample_compare(imputed, truth, n=30, cutoffs=(6,), seed=9)
        r2 = subsample_compare(imputed, truth, n=30, cutoffs=(6,), seed=9)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_truth_size_must_equal_n(self):
        with pytest.raises(DataError, match="expected n"):
            subsample_compare(totals(10, value=1), totals(4, value=1), n=5, seed=0)

    def test_subset_larger_than_population(self):
        with pytest.raises(DataError, match="draw"):
            subsample_compare(totals(3, value=1), totals(5, value=1), n=5, seed=0)

    def test_mean_and_std_track_draws(self):
        imputed = totals(30, value=2.0)
        truth = totals(10, value=2.0)
        report = subsample_compare(imputed, truth, n=10, cutoffs=(4,), seed=1)
        assert report.per_cutoff[0].mean_of_means == pytest.approx(2.0)
        assert report.per_cutoff[0].mean_of_stddevs == pytest.approx(0.0)


    def test_pair_order_does_not_change_report(self):
        rng = np.random.default_rng(13)
        imputed, truth = totals(60, rng=rng), totals(20, rng=rng)
        by_id = [(ids[np.argsort(ids)], v[np.argsort(ids)]) for ids, v in (imputed, truth)]
        perm = [(ids[p], v[p]) for (ids, v), p in zip(by_id, map(rng.permutation, (60, 20)))]
        a = subsample_compare(*by_id, n=20, cutoffs=(5,), seed=4)
        b = subsample_compare(*perm, n=20, cutoffs=(5,), seed=4)
        np.testing.assert_array_equal(a.iteration_mse, b.iteration_mse)
        np.testing.assert_array_equal(a.sorted_draws, b.sorted_draws)

    def test_repeated_household_rejected(self):
        ids, values = totals(10, value=1.0)
        ids[7] = "h2"
        with pytest.raises(DataError, match="duplicate household 'h2'"):
            subsample_compare((ids, values), totals(5, value=1.0), n=5, seed=0)
        with pytest.raises(DataError, match="duplicate household 'h2'"):
            spike(totals(5, value=1.0), (ids, values), n=5, seed=0)

    def test_ids_and_values_must_align(self):
        ids, values = totals(10, value=1.0)
        with pytest.raises(DimensionError):
            subsample_compare((ids, values[:9]), totals(5, value=1.0), n=5, seed=0)


class TestSpike:
    def test_identical_full_sets(self):
        t = totals(15, rng=np.random.default_rng(2))
        assert spike(t, t, n=15, seed=0).mse == 0.0

    def test_reproducible_subsets(self):
        rng = np.random.default_rng(3)
        a, b = totals(40, rng=rng), totals(35, rng=rng)
        assert spike(a, b, n=20, seed=5).mse == spike(a, b, n=20, seed=5).mse

    def test_spike_detects_scale_shift(self):
        a = totals(20, value=1.0)
        b = totals(20, value=4.0)
        assert spike(a, b, n=20, seed=0).mse == pytest.approx(9.0)

    def test_n_too_large(self):
        with pytest.raises(DataError):
            spike(totals(4, value=1), totals(9, value=1), n=5, seed=0)

    def test_sizes_and_pair_order(self):
        rng = np.random.default_rng(6)
        (ia, va), (ib, vb) = totals(40, rng=rng), totals(35, rng=rng)
        report = spike((ia, va), (ib, vb), n=20, seed=5)
        assert (report.size_a, report.size_b) == (40, 35)
        p = rng.permutation(40)
        assert spike((ia[p], va[p]), (ib, vb), n=20, seed=5).mse == report.mse


def test_report_json_key_sets_are_pinned(pair_dictionary):
    """Reports are written from their dataclass fields, so a new field is a new
    JSON key: this pins each key set, so that such a change is a visible one."""
    rng = np.random.default_rng(12)
    evaluation = subsample_compare(totals(30, rng=rng), totals(10, rng=rng), n=10,
                                   cutoffs=(2, 4), seed=1).to_json_dict()
    assert set(evaluation) == {"seed", "n", "n_imputed_households", "cutoffs", "per_cutoff"}
    assert [set(c) for c in evaluation["per_cutoff"]] == [{
        "cutoff", "mse_mean", "mse_std", "mse_stderr", "mean_of_means", "mean_of_stddevs",
    }] * 2
    report = spike(totals(12, rng=rng), totals(15, rng=rng), n=10, seed=2).to_json_dict()
    assert set(report) == {"mse", "n", "seed", "size_a", "size_b"}
    ds = make_dataset(pair_dictionary, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], [1.0, 2.0, 0.5])
    attributed = attribute_dataset(
        ds, BucketMeanPredictor(ds), sample_limit=3, seed=0
    ).to_json_dict()
    assert set(attributed) == {
        "seed", "predictor", "n_evaluated", "efficiency_max_error", "entries",
    }
    assert attributed["entries"] and all(
        set(e) == {"feature", "category", "mean_value", "n_samples", "direction"}
        for e in attributed["entries"]
    )
    for obj in (evaluation, report, attributed):
        assert json.loads(json.dumps(obj)) == obj


class TestBaselineMeanImpute:
    def test_fills_with_observed_mean(self, single_dictionary):
        ds = make_dataset(
            single_dictionary,
            [[1, 0], [0, 1], [0, 0], [1, 0]],
            [0.0, 2.0, np.nan, np.nan],
        )
        res = baseline_mean_impute(ds)
        assert res.sample_y.tolist() == [0.0, 2.0, 1.0, 1.0]
        assert res.imputed_mask.tolist() == [False, False, True, True]

    def test_no_missing_is_identity(self, single_dictionary):
        ds = make_dataset(single_dictionary, [[1, 0], [0, 1]], [1.0, 3.0])
        res = baseline_mean_impute(ds)
        assert np.array_equal(res.sample_y, ds.y)

    def test_all_missing_rejected(self, single_dictionary):
        ds = make_dataset(single_dictionary, [[1, 0]], [np.nan])
        with pytest.raises(DataError):
            baseline_mean_impute(ds)


class TestPlantedTruthComparison:
    def test_matching_beats_mean_baseline(self):
        # heavy missingness with planted propensity: the baseline collapses
        # onto one value while matching recovers covariate structure
        model_a = demo_model(missingness=0.96, seed=101)
        model_b = demo_model(missingness=0.0, seed=202)
        full_a, observed_a = generate(model_a, 400, "survey-a", 2017, seed=101)
        full_b, _ = generate(model_b, 400, "survey-b", 2017, seed=202)

        donor_pool = augment_candidate(observed_a, full_b)
        matched = impute(observed_a, donor_pool)
        baseline = baseline_mean_impute(observed_a)
        oracle = full_a.household_totals()

        truth_vals = np.array(list(oracle.values()))
        matched_vals = np.array([matched.household_totals()[h] for h in oracle])
        baseline_vals = np.array([baseline.household_totals()[h] for h in oracle])
        assert sorted_mse(matched_vals, truth_vals) < sorted_mse(
            baseline_vals, truth_vals
        )
