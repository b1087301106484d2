from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveyfuse import (
    DataError,
    FeatureDictionary,
    MatchError,
    build_buckets,
    generate_future,
    nearest_rows,
    nested_match,
    synthesize,
)
from surveyfuse import matching
from surveyfuse.dataset import unpack_rows
from conftest import make_dataset, random_one_hot
from oracles import nn_random_tie_oracle, nn_scan_oracle, synthesis_oracle


def future_match(source2, source1, **kwargs):
    """The labeled source2 rows' nearest source1 rows, as ``nested_match``
    matches them, from one ``nearest_rows`` call."""
    labeled = source2.words[~np.isnan(source2.y)]
    return nearest_rows(labeled, source1.words, dimension=source1.dictionary.dimension, **kwargs)


def assert_source1_sums(graph, source2, rows):
    """The graph's per-source1 counts and target sums are the bincounts of
    the labeled source2 rows' matched source1 ``rows``, bit for bit."""
    y = source2.y[~np.isnan(source2.y)]
    n1 = graph.n_source1
    assert np.array_equal(graph.source2_counts, np.bincount(rows, minlength=n1))
    assert graph.source2_sums.tobytes() == np.bincount(rows, weights=y, minlength=n1).tobytes()


def reachable_oracle(graph, mu2_index) -> set[int]:
    """Independent traversal: buckets reachable from any future-year sample."""
    return {int(graph.mu1.target_index[s]) for s in mu2_index}


class TestNestedMatch:
    def test_single_chain(self, single_dictionary):
        ds = make_dataset(single_dictionary, [[1, 0]], [2.0])
        graph = nested_match(ds, ds, ds)
        mu2 = future_match(ds, ds)
        assert graph.mu1.target_index.tolist() == [0]
        assert mu2.target_index.tolist() == [0]
        assert graph.mu1.distance.tolist() == [0.0]
        assert mu2.distance.tolist() == [0.0]
        assert graph.mu2.diagnostics() == mu2.diagnostics()
        assert_source1_sums(graph, ds, mu2.target_index)

    def test_equidistant_matches_smaller_index(self, single_dictionary):
        source1 = make_dataset(single_dictionary, [[1, 0], [0, 1]], [0.0, 0.0])
        source2 = make_dataset(single_dictionary, [[0, 0]], [1.0])
        candidate = make_dataset(single_dictionary, [[1, 0]], [1.0])
        graph = nested_match(source2, source1, candidate)
        assert future_match(source2, source1).target_index[0] == 0  # tie between both source1 rows
        assert graph.source2_counts.tolist() == [1, 0]

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_equivalence(self, seed, pair_dictionary):
        rng = np.random.default_rng(seed)
        candidate = make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, 10),
            rng.uniform(0, 3, 10),
        )
        source1 = make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, 20),
            rng.uniform(0, 3, 20),
        )
        source2 = make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, 30),
            rng.uniform(0, 3, 30),
        )
        graph = nested_match(source2, source1, candidate)
        buckets = build_buckets(candidate)
        mu1_idx, _ = nn_scan_oracle(source1.x, unpack_rows(buckets.words, buckets.dimension))
        mu2_idx, _ = nn_scan_oracle(source2.x, source1.x)
        assert np.array_equal(graph.mu1.target_index, mu1_idx)
        assert np.array_equal(future_match(source2, source1).target_index, mu2_idx)
        assert_source1_sums(graph, source2, mu2_idx)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_ties_over_duplicate_source1_rows(self, seed, pair_dictionary):
        # d = 4 allows 9 vectors, so 80 source1 rows repeat heavily and most
        # source2 rows tie between copies of one source1 vector
        rng = np.random.default_rng(40 + seed)
        candidate = make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, 10),
            rng.uniform(0, 3, 10),
        )
        source1 = make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, 80),
            rng.uniform(0, 3, 80),
        )
        y2 = rng.uniform(0, 3, 50)
        y2[rng.random(50) < 0.2] = np.nan
        source2 = make_dataset(pair_dictionary, random_one_hot(rng, pair_dictionary, 50), y2)
        graph = nested_match(source2, source1, candidate, tie_break="random", seed=seed)
        labeled_x = source2.x[~np.isnan(y2)]
        expected = nn_random_tie_oracle(labeled_x, source1.x, seed)
        assert graph.mu2.n_unique_target < source1.n_samples
        mu2 = future_match(source2, source1, tie_break="random", seed=seed)
        assert np.array_equal(mu2.target_index, expected)
        assert graph.mu2.diagnostics() == mu2.diagnostics()
        assert_source1_sums(graph, source2, expected)
        assert not np.array_equal(expected, nn_scan_oracle(labeled_x, source1.x)[0])

    def test_unlabeled_source2_dropped(self, single_dictionary):
        source2 = make_dataset(
            single_dictionary, [[1, 0], [0, 1], [1, 0]], [1.0, np.nan, 3.0]
        )
        # the unlabeled row would match source1 row 1
        source1 = make_dataset(single_dictionary, [[1, 0], [0, 1]], [2.0, 2.0])
        graph = nested_match(source2, source1, source1)
        assert graph.n_source2 == 2
        assert graph.source2_counts.tolist() == [2, 0]  # rows 0 and 2
        assert graph.source2_sums.tolist() == [4.0, 0.0]  # their targets 1 and 3

    def test_all_labeled_source2_is_not_copied(self, single_dictionary):
        source2 = make_dataset(single_dictionary, [[1, 0], [0, 1], [1, 0]], [1.0, 2.0, 3.0])
        ds = make_dataset(single_dictionary, [[1, 0]], [2.0])
        graph = nested_match(source2, ds, ds)
        assert graph.n_source2 == graph.mu2.n_query == 3
        # no per-row array of source2: the graph holds source1-long sums
        arrays = [v for v in vars(graph).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.shape == (1,) for a in arrays)
        assert graph.source2_counts.tolist() == [3] and graph.source2_sums.tolist() == [6.0]

    def test_fully_unlabeled_source2_rejected(self, single_dictionary):
        source2 = make_dataset(single_dictionary, [[1, 0]], [np.nan])
        ds = make_dataset(single_dictionary, [[1, 0]], [2.0])
        with pytest.raises(MatchError, match="no labeled"):
            nested_match(source2, ds, ds)

    def test_graph_edges_are_total(self, pair_dictionary):
        rng = np.random.default_rng(8)
        mk = lambda n: make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, n),
            rng.uniform(0, 2, n),
        )
        source2, source1 = mk(12), mk(9)
        graph = nested_match(source2, source1, mk(6))
        mu2 = future_match(source2, source1)
        assert graph.mu1.n == 9 and mu2.n == graph.mu2.n_query == 12
        assert (graph.mu1.target_index < len(graph.buckets)).all()
        assert (mu2.target_index < 9).all()
        assert graph.source2_counts.shape == (9,) and graph.source2_counts.sum() == 12


class TestSynthesize:
    def test_single_chain_collapses(self, single_dictionary):
        ds = make_dataset(single_dictionary, [[1, 0]], [2.0])
        graph = nested_match(ds, ds, ds)
        out = synthesize(graph, 1.0, 1.0)
        assert out.n_entries == 1
        assert out.y.tolist() == [2.0]

    def test_hand_computed_weighted_average(self, single_dictionary):
        # one bucket; one matched sample s; two donors g with y = 1 and 3
        candidate = make_dataset(single_dictionary, [[1, 0]], [0.0])
        source1 = make_dataset(single_dictionary, [[1, 0]], [0.0])
        source2 = make_dataset(single_dictionary, [[1, 0], [1, 0]], [1.0, 3.0])
        graph = nested_match(source2, source1, candidate)
        out = synthesize(graph, 2.0, 0.5)
        assert out.y.tolist() == [pytest.approx(2.0)]  # 2 * 0.5 * mean(1, 3)
        assert out.n_matched_samples.tolist() == [1]
        assert out.n_matched_donors.tolist() == [2]

    def test_identity_fixpoint_distinct_vectors(self, pair_dictionary):
        rng = np.random.default_rng(3)
        # distinct covariate vectors so each bucket matches exactly one sample
        x = np.unique(random_one_hot(rng, pair_dictionary, 40), axis=0)
        y = rng.uniform(0, 4, x.shape[0])
        ds = make_dataset(pair_dictionary, x, y)
        graph = nested_match(ds, ds, ds)
        out = synthesize(graph, 1.0, 1.0)
        buckets = build_buckets(ds)
        assert out.n_entries == len(buckets)
        np.testing.assert_allclose(np.sort(out.y), np.sort(buckets.y_mean), atol=1e-9)
        # entry vectors carry their bucket's covariates
        assert np.array_equal(out.words, buckets.words[out.bucket_index])

    def test_duplicate_vectors_divide_by_matched_count(self, single_dictionary):
        # identical triple with a duplicated vector: every donor matches the
        # first source1 sample, the second contributes zero, and the default
        # normalization divides by both matched samples
        ds = make_dataset(single_dictionary, [[1, 0], [1, 0]], [2.0, 4.0])
        graph = nested_match(ds, ds, ds)
        out = synthesize(graph, 1.0, 1.0)
        assert out.n_entries == 1
        assert out.y[0] == pytest.approx(3.0 / 2)  # bucket mean over |S| = 2

    def test_literal_norm_divides_by_all_source1(self, single_dictionary):
        candidate = make_dataset(single_dictionary, [[1, 0], [0, 1]], [1.0, 1.0])
        source1 = make_dataset(single_dictionary, [[1, 0], [0, 1], [0, 1]], [0, 0, 0])
        source2 = make_dataset(single_dictionary, [[1, 0]], [6.0])
        graph = nested_match(source2, source1, candidate)
        default = synthesize(graph, 1.0, 1.0)
        literal = synthesize(graph, 1.0, 1.0, literal_v2_norm=True)
        assert default.y[0] == pytest.approx(6.0)  # |S| = 1 for the reached bucket
        assert literal.y[0] == pytest.approx(6.0 / 3)  # |source1| = 3

    def test_reachability_filter_matches_traversal(self, pair_dictionary):
        rng = np.random.default_rng(17)
        mk = lambda n: make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, n),
            rng.uniform(0, 2, n),
        )
        source2, source1 = mk(8), mk(25)
        graph = nested_match(source2, source1, mk(40))
        out = synthesize(graph, *graph.default_weights())
        mu2 = future_match(source2, source1)
        assert set(out.bucket_index.tolist()) == reachable_oracle(graph, mu2.target_index)

    def test_linearity_in_donor_targets(self, pair_dictionary):
        rng = np.random.default_rng(23)
        mk = lambda n, y: make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, n), y
        )
        candidate = mk(15, rng.uniform(0, 3, 15))
        source1 = mk(12, np.zeros(12))
        y2 = rng.uniform(0, 3, 9)
        x2 = random_one_hot(rng, pair_dictionary, 9)
        base = generate_future(
            make_dataset(pair_dictionary, x2, y2), source1, candidate
        )
        scaled = generate_future(
            make_dataset(pair_dictionary, x2, 3.0 * y2), source1, candidate
        )
        assert np.array_equal(base.bucket_index, scaled.bucket_index)
        np.testing.assert_allclose(scaled.y, 3.0 * base.y, atol=1e-9)

    def test_output_monotone_in_source2(self, pair_dictionary):
        rng = np.random.default_rng(29)
        candidate = make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, 20),
            rng.uniform(0, 2, 20),
        )
        source1 = make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, 15),
            np.zeros(15),
        )
        x2 = random_one_hot(rng, pair_dictionary, 10)
        y2 = rng.uniform(0, 2, 10)
        small = generate_future(
            make_dataset(pair_dictionary, x2[:4], y2[:4]), source1, candidate
        )
        large = generate_future(
            make_dataset(pair_dictionary, x2, y2), source1, candidate
        )
        assert set(small.bucket_index.tolist()) <= set(large.bucket_index.tolist())

    def test_nonpositive_weights_rejected(self, single_dictionary):
        ds = make_dataset(single_dictionary, [[1, 0]], [1.0])
        graph = nested_match(ds, ds, ds)
        with pytest.raises(DataError):
            synthesize(graph, 0.0, 1.0)
        with pytest.raises(DataError):
            synthesize(graph, 1.0, -2.0)

    def test_synthesized_targets_nonnegative(self, pair_dictionary):
        rng = np.random.default_rng(31)
        mk = lambda n: make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, n),
            rng.uniform(0, 5, n),
        )
        out = generate_future(mk(30), mk(20), mk(25))
        assert (out.y >= 0).all()

    def test_default_weights_use_labeled_source2(self, single_dictionary):
        candidate = make_dataset(single_dictionary, [[1, 0], [0, 1]], [1.0, 2.0])
        source1 = make_dataset(single_dictionary, [[1, 0]] * 4, [0.0] * 4)
        source2 = make_dataset(
            single_dictionary, [[1, 0]] * 6, [1.0, np.nan, 2.0, np.nan, np.nan, 3.0]
        )
        graph = nested_match(source2, source1, candidate)
        w1, w2 = graph.default_weights()
        assert w1 == 4 / 2
        assert w2 == 3 / 4  # three labeled source2 samples

    def test_covered_households(self, single_dictionary):
        candidate = make_dataset(
            single_dictionary,
            [[1, 0], [1, 0], [0, 1]],
            [1.0, 2.0, 3.0],
            household_ids=["hA", "hB", "hC"],
        )
        source1 = make_dataset(single_dictionary, [[1, 0]], [0.0])
        source2 = make_dataset(single_dictionary, [[1, 0]], [1.0])
        out = generate_future(source2, source1, candidate)
        # only the [1,0] bucket is reachable; its members are hA and hB
        assert out.covered_households == ("hA", "hB")

    def test_to_encoded_dataset_round_trip(self, pair_dictionary, tmp_path):
        rng = np.random.default_rng(37)
        mk = lambda n: make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, n),
            rng.uniform(0, 2, n),
        )
        out = generate_future(mk(12), mk(10), mk(14))
        ds = out.to_encoded_dataset("synthetic-2021", 2021)
        assert ds.n_samples == out.n_entries
        assert np.array_equal(ds.words, out.words)
        np.testing.assert_allclose(ds.y, out.y)
        path = tmp_path / "synth.enc"
        ds.save(path)
        from surveyfuse import EncodedDataset

        assert EncodedDataset.load(path).n_samples == out.n_entries


class TestWholeFormula:
    """``generate_future`` against a per-row oracle of the whole formula,
    with non-integer targets, so a changed summation order shows, and at
    query blocks of 1, 3 and 64 rows."""

    DICTIONARY = FeatureDictionary(
        features=("A", "B", "C"), categories=(("a", "b", "c"), ("i", "j"), ("u", "v", "w"))
    )

    @pytest.mark.parametrize("block", [1, 3, 64])
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(st.integers(1, 12), st.integers(1, 30), st.integers(1, 90)),
        tie_break=st.sampled_from(["index", "random"]),
        literal=st.booleans(),
    )
    def test_matches_oracle(self, block, seed, sizes, tie_break, literal):
        rng = np.random.default_rng(seed)
        n_c, n_1, n_2 = sizes
        mk = lambda n, y: make_dataset(self.DICTIONARY, random_one_hot(rng, self.DICTIONARY, n), y)
        candidate = mk(n_c, rng.uniform(0, 5, n_c))
        source1 = mk(n_1, rng.uniform(0, 5, n_1))
        y2 = rng.uniform(0, 5, n_2)  # non-integer: float sums depend on their order
        y2[rng.random(n_2) < 0.3] = np.nan
        y2[rng.integers(0, n_2)] = rng.uniform(0, 5)  # at least one labeled
        source2 = mk(n_2, y2)
        tie_seed = seed % 1000 if tie_break == "random" else None
        with mock.patch.object(matching, "_QUERY_BLOCK", block):
            out = generate_future(
                source2, source1, candidate,
                literal_v2_norm=literal, tie_break=tie_break, seed=tie_seed,
            )
        expected = synthesis_oracle(
            source2.x, y2, source1.x, candidate.x, literal_v2_norm=literal, seed=tie_seed
        )
        assert out.bucket_index.tolist() == [e[0] for e in expected]
        assert out.y.tolist() == [e[1] for e in expected]  # bit for bit
        assert out.n_matched_samples.tolist() == [e[2] for e in expected]
        assert out.n_matched_donors.tolist() == [e[3] for e in expected]
