import numpy as np
import pytest

from surveyfuse import attribution
from surveyfuse import (
    BucketMeanPredictor,
    FeatureDictionary,
    FusionError,
    attribute_dataset,
    shapley,
)
from conftest import make_dataset, random_one_hot
from oracles import (
    attribution_entries_oracle,
    bucket_oracle,
    nn_scan_oracle,
    shapley_permutation_oracle,
)

two = FeatureDictionary(features=("A", "B"), categories=(("c", "d"), ("i", "j")))
three = FeatureDictionary(
    features=("A", "B", "C"), categories=(("a1", "a2"), ("b1", "b2"), ("c1", "c2"))
)
four = FeatureDictionary(
    features=("A", "B", "C", "D"),
    categories=(("a1", "a2"),) * 4,
)


def per_coalition(value):
    """(n, c) predictor table from ``value(active row)``, the same for every sample."""
    return lambda x, active: np.tile([value(a) for a in active], (len(x), 1))


def table_game(values_by_mask):
    """Predictor defined by a coalition -> value table (players as bitmask)."""
    return per_coalition(lambda a: values_by_mask[sum(1 << j for j in np.flatnonzero(a))])


class TestShapleyAxioms:
    def test_null_game_is_all_zero(self):
        predictor = per_coalition(lambda a: 7.5)  # ignores every feature
        phi = shapley(np.zeros((1, 4), np.uint8), predictor, two)
        assert phi.tolist() == [[0.0, 0.0]]

    def test_two_feature_hand_enumeration(self):
        # v({}) = 0, v({A}) = 3, v({B}) = 1, v({A,B}) = 4
        # phi_A = ((3 - 0) + (4 - 1)) / 2 = 3; phi_B = ((1 - 0) + (4 - 3)) / 2 = 1
        predictor = table_game({0b00: 0.0, 0b01: 3.0, 0b10: 1.0, 0b11: 4.0})
        phi = shapley(np.zeros((1, 4), np.uint8), predictor, two)
        np.testing.assert_allclose(phi, [[3.0, 1.0]])

    def test_efficiency(self):
        rng = np.random.default_rng(0)
        values = {bits: float(rng.uniform(-2, 2)) for bits in range(8)}
        predictor = table_game(values)
        phi = shapley(np.zeros((1, 6), np.uint8), predictor, three)[0]
        assert phi.sum() == pytest.approx(values[0b111] - values[0b000], abs=1e-9)

    def test_symmetry(self):
        # v depends only on |coalition|: all players interchangeable
        predictor = per_coalition(lambda a: float(a.sum()) ** 2)
        phi = shapley(np.zeros((1, 6), np.uint8), predictor, three)[0]
        assert phi[0] == pytest.approx(phi[1]) == pytest.approx(phi[2])

    def test_linearity_of_games(self):
        rng = np.random.default_rng(1)
        f = {bits: float(rng.uniform(-1, 1)) for bits in range(8)}
        g = {bits: float(rng.uniform(-1, 1)) for bits in range(8)}
        fg = {bits: f[bits] + g[bits] for bits in range(8)}
        x = np.zeros((1, 6), np.uint8)
        np.testing.assert_allclose(
            shapley(x, table_game(fg), three),
            shapley(x, table_game(f), three) + shapley(x, table_game(g), three),
            atol=1e-9,
        )

    def test_additive_game_closed_form(self):
        # f(x, S) = g_A(A in S ? cat : off) + g_B(...): each feature's value is
        # its own marginal regardless of coalition
        g_a = {True: 2.5, False: 0.5}
        g_b = {True: -1.0, False: 0.25}

        predictor = per_coalition(lambda a: g_a[bool(a[0])] + g_b[bool(a[1])])

        phi = shapley(np.zeros((1, 4), np.uint8), predictor, two)
        np.testing.assert_allclose(
            phi, [[g_a[True] - g_a[False], g_b[True] - g_b[False]]]
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_permutation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dictionary = three if seed % 2 else four
        m = dictionary.n_features
        values = {bits: float(rng.uniform(-3, 3)) for bits in range(1 << m)}
        predictor = table_game(values)
        x = np.zeros(dictionary.dimension, np.uint8)
        np.testing.assert_allclose(
            shapley(x[None], predictor, dictionary)[0],
            shapley_permutation_oracle(x, predictor, dictionary),
            atol=1e-9,
        )

    def test_null_player(self):
        rng = np.random.default_rng(2)
        # value ignores player 2 entirely
        base = {bits: float(rng.uniform(0, 1)) for bits in range(4)}
        predictor = table_game(
            {bits: base[bits & 0b011] for bits in range(8)}
        )
        phi = shapley(np.zeros((1, 6), np.uint8), predictor, three)[0]
        assert phi[2] == pytest.approx(0.0, abs=1e-12)

    def test_feature_cap(self):
        big = FeatureDictionary(
            features=tuple(f"f{i}" for i in range(13)),
            categories=(("a", "b"),) * 13,
        )
        with pytest.raises(FusionError, match="12"):
            shapley(np.zeros((1, 26), np.uint8), per_coalition(lambda a: 0.0), big)


class TestBucketMeanPredictor:
    def build(self, pair_dictionary):
        # donors: (A=c, B=i) -> 4, (A=d, B=i) -> 2, (A=c, B=j) -> 0
        candidate = make_dataset(
            pair_dictionary,
            [[1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]],
            [4.0, 2.0, 0.0],
        )
        return BucketMeanPredictor(candidate)

    def test_full_mask_nearest_bucket(self, pair_dictionary):
        p = self.build(pair_dictionary)
        x = np.array([[1, 0, 1, 0]], np.uint8)
        assert p(x, np.array([[True, True]])).tolist() == [[4.0]]

    def test_empty_mask_global_mean(self, pair_dictionary):
        p = self.build(pair_dictionary)
        x = np.array([[1, 0, 1, 0]], np.uint8)
        assert p(x, np.array([[False, False]]))[0, 0] == pytest.approx(2.0)

    def test_masked_feature_group_zeroed(self, pair_dictionary):
        p = self.build(pair_dictionary)
        x = np.array([[0, 1, 1, 0]], np.uint8)  # A=d, B=i
        # masking A zeroes its group: [0,0,1,0]; nearest donors are the two
        # B=i rows at distance 1/4 each; tie resolves to the first (y = 4)
        assert p(x, np.array([[False, True]])).tolist() == [[4.0]]

    def test_prediction_deterministic(self, pair_dictionary):
        p = self.build(pair_dictionary)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.integers(0, 2, (3, 4)).astype(np.uint8)
            active = rng.integers(0, 2, (4, 2)).astype(bool)
            assert np.array_equal(p(x, active), p(x, active))

    def test_table_matches_unpacked_oracles(self):
        # every (sample, coalition) cell equals the bucket mean of the nearest
        # oracle bucket to the sample with inactive groups zeroed, and the
        # global mean for the empty coalition; few donors force distance ties
        rng = np.random.default_rng(11)
        m = four.n_features
        candidate = make_dataset(
            four, random_one_hot(rng, four, 9, missing_rate=0.3), rng.uniform(0, 3, 9)
        )
        x = random_one_hot(rng, four, 12, missing_rate=0.3).astype(np.uint8)
        active = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(bool)
        table = BucketMeanPredictor(candidate)(x, active)

        bucket_x, _, bucket_mean = bucket_oracle(candidate.x, candidate.y)
        slices = four.group_slices()
        ties = 0
        expected = np.empty((x.shape[0], active.shape[0]))
        for i, row in enumerate(x):
            for b, a in enumerate(active):
                if not a.any():
                    expected[i, b] = candidate.y.mean()
                    continue
                masked = np.zeros_like(row)
                for j in np.flatnonzero(a):
                    masked[slices[j]] = row[slices[j]]
                (idx,), _ = nn_scan_oracle(masked[None], bucket_x)
                expected[i, b] = bucket_mean[idx]
                counts = (masked[None] != bucket_x).sum(axis=1)
                ties += int((counts == counts.min()).sum() > 1)
        assert ties > 0
        assert np.array_equal(table, expected)


class TestAttributeDataset:
    def test_constant_predictor_all_zero(self, pair_dictionary):
        rng = np.random.default_rng(1)
        ds = make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, 20),
            rng.uniform(0, 2, 20),
        )
        report = attribute_dataset(
            ds, per_coalition(lambda a: 1.0), sample_limit=10, seed=0
        )
        assert all(e.mean_value == 0.0 for e in report.entries)
        assert report.efficiency_max_error == 0.0

    def test_dominant_feature_dominates(self):
        # deliveries determined entirely by the first feature
        dictionary = FeatureDictionary(
            features=("Income", "Age"),
            categories=(("high", "low"), ("young", "old")),
        )
        rng = np.random.default_rng(3)
        x = random_one_hot(rng, dictionary, 200, missing_rate=0.0)
        y = np.where(x[:, 0] == 1, 5.0, 0.0)
        ds = make_dataset(dictionary, x, y)
        predictor = BucketMeanPredictor(ds)
        report = attribute_dataset(ds, predictor, sample_limit=60, seed=1)
        by_feature = {}
        for e in report.entries:
            by_feature.setdefault(e.feature, []).append(abs(e.mean_value))
        assert max(by_feature["Income"]) > max(by_feature["Age"])

    def test_limit_covers_every_sample_once(self, pair_dictionary):
        rng = np.random.default_rng(4)
        ds = make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, 12),
            rng.uniform(0, 2, 12),
        )
        report = attribute_dataset(
            ds, per_coalition(lambda a: float(a.sum())), sample_limit=50, seed=2
        )
        assert report.n_evaluated == 12
        assert sum(e.n_samples for e in report.entries) == 12 * 2  # two features

    def test_efficiency_holds_with_bucket_mean_predictor(self, pair_dictionary):
        rng = np.random.default_rng(5)
        candidate = make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, 30),
            rng.uniform(0, 3, 30),
        )
        ds = make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, 25),
            rng.uniform(0, 3, 25),
        )
        report = attribute_dataset(
            ds, BucketMeanPredictor(candidate), sample_limit=25, seed=3
        )
        assert report.efficiency_max_error < 1e-9

    def test_zero_limit_evaluates_nothing(self, pair_dictionary):
        ds = make_dataset(pair_dictionary, [[1, 0, 0, 1], [0, 1, 1, 0]], [1.0, 2.0])
        report = attribute_dataset(ds, BucketMeanPredictor(ds), sample_limit=0, seed=0)
        assert (report.n_evaluated, report.entries, report.efficiency_max_error) == (0, [], 0.0)

    def test_missing_groups_aggregate_separately(self, pair_dictionary):
        ds = make_dataset(pair_dictionary, [[0, 0, 1, 0]], [1.0])
        report = attribute_dataset(
            ds, per_coalition(lambda a: 0.0), sample_limit=1, seed=0
        )
        cats = {(e.feature, e.category) for e in report.entries}
        assert ("A", "Missing") in cats
        assert ("B", "i") in cats

    def test_reproducible(self, pair_dictionary):
        rng = np.random.default_rng(6)
        ds = make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, 40),
            rng.uniform(0, 2, 40),
        )
        p = lambda x, a: x[:, :2].sum(axis=1)[:, None] * a[:, 0].astype(float)
        r1 = attribute_dataset(ds, p, sample_limit=10, seed=9)
        r2 = attribute_dataset(ds, p, sample_limit=10, seed=9)
        assert r1.to_json_dict() == r2.to_json_dict()


class TestAttributionAggregation:
    """``attribute_dataset``'s per-feature ``bincount`` against the per-cell dict loop."""

    # a feature without categories is always missing
    dictionary = FeatureDictionary(
        features=("A", "B", "C", "D", "E"),
        categories=(("a1", "a2", "a3"), ("b1", "b2"), ("c1", "c2", "c3", "c4"), (), ("e1",)),
    )

    def one_hot(self, rng, n):
        x = np.zeros((n, self.dictionary.dimension), dtype=np.uint8)
        for sl in self.dictionary.group_slices():
            width = sl.stop - sl.start
            hot = rng.integers(-1, width, n) if width else np.full(n, -1)
            rows = np.flatnonzero(hot >= 0)
            x[rows, sl.start + hot[rows]] = 1
        return x

    @pytest.mark.parametrize("values", ["small integers", "exact shapley"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_entries_match_the_oracle(self, monkeypatch, values, seed):
        rng = np.random.default_rng(seed)
        n = 80
        ds = make_dataset(self.dictionary, self.one_hot(rng, n), rng.uniform(0, 3, n))
        weights = rng.normal(size=self.dictionary.dimension)
        slices = self.dictionary.group_slices()

        def predictor(x, active):
            keep = np.repeat(active, [sl.stop - sl.start for sl in slices], axis=1)
            return np.sin((x[:, None, :] * keep) @ weights)

        seen = []

        def recorded_shapley(x, predictor, dictionary):
            if values == "exact shapley":
                phis = shapley(x, predictor, dictionary)
            else:  # few values over few samples: groups tie on |mean|, some with opposite signs
                phis = rng.integers(-2, 3, (x.shape[0], dictionary.n_features)) / 2.0
            seen.append((x.copy(), phis))
            return phis

        monkeypatch.setattr(attribution, "shapley", recorded_shapley)
        report = attribute_dataset(ds, predictor, sample_limit=12, seed=seed)
        (xs, phis), = seen
        want = attribution_entries_oracle(xs, phis, self.dictionary)
        got = [(e.feature, e.category, e.mean_value, e.n_samples) for e in report.entries]
        assert [(f, c, m.hex(), k) for f, c, m, k in got] == [
            (f, c, float(m).hex(), k) for f, c, m, k in want
        ]
        assert all(type(m) is float and type(k) is int for _, _, m, k in got)
        assert ("D", "Missing", 12) in {(f, c, k) for f, c, _, k in got}
        if values == "small integers":
            assert any(abs(a[2]) == abs(b[2]) for a, b in zip(want, want[1:]))
