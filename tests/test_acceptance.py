"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -rA to see them).

Criteria that involve randomness pin their seeds; criteria with runtime
budgets measure wall-clock time and assert against the budget.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import surveyfuse
from surveyfuse import (
    baseline_mean_impute,
    build_buckets,
    demo_model,
    generate,
    generate_future,
    impute,
    nearest_rows,
    nested_match,
    shapley,
    sorted_mse,
    subsample_compare,
    synthesize,
)
from surveyfuse import BucketMeanPredictor, attribute_dataset
from surveyfuse.datagen import PopulationModel
from surveyfuse.dataset import household_sums, pack_rows
from surveyfuse.matching import augment_candidate
from surveyfuse.schema import FeatureDictionary
from conftest import make_dataset, random_one_hot
from oracles import bucket_oracle, hamming, nn_scan_oracle, shapley_permutation_oracle


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] FAIL - {description}")
        raise
    print(f"[criterion {number:2d}] PASS - {description}")


def one_hot_dataset(rng, model, n_households, survey_id, missingness=None):
    if missingness is not None:
        model = PopulationModel(**{**model.__dict__, "missingness": missingness})
    return generate(model, n_households, survey_id, 2017, seed=int(rng.integers(2**31)))


def row_distances(a, b):
    """Plain elementwise distance, used to vectorize the axiom checks."""
    return (a != b).sum(axis=1) / a.shape[1]


def test_criterion_1_hamming_metric_axioms():
    with criterion(1, "Hamming metric axioms on 10,000 triples per d in {8, 26, 64}"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1001)
        for d in (8, 26, 64):
            a = rng.integers(0, 2, size=(10_000, d), dtype=np.uint8)
            b = rng.integers(0, 2, size=(10_000, d), dtype=np.uint8)
            c = rng.integers(0, 2, size=(10_000, d), dtype=np.uint8)
            ab, ba = row_distances(a, b), row_distances(b, a)
            ac, bc = row_distances(a, c), row_distances(b, c)
            aa = row_distances(a, a)
            assert (ab >= 0).all() and (ab <= 1).all()
            assert np.array_equal(ab, ba)  # symmetry
            assert (aa == 0).all()  # identity
            equal_rows = (a == b).all(axis=1)
            assert np.array_equal(ab == 0, equal_rows)  # indiscernibles
            assert (ac <= ab + bc + 1e-12).all()  # triangle inequality
            # the vectorized distances agree with the per-vector hamming oracle
            for i in rng.integers(0, 10_000, size=200):
                assert hamming(a[i], b[i]) == ab[i]
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_2_nearest_neighbor_oracle_equivalence():
    with criterion(2, "NN equals exhaustive-scan oracle on 200 instances"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1002)
        d = 26
        for _ in range(200):
            n_src = int(rng.integers(1, 201))
            n_cand = int(rng.integers(1, 101))
            src = rng.integers(0, 2, size=(n_src, d), dtype=np.uint8)
            tgt = np.unique(rng.integers(0, 2, size=(n_cand, d), dtype=np.uint8), axis=0)
            scan = nearest_rows(pack_rows(src), pack_rows(tgt), dimension=d)
            oidx, odist = nn_scan_oracle(src, tgt)
            assert np.array_equal(scan.distance, odist), "scan distance != oracle minimum"
            assert np.array_equal(scan.target_index, oidx), "scan tie-break != oracle"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


def test_criterion_3_bucketing_exactness(pair_dictionary):
    with criterion(3, "bucket counts partition the donors and means are exact (1e-12)"):
        rng = np.random.default_rng(1003)
        for _ in range(100):
            n = int(rng.integers(1, 400))
            x = random_one_hot(rng, pair_dictionary, n, missing_rate=0.25)
            y = rng.uniform(0, 8, n)
            ds = make_dataset(pair_dictionary, x, y)
            buckets = build_buckets(ds)
            assert int(buckets.member_count.sum()) == n
            _, ocounts, omeans = bucket_oracle(x, y)
            assert buckets.member_count.tolist() == ocounts.tolist()
            assert np.abs(buckets.y_mean - omeans).max() <= 1e-12


def test_criterion_4_self_imputation_identity():
    with criterion(4, "impute(ds, ds) in impute-all mode reproduces household totals (1e-9)"):
        # deterministic targets: samples sharing a covariate vector share y
        model = demo_model(missingness=0.0, seed=44, target_noise="none")
        full, _ = generate(model, 300, "self", 2017, seed=44)
        res = impute(full, full, impute_all=True)
        assert res.weight == 1.0
        truth = full.household_totals()
        got = res.household_totals()
        assert set(got) == set(truth)
        for h, t in truth.items():
            assert abs(got[h] - t) <= 1e-9


def test_criterion_5_planted_truth_recovery():
    with criterion(5, "NN imputation beats mean baseline on planted truth, 5 seeds"):
        t0 = time.perf_counter()
        for seed in range(5):
            model_src = demo_model(missingness=0.96, seed=seed)
            model_donor = demo_model(missingness=0.0, seed=1000 + seed)
            full_src, observed_src = generate(model_src, 2000, "src", 2017, seed=seed)
            donor, _ = generate(model_donor, 2000, "donor", 2017, seed=1000 + seed)

            pool = augment_candidate(observed_src, donor)
            matched = impute(observed_src, pool)
            baseline = baseline_mean_impute(observed_src)

            oracle = full_src.household_totals()
            matched_totals = matched.household_totals()
            baseline_totals = baseline.household_totals()
            order = list(oracle)
            truth_vals = np.array([oracle[h] for h in order])
            matched_vals = np.array([matched_totals[h] for h in order])
            baseline_vals = np.array([baseline_totals[h] for h in order])
            mse_matched = sorted_mse(matched_vals, truth_vals)
            mse_baseline = sorted_mse(baseline_vals, truth_vals)
            assert mse_matched < mse_baseline, (
                f"seed {seed}: matching {mse_matched:.4f} "
                f"not below baseline {mse_baseline:.4f}"
            )
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"


def test_criterion_6_synthesis_identity_and_linearity(pair_dictionary):
    with criterion(6, "synthesis identity fixpoint and linearity (1e-9)"):
        rng = np.random.default_rng(1006)
        # identity fixpoint on distinct covariate vectors
        x = np.unique(random_one_hot(rng, pair_dictionary, 60), axis=0)
        y = rng.uniform(0, 5, x.shape[0])
        ds = make_dataset(pair_dictionary, x, y)
        graph = nested_match(ds, ds, ds)
        # each sample is its own nearest source1 row: one count, its own target
        mu2_idx, _ = nn_scan_oracle(ds.x, ds.x)
        assert np.array_equal(graph.source2_counts, np.bincount(mu2_idx, minlength=ds.n_samples))
        assert np.array_equal(graph.source2_sums, np.bincount(mu2_idx, weights=y, minlength=ds.n_samples))
        out = synthesize(graph, 1.0, 1.0)
        buckets = build_buckets(ds)
        assert out.n_entries == len(buckets)
        means = buckets.y_mean[out.bucket_index]
        assert np.abs(out.y - means).max() <= 1e-9

        # linearity: scaling all future-year targets by 3 scales the output by 3
        candidate = make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, 40),
            rng.uniform(0, 4, 40),
        )
        source1 = make_dataset(
            pair_dictionary, random_one_hot(rng, pair_dictionary, 30), np.zeros(30)
        )
        x2 = random_one_hot(rng, pair_dictionary, 25)
        y2 = rng.uniform(0, 4, 25)
        base = generate_future(make_dataset(pair_dictionary, x2, y2), source1, candidate)
        scaled = generate_future(
            make_dataset(pair_dictionary, x2, 3.0 * y2), source1, candidate
        )
        assert np.array_equal(base.bucket_index, scaled.bucket_index)
        assert np.abs(scaled.y - 3.0 * base.y).max() <= 1e-9


def test_criterion_7_shapley_axioms(pair_dictionary):
    with criterion(7, "Shapley efficiency (1e-9) plus null player and linearity vs enumeration"):
        # efficiency on every evaluated sample of a generated survey
        model = demo_model(missingness=0.0, seed=77)
        donor, _ = generate(model, 150, "donor", 2017, seed=77)
        data, _ = generate(model, 60, "data", 2017, seed=78)
        predictor = BucketMeanPredictor(donor)
        report = attribute_dataset(data, predictor, sample_limit=40, seed=7)
        assert report.n_evaluated == 40
        assert report.efficiency_max_error <= 1e-9

        # null player and linearity on explicit <= 4-feature games
        rng = np.random.default_rng(1007)
        four = FeatureDictionary(
            features=("A", "B", "C", "D"), categories=(("a", "b"),) * 4
        )

        def game(table):
            def predictor(x, active):
                row = [table[sum(1 << j for j in np.flatnonzero(a))] for a in active]
                return np.tile(row, (len(x), 1))

            return predictor

        f = {bits: float(rng.uniform(-2, 2)) for bits in range(16)}
        g = {bits: float(rng.uniform(-2, 2)) for bits in range(16)}
        # force D to be a null player of f: value ignores bit 3
        f = {bits: f[bits & 0b0111] for bits in range(16)}
        x = np.zeros(8, np.uint8)
        phi_f = shapley(x[None], game(f), four)[0]
        phi_g = shapley(x[None], game(g), four)[0]
        assert abs(phi_f[3]) <= 1e-12  # null player
        fg = {bits: f[bits] + g[bits] for bits in range(16)}
        assert np.abs(shapley(x[None], game(fg), four)[0] - (phi_f + phi_g)).max() <= 1e-9
        # both agree with full permutation enumeration
        assert np.abs(
            phi_f - shapley_permutation_oracle(x, game(f), four)
        ).max() <= 1e-9


STOCHASTIC_COMMANDS = ("gen", "impute-random", "evaluate", "spike", "attribute", "synthesize")


# The child must import the same package the tests imported, installed or
# loaded from src/; a relative PYTHONPATH would not resolve from cwd=tmp_path.
_PACKAGE_ROOT = str(Path(surveyfuse.__file__).resolve().parent.parent)


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return env


def _run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "surveyfuse.cli", *[str(a) for a in args]],
        cwd=cwd,
        env=_cli_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "stochastic subcommands are byte-identical across reruns and thread counts"):
        base = tmp_path / "inputs"
        base.mkdir()
        _run_cli(
            ["gen", "--households", 120, "--seed", 5,
             "--out-full", base / "full.enc", "--out-missing", base / "missing.enc"],
            tmp_path,
        )
        _run_cli(
            ["gen", "--households", 40, "--seed", 6,
             "--out-full", base / "cand.enc", "--out-missing", base / "cand-m.enc"],
            tmp_path,
        )
        _run_cli(
            ["impute", "--source", base / "missing.enc", "--candidate", base / "full.enc",
             "--out", base / "totals.csv"],
            tmp_path,
        )
        totals = base / "totals.households.csv"

        def command(name, outdir):
            outdir.mkdir(exist_ok=True)
            if name == "gen":
                return (
                    ["gen", "--households", 80, "--seed", 11,
                     "--out-full", outdir / "f.enc", "--out-missing", outdir / "m.enc"],
                    [outdir / "f.enc", outdir / "m.enc"],
                )
            if name == "impute-random":
                return (
                    ["impute", "--source", base / "missing.enc",
                     "--candidate", base / "full.enc", "--tie-break", "random",
                     "--seed", 11, "--out", outdir / "i.csv"],
                    [outdir / "i.csv", outdir / "i.households.csv"],
                )
            if name == "evaluate":
                return (
                    ["evaluate", "--imputed", totals, "--truth", totals,
                     "--cutoffs", "10,20", "--seed", 11, "--out", outdir / "e.json"],
                    [outdir / "e.json"],
                )
            if name == "spike":
                return (
                    ["spike", "--a", totals, "--b", totals, "--n", 30,
                     "--seed", 11, "--out", outdir / "s.json"],
                    [outdir / "s.json"],
                )
            if name == "attribute":
                return (
                    ["attribute", "--data", base / "missing.enc",
                     "--candidate", base / "full.enc", "--limit", 5,
                     "--seed", 11, "--out", outdir / "a.json"],
                    [outdir / "a.json"],
                )
            return (
                ["synthesize", "--source2", base / "missing.enc",
                 "--source1", base / "full.enc", "--candidate", base / "cand.enc",
                 "--out", outdir / "y.enc"],
                [outdir / "y.enc", outdir / "y.provenance.csv"],
            )

        for name in STOCHASTIC_COMMANDS:
            blobs = []
            for label, threads in (("run1-t1", 1), ("run2-t1", 1), ("run3-t8", 8)):
                args, outputs = command(name, tmp_path / f"{name}-{label}")
                _run_cli(args + ["--threads", threads], tmp_path)
                blobs.append(b"".join(p.read_bytes() for p in outputs))
            assert blobs[0] == blobs[1], f"{name}: rerun differs"
            assert blobs[0] == blobs[2], f"{name}: thread count changes output"


def test_criterion_9_scale_imputation():
    with criterion(9, "impute 364,000 x 8,000 at d = 26 under 120 s"):
        model = demo_model(missingness=0.96, seed=99)
        model = PopulationModel(**{**model.__dict__, "covariate_missingness": 0.15})
        full_src, observed_src = generate(model, 130_000, "big-src", 2017, seed=99)
        assert observed_src.n_samples >= 364_000
        source = observed_src.subset(np.arange(364_000))

        donor_model = PopulationModel(
            **{**model.__dict__, "missingness": 0.0}
        )
        donor_full, _ = generate(donor_model, 3_000, "big-donor", 2017, seed=100)
        assert donor_full.n_samples >= 8_000
        candidate = donor_full.subset(np.arange(8_000))
        assert source.dictionary.dimension == 26

        t0 = time.perf_counter()
        result = impute(source, candidate)
        elapsed = time.perf_counter() - t0
        assert result.sample_y.shape == (364_000,)
        assert (result.sample_y >= 0).all()
        assert elapsed < 120.0, f"took {elapsed:.2f}s, budget 120s"
        print(f"    (scale run completed in {elapsed:.2f}s; w = {result.weight:.2f})")


def test_criterion_10_evaluation_protocol():
    with criterion(10, "identical inputs give MSE 0; mean-MSE noise shrinks 100 -> 500"):
        model = demo_model(missingness=0.96, seed=10)
        donor_model = demo_model(missingness=0.0, seed=110)
        full_src, observed_src = generate(model, 600, "src", 2017, seed=10)
        donor, _ = generate(donor_model, 400, "donor", 2017, seed=110)

        truth = household_sums(donor.households, donor.y, donor.household_code)
        n = truth[0].size

        # identical inputs -> exactly zero at every cutoff
        self_report = subsample_compare(truth, truth, n=n, seed=3)
        assert all(c.mse_mean == 0.0 for c in self_report.per_cutoff)

        # real comparison: the standard error of the mean MSE shrinks with depth
        pool = augment_candidate(observed_src, donor)
        res = impute(observed_src, pool)
        report = subsample_compare((res.household_ids, res.household_y), truth, n=n, seed=3)
        by_cutoff = {c.cutoff: c for c in report.per_cutoff}
        assert by_cutoff[500].mse_stderr <= by_cutoff[100].mse_stderr
