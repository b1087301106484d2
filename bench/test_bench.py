"""Self-tests of the benchmark at a tiny input size.

Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from surveyfuse.schema import build_dictionary, load_default_spec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = list(workloads.WORKLOADS)


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def test_workloads_match_benchmark_json_and_pins():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    pinned = json.loads((BENCH / "pinned.json").read_text(encoding="utf-8"))
    assert list(pinned["workloads"]) == NAMES
    for name, w in workloads.WORKLOADS.items():
        assert pinned["workloads"][name]["threads"] == w.threads
        assert set(pinned["workloads"][name]["artifacts"]) == {rel for _, rel in w.artifacts}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_every_metric(name, trace):
    result = workloads.run(workloads.WORKLOADS[name], 5, 0.0, trace, ROOT, size=inputs.TINY)
    problems = [p for s in result.samples for ps in s.failures.values() for p in ps]
    assert result.correct, problems + result.problems
    assert result.failed == 0 and result.attempted >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result.metrics.items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result.metrics.values())


# Semantic corruptions that each workload's content check must catch.
def _bump_first_total(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    hid, total = lines[1].split(",")
    lines[1] = f"{hid},{float(total) + 1.0!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _zero_first_n_s(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    fields[1] = "0"
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _break_efficiency(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    report["efficiency_max_error"] = 1.0
    path.write_text(json.dumps(report), encoding="utf-8")


def _flip_middle_byte(path: Path) -> None:
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


CORRUPTIONS = {
    "impute-ref": ("out/imputed.households.csv", _bump_first_total),
    "synth-future": ("out/synthetic.provenance.csv", _zero_first_n_s),
    "attribute-500": ("out/attribution.json", _break_efficiency),
    "ingest-psrc": ("out/psrc.enc", _flip_middle_byte),
}


@pytest.mark.parametrize("name", NAMES)
def test_one_corrupted_byte_raises_failed_ratio(name):
    w = workloads.WORKLOADS[name]
    with workloads.Run(w, 5, ROOT, inputs.TINY, pins=None) as r:
        r.setup(1)
        first = r.sample(traced=False)
        assert not first.failures
        rel = w.artifacts[0][1]
        _flip_middle_byte(r.dir / rel)
        again = workloads.Sample(traced=False, wall_s=first.wall_s, calls=first.calls)
        r._check(again)  # against the first sample's digests
        assert w.artifacts[0][0] in again.failures  # failed calls: 0 before, 1 now


@pytest.mark.parametrize("name", NAMES)
def test_content_check_catches_a_wrong_artifact(name):
    w = workloads.WORKLOADS[name]
    with workloads.Run(w, 5, ROOT, inputs.TINY, pins=None) as r:
        r.setup(1)
        first = r.sample(traced=False)
        assert not first.failures
        rel, corrupt = CORRUPTIONS[name]
        corrupt(r.dir / rel)
        r.reference = None  # make the next check run the content oracle again
        again = workloads.Sample(traced=False, wall_s=first.wall_s, calls=first.calls)
        r._check(again)
        assert again.failures


def test_pinned_digest_mismatch_fails():
    w = workloads.WORKLOADS["attribute-500"]
    with workloads.Run(w, 5, ROOT, inputs.TINY, pins={"out/attribution.json": "0" * 64}) as r:
        r.setup(1)
        s = r.sample(traced=False)
    assert 0 in s.failures


@pytest.mark.parametrize("name", NAMES)
def test_generator_is_deterministic_for_a_fixed_seed(name, tmp_path):
    setup = workloads.WORKLOADS[name].setup
    for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / sub).mkdir()
        setup(tmp_path / sub, seed, inputs.TINY)
    assert _digests(tmp_path / "a") == _digests(tmp_path / "b")
    assert _digests(tmp_path / "a") != _digests(tmp_path / "c")


def test_ingest_household_features_are_constant_within_a_household(tmp_path):
    expect = inputs.ingest_inputs(tmp_path, 5, inputs.TINY)
    dictionary = build_dictionary(load_default_spec())
    for name in inputs.HOUSEHOLD_FEATURES:
        groups = expect.x[:, dictionary.group_slice(name)]
        for hid in np.unique(expect.household_ids):
            rows = groups[expect.household_ids == hid]
            assert (rows == rows[0]).all(), (name, hid)
    households = (tmp_path / "households.csv").read_text(encoding="utf-8").splitlines()
    assert len(households) - 1 == np.unique(expect.household_ids).size


def test_self_times_and_the_parent_check():
    rec = tracer.Recorder()
    inner = rec.timed("inner", lambda: sum(range(10_000)))

    def outer():
        inner()
        inner()
        return sum(range(10_000))

    rec.timed("outer", outer)()
    spans = {**rec.arrays()}
    dur, own = tracer.self_times(spans)
    names = spans["names"][spans["name"]].tolist()
    o, kids = names.index("outer"), [i for i, n in enumerate(names) if n == "inner"]
    assert own[o] == pytest.approx(dur[o] - dur[kids].sum())
    assert (own >= 0).all() and not tracer.check_spans(spans)
    spans["end"] = spans["end"].copy()
    spans["end"][o] = spans["start"][o]  # the parent now ends before its children
    assert tracer.check_spans(spans)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _launch(tmp_path: Path, argv: list[str], timeout: float) -> dict:
    spec = {"calls": [argv], "cwd": str(tmp_path), "log": str(tmp_path / "log"), "timeout": timeout}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "launch.py")], input=json.dumps(spec),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


def test_launcher_kills_a_call_that_overruns(tmp_path):
    report = _launch(tmp_path, [sys.executable, "-c", "import time; time.sleep(30)"], 1.0)
    assert report["calls"][0]["code"] != 0
    assert report["wall_s"] < 10


def test_peak_rss_is_the_child_own_not_the_benchmark_process(tmp_path):
    ballast = np.ones(200 * 2**20 // 8)  # 200 MiB resident in this process
    report = _launch(tmp_path, [sys.executable, "-c", "pass"], 30.0)
    assert report["calls"][0]["code"] == 0
    assert report["calls"][0]["rss_mb"] < 100, report
    del ballast
