"""The benchmark's workloads and the loop that measures them.

A workload is a short list of `surveyfuse` CLI calls over seeded inputs.
One sample runs every call once, each in its own child process, and
reads wall time, CPU time and peak RSS of the children from `os.wait4`.
A run sets the inputs up several times (reporting the median set-up
time), then takes samples until its time is used up.  The first sample's
artifacts go through the workload's output check; every later sample
must reproduce them byte for byte, and with the default seed they must
match the digests pinned in `pinned.json`.

In a traced run, untraced and traced samples alternate.  A traced sample
runs each call through `tracer.py`, which reports per-layer spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import inputs
import tracer

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 40.0  # per call; a whole run must end within 180 s


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int  # passed to every call as --threads
    setup: Callable[[Path, int, dict], object]  # writes inputs/, returns what the check expects
    commands: Callable[[int, dict], list[list[str]]]  # CLI argv per call, paths relative to the run dir
    artifacts: tuple[tuple[int, str], ...]  # (call, path) of every output except manifests
    check: Callable[[Path, int, object], dict[int, list[str]]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="impute-ref",
            threads=1,
            setup=inputs.impute_inputs,
            commands=lambda seed, size: [
                ["impute", "--source", "inputs/source.enc", "--candidate", "inputs/donors.enc",
                 "--out", "out/imputed.csv"],
                ["evaluate", "--imputed", "out/imputed.households.csv",
                 "--truth", "inputs/truth.csv", "--cutoffs", size["eval_cutoffs"],
                 "--seed", str(seed), "--out", "out/evaluation.json",
                 "--sorted-csv", "out/sorted.csv"],
            ],
            artifacts=(
                (0, "out/imputed.csv"),
                (0, "out/imputed.households.csv"),
                (1, "out/evaluation.json"),
                (1, "out/sorted.csv"),
            ),
            check=checks.check_impute,
        ),
        Workload(
            name="synth-future",
            threads=2,
            setup=inputs.synth_inputs,
            commands=lambda seed, size: [
                ["synthesize", "--source2", "inputs/source2.enc", "--source1", "inputs/source1.enc",
                 "--candidate", "inputs/donors.enc", "--out", "out/synthetic.enc"],
            ],
            artifacts=((0, "out/synthetic.enc"), (0, "out/synthetic.provenance.csv")),
            check=checks.check_synth,
        ),
        Workload(
            name="attribute-500",
            threads=1,
            setup=inputs.attribute_inputs,
            commands=lambda seed, size: [
                ["attribute", "--data", "inputs/source.enc", "--candidate", "inputs/donors.enc",
                 "--limit", str(size["attribute_limit"]), "--seed", str(seed),
                 "--out", "out/attribution.json"],
            ],
            artifacts=((0, "out/attribution.json"),),
            check=checks.check_attribute,
        ),
        Workload(
            name="ingest-psrc",
            threads=1,
            setup=inputs.ingest_inputs,
            commands=lambda seed, size: [
                ["ingest", "--households", "inputs/households.csv",
                 "--persons", "inputs/persons.csv", "--days", "inputs/days.csv",
                 "--survey-id", inputs.SURVEY_ID, "--year", "2017", "--out", "out/psrc.enc"],
            ],
            artifacts=((0, "out/psrc.enc"),),
            check=checks.check_ingest,
        ),
    )
}


# -- samples -------------------------------------------------------------------


@dataclass
class Call:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Sample:
    traced: bool
    wall_s: float
    calls: list[Call]
    failures: dict[int, list[str]] = field(default_factory=dict)  # call -> problems
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.calls)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.rss_mb for c in self.calls)

    def fail(self, call: int, problem: str) -> None:
        self.failures.setdefault(call, []).append(problem)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Run:
    """One benchmark run of one workload in its own directory."""

    def __init__(self, workload: Workload, seed: int, root: Path, size: dict, pins: dict | None):
        self.w = workload
        self.seed = seed
        self.size = size
        self.pins = pins  # artifact digests the first sample must match, if any
        self.dir = root / ".bench_out" / f"{workload.name}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.expect: object = None
        self.reference: dict[str, str] | None = None  # digests of the first sample
        self.reference_failures: dict[int, list[str]] = {}  # its content check
        self.setup_s: list[float] = []
        self.setup_spans: list = []
        self.problems: list[str] = []  # failures outside any CLI call

    def __enter__(self) -> "Run":
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def setup(self, repeats: int) -> None:
        """Write the inputs `repeats` times, timing each; all copies must agree."""
        digests = []
        for k in range(repeats):
            target = self.dir / f"setup-{k}"
            target.mkdir()
            t0 = time.perf_counter()
            self.expect = self.w.setup(target, self.seed, self.size)
            self.setup_s.append(time.perf_counter() - t0)
            digests.append({p.name: sha256(p) for p in sorted(target.iterdir())})
            if k:
                shutil.rmtree(self.dir / f"setup-{k - 1}")
        if any(d != digests[0] for d in digests):
            self.problems.append("input generation is not deterministic for a fixed seed")
        (self.dir / f"setup-{repeats - 1}").rename(self.dir / "inputs")

    def sample(self, traced: bool) -> Sample:
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        span_files = []
        argvs = []
        for i, argv in enumerate(self.w.commands(self.seed, self.size)):
            if traced:
                span_files.append(out / f"spans-{i}.npz")
                prefix = [sys.executable, str(BENCH_DIR / "tracer.py"), str(span_files[-1]), "--"]
            else:
                prefix = [sys.executable, "-m", "surveyfuse.cli"]
            argvs.append(prefix + argv + ["--threads", str(self.w.threads)])
        spec = {"calls": argvs, "cwd": str(self.dir), "log": str(self.dir / "cli.log"),
                "timeout": CHILD_TIMEOUT_S}
        # Its own session, so a hung launcher is killed together with its child.
        launcher = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=self.env, start_new_session=True,
        )
        try:
            stdout, _ = launcher.communicate(json.dumps(spec), CHILD_TIMEOUT_S * len(argvs) + 10)
        except subprocess.TimeoutExpired:
            os.killpg(launcher.pid, signal.SIGKILL)
            launcher.communicate()
            raise
        if launcher.returncode != 0:
            raise RuntimeError(f"launch.py exited with {launcher.returncode}")
        report = json.loads(stdout)
        calls = [Call(**c) for c in report["calls"]]
        wall = report["wall_s"]
        s = Sample(traced=traced, wall_s=wall, calls=calls)
        for i, c in enumerate(calls):
            if c.code != 0:
                s.fail(i, f"exit code {c.code} (see {self.dir / 'cli.log'})")
        if not s.failures:
            self._check(s)
        if traced:
            self._trace(s, span_files)
        return s

    def _check(self, s: Sample) -> None:
        digests = {}
        for call, rel in self.w.artifacts:
            path = self.dir / rel
            if not path.is_file():
                s.fail(call, f"{rel} was not written")
                continue
            digests[rel] = sha256(path)
        if self.reference is None:
            self.reference = digests
            try:
                self.reference_failures = self.w.check(self.dir, self.seed, self.expect)
            except Exception as exc:  # an unreadable artifact is a failed check, not a crash
                self.reference_failures = {0: [f"check could not read the artifacts: {exc!r}"]}
            expected, label = self.pins, "pinned digest"
        else:
            expected, label = self.reference, "first sample"
        # The content check runs on the first sample only; a later sample that
        # reproduces its bytes shares its verdict, and one that does not fails below.
        for call, problems in self.reference_failures.items():
            for p in problems:
                s.fail(call, p)
        if expected is None:
            return
        for call, rel in self.w.artifacts:
            if rel in digests and digests[rel] != expected.get(rel):
                s.fail(call, f"{rel} differs from the {label}")

    def _trace(self, s: Sample, span_files: list[Path]) -> None:
        sets = list(self.setup_spans)
        for i, path in enumerate(span_files):
            if not path.is_file():
                s.fail(i, "the traced call wrote no spans")
                continue
            spans = tracer.load(path)
            for p in tracer.check_spans(spans):
                s.fail(i, p)
            sets.append(spans)
        s.layers = tracer.layer_metrics(sets)
        s.layers["cli.artifact_bytes"] = float(
            sum((self.dir / rel).stat().st_size for _, rel in self.w.artifacts if (self.dir / rel).is_file())
        )


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict]
    samples: list[Sample]
    problems: list[str]
    setup_s: list[float]
    digests: dict[str, str]

    def to_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path,
        size: dict = inputs.FULL, pins: dict | None = None) -> Result:
    """One run: set up, then take samples until `seconds` are used up."""
    with Run(workload, seed, root, size, pins) as r:
        if trace:
            rec = tracer.Recorder()
            rec.install()
            try:
                r.setup(1)
            finally:
                rec.unpatch()
            r.setup_spans = [rec.arrays()]
        else:
            r.setup(SETUP_REPEATS)
        # Sample until the next batch would overrun `seconds` of measured
        # time; the checks between samples are not counted.
        samples: list[Sample] = []
        batches = 0
        while True:
            samples.append(r.sample(traced=False))
            if trace:
                samples.append(r.sample(traced=True))
            batches += 1
            measured = sum(s.wall_s for s in samples)
            if measured + measured / batches > seconds:
                break

    plain = [s for s in samples if not s.traced]
    if trace:
        traced = [s for s in samples if s.traced]
        overhead = statistics.median(s.wall_s for s in traced) - statistics.median(
            s.wall_s for s in plain
        )
        for s in traced:
            s.layers["trace.overhead_s"] = overhead
        units = [(m, u) for m, u, *_ in tracer.LAYER_METRICS] + list(tracer.EXTRA_METRICS)
        metrics = {
            m: {"value": statistics.median(s.layers[m] for s in traced), "unit": u}
            for m, u in units
        }
    else:
        metrics = {
            "wall_s": {"value": statistics.median(s.wall_s for s in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(s.cpu_s for s in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s.peak_rss_mb for s in plain), "unit": "MB"},
            "setup_s": {"value": statistics.median(r.setup_s), "unit": "s"},
        }
    failed = sum(len(s.failures) for s in samples)
    return Result(
        correct=failed == 0 and not r.problems,
        attempted=sum(len(s.calls) for s in samples),
        failed=failed,
        metrics=metrics,
        samples=samples,
        problems=r.problems,
        setup_s=r.setup_s,
        digests=r.reference or {},
    )
