"""Span recorder for the benchmark's traced run.

Timing wrappers are installed on the module and class attributes that the
CLI and the library look up at call time (for example
`surveyfuse.synthesis.nearest_rows` or `EncodedDataset.load`), so no file
under `src/` changes.  Each call becomes a span (name, start, end, parent)
kept in memory and written out once, at the end.  Shape counts such as
unique rows are computed after a span closes, inside a `trace.counting`
span of their own, so they are excluded from every layer's time.

A span's self time is its duration minus the durations of its children.
The recorder assumes that wrapped functions are called from one thread;
the matching kernel's worker threads call no wrapped function.

Run as a program, it is a drop-in for `python -m surveyfuse.cli` that
traces one command:

    python3 bench/tracer.py SPANS.npz -- impute --source ... --out ...
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

COUNTING = "trace.counting"

# (metric, unit, how, span name, count key): how is "dur" (summed span
# time), "self" (summed self time), "calls" or "count" (summed count key).
LAYER_METRICS = (
    ("cli.self_s", "s", "self", "cli.main", None),
    ("matching.nearest_rows_s", "s", "dur", "matching.nearest_rows", None),
    ("matching.nearest_rows_calls", "count", "calls", "matching.nearest_rows", None),
    ("matching.query_rows", "count", "count", "matching.nearest_rows", "query_rows"),
    ("matching.unique_query_rows", "count", "count", "matching.nearest_rows", "unique_query_rows"),
    ("matching.target_rows", "count", "count", "matching.nearest_rows", "target_rows"),
    ("matching.unique_target_rows", "count", "count", "matching.nearest_rows", "unique_target_rows"),
    ("matching.pairs_scanned", "count", "count", "matching.nearest_rows", "pairs_scanned"),
    ("matching.build_buckets_s", "s", "dur", "matching.build_buckets", None),
    ("matching.buckets", "count", "count", "matching.build_buckets", "buckets"),
    ("matching.augment_candidate_s", "s", "dur", "matching.augment_candidate", None),
    ("matching.household_sums_s", "s", "dur", "matching.household_sums", None),
    ("synthesis.nested_match_self_s", "s", "self", "synthesis.nested_match", None),
    ("synthesis.synthesize_s", "s", "dur", "synthesis.synthesize", None),
    ("synthesis.reachable_buckets", "count", "count", "synthesis.synthesize", "reachable_buckets"),
    ("attribution.shapley_calls", "count", "calls", "attribution.shapley", None),
    ("attribution.shapley_self_s", "s", "self", "attribution.shapley", None),
    ("attribution.predictor_calls", "count", "calls", "attribution.predictor", None),
    ("attribution.predictor_self_s", "s", "self", "attribution.predictor", None),
    ("evaluation.subsample_compare_s", "s", "dur", "evaluation.subsample_compare", None),
    ("evaluation.iterations", "count", "count", "evaluation.subsample_compare", "iterations"),
    ("ingest.load_tables_s", "s", "dur", "ingest.load_tables", None),
    ("ingest.assemble_self_s", "s", "self", "ingest.assemble", None),
    ("ingest.day_rows", "count", "count", "ingest.load_tables", "day_rows"),
    ("schema.encode_value_calls", "count", "calls", "schema.encode_value", None),
    ("schema.encode_value_s", "s", "dur", "schema.encode_value", None),
    ("schema.spec_load_s", "s", "dur", "schema.spec_load", None),
    ("dataset.load_s", "s", "dur", "dataset.load", None),
    ("dataset.load_calls", "count", "calls", "dataset.load", None),
    ("dataset.save_s", "s", "dur", "dataset.save", None),
    ("dataset.save_bytes", "B", "count", "dataset.save", "bytes"),
    ("datagen.generate_s", "s", "dur", "datagen.generate", None),
)
# Derived here or by the benchmark rather than read off one span name.
EXTRA_METRICS = (
    ("matching.dedup_ratio", "ratio"),  # query rows per unique query row
    ("cli.artifact_bytes", "B"),
    ("trace.overhead_s", "s"),
)


class Recorder:
    """Spans and counts of one process, kept in compact arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.count_span = array("i")
        self.count_key = array("i")
        self.count_value = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._unique_cache: dict[int, tuple[np.ndarray, int]] = {}

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _count(self, idx: int, counter, result, args, kwargs) -> None:
        c = self.open(COUNTING)
        try:
            for key, value in counter(result, *args, **kwargs).items():
                self.count_span.append(idx)
                self.count_key.append(self._id(key))
                self.count_value.append(float(value))
        finally:
            self.close(c)

    def timed(self, name: str, fn, counter=None):
        """`fn` wrapped in a span; `counter(result, *args)` gives its counts."""

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self._count(idx, counter, result, args, kwargs)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace `owner.attr` (a function, method or classmethod) by a timed one."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.timed(name, raw.__func__, counter))
        else:
            new = self.timed(name, raw, counter)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def unpatch(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def unique_rows(self, x: np.ndarray, cache: bool = False) -> int:
        """Distinct rows of a 0/1 matrix; cached per array object if asked."""
        if cache and id(x) in self._unique_cache:
            return self._unique_cache[id(x)][1]
        if x.shape[0] <= 1:
            n = x.shape[0]
        else:
            packed = np.ascontiguousarray(np.packbits(np.asarray(x, dtype=np.uint8), axis=1))
            n = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel()).size
        if cache:
            self._unique_cache[id(x)] = (x, n)  # the reference keeps the id unique
        return n

    def install(self) -> None:
        """Wrap the entry points of every surveyfuse module the CLI reaches."""
        from surveyfuse import attribution, cli, datagen, ingest, matching, synthesis
        from surveyfuse.dataset import EncodedDataset
        from surveyfuse.schema import HarmonizationSpec

        def nearest_counts(result, query_x, target_x, **_):
            uq = self.unique_rows(query_x)
            return {
                "query_rows": len(query_x),
                "unique_query_rows": uq,
                "target_rows": len(target_x),
                "unique_target_rows": self.unique_rows(target_x, cache=True),
                "pairs_scanned": uq * len(target_x),
            }

        def bucket_counts(result, *_):
            return {"buckets": len(result)}

        def save_counts(result, ds, path):
            return {"bytes": os.path.getsize(path)}

        for module in (matching, synthesis, attribution):
            self.patch(module, "nearest_rows", "matching.nearest_rows", nearest_counts)
            self.patch(module, "build_buckets", "matching.build_buckets", bucket_counts)
        self.patch(matching, "household_sums", "matching.household_sums")
        self.patch(cli, "impute", "matching.impute")
        self.patch(cli, "augment_candidate", "matching.augment_candidate")
        self.patch(cli, "generate_future", "synthesis.generate_future")
        self.patch(synthesis, "nested_match", "synthesis.nested_match")
        self.patch(
            synthesis, "synthesize", "synthesis.synthesize",
            lambda r, *_, **__: {"reachable_buckets": r.n_entries},
        )
        self.patch(cli, "attribute_dataset", "attribution.attribute_dataset")
        self.patch(attribution, "shapley", "attribution.shapley")
        self.patch(attribution.BucketMeanPredictor, "__init__", "attribution.predictor_init")
        self.patch(attribution.BucketMeanPredictor, "__call__", "attribution.predictor")
        self.patch(
            cli, "subsample_compare", "evaluation.subsample_compare",
            lambda r, *_, **__: {"iterations": len(r.iteration_mse)},
        )
        self.patch(
            cli, "load_tables", "ingest.load_tables",
            lambda r, *_, **__: {"day_rows": r.counts["days"]},
        )
        self.patch(cli, "assemble", "ingest.assemble")
        self.patch(ingest, "encode_value", "schema.encode_value")
        self.patch(HarmonizationSpec, "from_file", "schema.spec_load")
        self.patch(EncodedDataset, "load", "dataset.load")
        self.patch(EncodedDataset, "save", "dataset.save", save_counts)
        self.patch(datagen, "generate", "datagen.generate")

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=np.str_),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "count_span": np.frombuffer(self.count_span, dtype=np.int32),
            "count_key": np.frombuffer(self.count_key, dtype=np.int32),
            "count_value": np.frombuffer(self.count_value, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            np.savez(fh, **self.arrays())


def load(path) -> dict[str, np.ndarray]:
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def self_times(spans: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-span duration and self time (duration minus child durations)."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"].astype(np.int64)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur, dur - covered


def check_spans(spans: dict[str, np.ndarray]) -> list[str]:
    """Children's time never exceeds their parent's span; every span closed."""
    dur, own = self_times(spans)
    problems = []
    if (dur < 0).any():
        problems.append(f"{int((dur < 0).sum())} spans end before they start")
    bad = np.flatnonzero(own < -1e-9)
    if bad.size:
        worst = bad[np.argmin(own[bad])]
        problems.append(
            f"{bad.size} spans have children longer than themselves, worst "
            f"{spans['names'][spans['name'][worst]]} by {-own[worst]:.3g} s"
        )
    return problems


def layer_metrics(span_sets: list[dict[str, np.ndarray]]) -> dict[str, float]:
    """Per-layer metrics summed over several processes' spans."""
    dur_by: dict[str, float] = {}
    self_by: dict[str, float] = {}
    calls_by: dict[str, int] = {}
    counts_by: dict[tuple[str, str], float] = {}
    for spans in span_sets:
        names = spans["names"]
        dur, own = self_times(spans)
        for i, name in enumerate(names.tolist()):
            sel = spans["name"] == i
            dur_by[name] = dur_by.get(name, 0.0) + float(dur[sel].sum())
            self_by[name] = self_by.get(name, 0.0) + float(own[sel].sum())
            calls_by[name] = calls_by.get(name, 0) + int(sel.sum())
        span_names = names[spans["name"][spans["count_span"]]].tolist()
        key_names = names[spans["count_key"]].tolist()
        for s, k, v in zip(span_names, key_names, spans["count_value"].tolist()):
            counts_by[(s, k)] = counts_by.get((s, k), 0.0) + v
    out: dict[str, float] = {}
    for metric, _, how, span, key in LAYER_METRICS:
        if how == "dur":
            out[metric] = dur_by.get(span, 0.0)
        elif how == "self":
            out[metric] = self_by.get(span, 0.0)
        elif how == "calls":
            out[metric] = calls_by.get(span, 0)
        else:
            out[metric] = counts_by.get((span, key), 0.0)
    uq = out["matching.unique_query_rows"]
    out["matching.dedup_ratio"] = out["matching.query_rows"] / uq if uq else 0.0
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.npz -- <surveyfuse arguments>", file=sys.stderr)
        return 2
    from surveyfuse import cli

    recorder = Recorder()
    recorder.install()
    idx = recorder.open("cli.main")
    try:
        code = cli.main(argv[2:])
    finally:
        recorder.close(idx)
        recorder.unpatch()
        recorder.save(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
