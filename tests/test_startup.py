"""Process start-up: the package imports lazily, the CLI starts numpy
with a one-thread OpenBLAS unless the caller chose a thread count,
``synthesize`` and ``describe`` never import ``numpy.ma``, and matching
starts no thread.

Each check runs in a fresh interpreter, since this process has numpy loaded
already, with ``OPENBLAS_NUM_THREADS`` taken from the environment unless
the test sets it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(code: str, openblas_threads: str | None = None) -> dict:
    """Run ``code`` in a new interpreter and return the JSON it prints last."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# what a process reports once numpy is loaded
REPORT = """
import json, os, sys
tasks = "/proc/self/task"
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}))
"""

# ``python -m surveyfuse.cli --version``: import the package, then run cli as __main__
RUN_AS_MODULE = """
import runpy, sys
sys.argv = ["surveyfuse", "--version"]
try:
    runpy.run_module("surveyfuse.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""

# the ``surveyfuse`` console script
CONSOLE_SCRIPT = "from surveyfuse.cli import main\n"


class TestLazyPackage:
    def test_import_loads_no_submodule_or_numpy(self):
        report = run_fresh(
            "import json, sys\nimport surveyfuse\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m == 'numpy' or m.startswith('surveyfuse.'))))"
        )
        assert report == []

    def test_public_names_are_their_submodules_objects(self):
        report = run_fresh(
            """
import json, sys
import surveyfuse
loaded_before = [m for m in sys.modules if m.startswith("surveyfuse.")]
namespace = {}
exec("from surveyfuse import *", namespace)
wrong = []
for name in surveyfuse.__all__:
    obj = namespace[name]
    if name == "__version__":
        continue
    module = sys.modules[obj.__module__]
    if not module.__name__.startswith("surveyfuse.") or getattr(module, name) is not obj:
        wrong.append(name)
    if getattr(surveyfuse, name) is not obj:
        wrong.append(name)
print(json.dumps({"loaded_before": loaded_before, "wrong": wrong}))
"""
        )
        assert report == {"loaded_before": [], "wrong": []}

    def test_dir_covers_all_and_unknown_names_raise(self):
        report = run_fresh(
            """
import json, sys
import surveyfuse
missing = sorted(set(surveyfuse.__all__) - set(dir(surveyfuse)))
try:
    surveyfuse.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
loaded = [m for m in sys.modules if m.startswith("surveyfuse.")]
print(json.dumps({"missing": missing, "unknown": unknown, "loaded": loaded}))
"""
        )
        assert report == {
            "missing": [],
            "unknown": "module 'surveyfuse' has no attribute 'no_such_name'",
            "loaded": [],
        }


class TestOpenblasThreads:
    @pytest.mark.parametrize("entry", [RUN_AS_MODULE, CONSOLE_SCRIPT], ids=["module", "script"])
    def test_cli_starts_one_blas_thread(self, entry):
        report = run_fresh(entry + REPORT)
        assert report["numpy"] and report["openblas_threads"] == "1"
        if report["threads"] is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert report["threads"] == 1

    @pytest.mark.parametrize("entry", [RUN_AS_MODULE, CONSOLE_SCRIPT], ids=["module", "script"])
    def test_callers_thread_count_is_kept(self, entry):
        report = run_fresh(entry + REPORT, openblas_threads="3")
        assert report["numpy"] and report["openblas_threads"] == "3"


# run the CLI argument lists in the JSON %r, then report their stdout,
# whether numpy.ma and concurrent.futures were imported, which of the
# modules that load OpenSSL were, which random-draw modules were, and the
# thread count
RUN_COMMANDS = """
import contextlib, io, json, os, sys
from surveyfuse.cli import main
report = {"stdout": [], "codes": []}
for argv in json.loads(%r):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        report["codes"].append(main(argv))
    report["stdout"].append(buf.getvalue())
report["numpy.ma"] = "numpy.ma" in sys.modules
report["concurrent.futures"] = "concurrent.futures" in sys.modules
report["openssl"] = [m for m in ("_hashlib", "hmac", "secrets") if m in sys.modules]
report["draws"] = [m for m in ("numpy.random", "surveyfuse.streams") if m in sys.modules]
tasks = "/proc/self/task"
report["threads"] = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
print(json.dumps(report))
"""


class TestNoMaskedArrays:
    def test_synthesize_and_describe_skip_numpy_ma(self, tmp_path):
        """The household dedups use the package's one dedup path, whose
        ``np.unique`` call does not import ``numpy.ma``; outputs as before."""
        from surveyfuse.cli import main
        from surveyfuse.dataset import EncodedDataset
        import numpy as np

        from surveyfuse.matching import nearest_rows
        from surveyfuse.synthesis import nested_match

        full, miss = tmp_path / "f.enc", tmp_path / "m.enc"
        assert main(["gen", "--households", "50", "--seed", "1",
                     "--out-full", str(full), "--out-missing", str(miss)]) == 0
        argv = [
            ["synthesize", "--source2", str(full), "--source1", str(miss),
             "--candidate", str(full), "--out", str(tmp_path / "s.enc")],
            ["describe", "--data", str(miss), "--out", str(tmp_path / "d.json")],
        ]
        report = run_fresh(RUN_COMMANDS % json.dumps(argv))
        assert report["codes"] == [0, 0] and report["numpy.ma"] is False

        # the outputs the two dedups feed, against plain-set oracles
        f, m = EncodedDataset.load(full), EncodedDataset.load(miss)
        described = json.loads((tmp_path / "d.json").read_text(encoding="utf-8"))
        assert described["n_households"] == len(set(m.household_ids.tolist()))
        graph = nested_match(f, m, f)
        mu2 = nearest_rows(f.words[~np.isnan(f.y)], m.words, dimension=f.dictionary.dimension)
        assert np.array_equal(graph.source2_counts, np.bincount(mu2.target_index, minlength=m.n_samples))
        reached = {int(graph.mu1.target_index[i]) for i in mu2.target_index}
        covered = {h for h, b in zip(f.household_ids, graph.buckets.inverse) if b in reached}
        assert f"covering {len(covered)} donor households" in report["stdout"][0]


class TestNoScanThreads:
    def test_synthesize_with_threads_flag_starts_no_pool(self, tmp_path):
        """``--threads`` is accepted and changes nothing: the scan runs in the
        calling thread, and no thread pool module is even imported."""
        from surveyfuse.cli import main

        full, miss = tmp_path / "f.enc", tmp_path / "m.enc"
        assert main(["gen", "--households", "50", "--seed", "1",
                     "--out-full", str(full), "--out-missing", str(miss)]) == 0
        argv = [["synthesize", "--source2", str(full), "--source1", str(miss),
                 "--candidate", str(full), "--threads", "2", "--out", str(tmp_path / "s.enc")]]
        report = run_fresh(RUN_COMMANDS % json.dumps(argv))
        assert report["codes"] == [0]
        assert report["concurrent.futures"] is False
        if report["threads"] is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert report["threads"] == 1


# the interpreter's own SHA-256 module, which an interpreter may be built without
BUILTIN_SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"

# the shipped crosswalk's dictionary hash, as every release so far has written it
SHIPPED_DICTIONARY_HASH = "19fcb136a36d875809e69330cc7a6c94d158ef207f6197c4323605372999b7da"

# a three-household triple in the shipped psrc2017 columns
PSRC_TABLES = {
    "h.csv": [
        ["hhid", "hhincome_broad", "lifecycle"],
        ["301", "$100,000 or more", "Household size = 2, no children under 18"],
        ["302", "Under $25,000", "Household size = 1, no children under 18"],
    ],
    "p.csv": [
        ["hhid", "personid", "age", "gender", "education", "employment"],
        ["301", "30101", "25-34 years", "Female", "Bachelor degree", "Retired"],
        ["302", "30201", "12-15 years", "Male", "Some college",
         "Employed full time (35+ hours/week, paid)"],
    ],
    "d.csv": [
        ["hhid", "personid", "daynum", "delivery_pkgs_freq", "delivery_food_freq",
         "delivery_grocery_freq"],
        ["301", "30101", "1", "1", "1", "NA"],
        ["302", "30201", "1", "0", "3", "1"],
    ],
}


class TestNoOpenssl:
    def test_cli_hashes_inputs_without_openssl(self, tmp_path):
        """``impute``, ``synthesize``, ``ingest`` and ``describe`` hash their
        inputs with the interpreter's own SHA-256 and name their staged files
        from ``os.urandom``: none of ``_hashlib``, ``hmac`` or ``secrets`` is
        imported, and every input hash is still hashlib's SHA-256 of the file."""
        import csv
        import hashlib
        import zipfile

        from surveyfuse import build_dictionary, load_default_spec
        from surveyfuse.cli import main

        pytest.importorskip(BUILTIN_SHA256)
        full, miss = tmp_path / "f.enc", tmp_path / "m.enc"
        assert main(["gen", "--households", "50", "--seed", "1",
                     "--out-full", str(full), "--out-missing", str(miss)]) == 0
        for name, rows in PSRC_TABLES.items():
            with open(tmp_path / name, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        t = {name: str(tmp_path / name) for name in ("h.csv", "p.csv", "d.csv")}
        outs = [tmp_path / "i.csv", tmp_path / "s.enc", tmp_path / "in.enc", tmp_path / "d.json"]
        argv = [
            ["impute", "--source", str(miss), "--candidate", str(full), "--out", str(outs[0])],
            ["synthesize", "--source2", str(full), "--source1", str(miss),
             "--candidate", str(full), "--out", str(outs[1])],
            ["ingest", "--households", t["h.csv"], "--persons", t["p.csv"], "--days", t["d.csv"],
             "--survey-id", "psrc2017", "--year", "2017", "--out", str(outs[2])],
            ["describe", "--data", str(miss), "--out", str(outs[3])],
        ]
        report = run_fresh(RUN_COMMANDS % json.dumps(argv))
        assert report["codes"] == [0, 0, 0, 0] and report["openssl"] == []

        for out, n_inputs in zip(outs, (2, 2, 4, 1)):  # synthesize names f.enc twice
            manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
            hashes = manifest["input_hashes"]
            assert len(hashes) == n_inputs
            for path, digest in hashes.items():
                assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest(), path
        with zipfile.ZipFile(outs[2]) as zf:
            meta = json.loads(zf.read("meta.json"))
        assert meta["dictionary_hash"] == SHIPPED_DICTIONARY_HASH
        assert build_dictionary(load_default_spec()).hash() == SHIPPED_DICTIONARY_HASH


    def test_random_draws_load_no_openssl(self, tmp_path):
        """``attribute`` and random ties draw from ``surveyfuse.streams``:
        neither ``numpy.random`` nor any module that loads OpenSSL is
        imported.  An index-tie ``impute`` does not import the stream module."""
        from surveyfuse.cli import main

        full, miss = tmp_path / "f.enc", tmp_path / "m.enc"
        assert main(["gen", "--households", "50", "--seed", "1",
                     "--out-full", str(full), "--out-missing", str(miss)]) == 0
        impute = ["impute", "--source", str(miss), "--candidate", str(full)]
        report = run_fresh(RUN_COMMANDS % json.dumps([impute + ["--out", str(tmp_path / "i.csv")]]))
        assert report["codes"] == [0] and report["openssl"] == report["draws"] == []

        random = ["--tie-break", "random", "--seed", "1"]
        argv = [
            ["attribute", "--data", str(miss), "--candidate", str(full), "--limit", "20",
             "--seed", "1", "--out", str(tmp_path / "a.json")],
            impute + random + ["--out", str(tmp_path / "r.csv")],
            ["synthesize", "--source2", str(full), "--source1", str(miss),
             "--candidate", str(full), *random, "--out", str(tmp_path / "s.enc")],
        ]
        report = run_fresh(RUN_COMMANDS % json.dumps(argv))
        assert report["codes"] == [0, 0, 0] and report["openssl"] == []
        assert report["draws"] == ["surveyfuse.streams"]


# import the package's SHA-256 with the interpreter's own modules blocked
# (as on an interpreter built without them) and report what it fell back to
SHA256_BLOCKED = """
import hashlib, json, sys
sys.modules["_sha2"] = None
sys.modules["_sha256"] = None
from surveyfuse.schema import sha256
data = bytes(range(256)) * 4099
print(json.dumps({
    "is_hashlib": sha256 is hashlib.sha256,
    "same": sha256(data).hexdigest() == hashlib.sha256(data).hexdigest(),
}))
"""


class TestSha256Fallback:
    def test_builtin_module_by_default(self):
        pytest.importorskip(BUILTIN_SHA256)
        report = run_fresh(
            "import json, sys\nfrom surveyfuse.schema import sha256\n"
            "print(json.dumps({'module': sha256.__module__, 'openssl': '_hashlib' in sys.modules}))"
        )
        assert report == {"module": BUILTIN_SHA256, "openssl": False}

    def test_hashlib_without_builtin_modules(self):
        assert run_fresh(SHA256_BLOCKED) == {"is_hashlib": True, "same": True}
