"""Damaged spec and model files through the CLI.

Each example takes the shipped harmonization spec or the demo population
model, damages one value (drops it, changes its type, nulls it, negates it
or empties it) and runs ``ingest --spec`` or ``gen --model`` on the result
through ``cli.main``.  Every outcome must be a run (exit 0) or a refusal
(exit 5), never an unexpected error (exit 1), and must leave no staged
``.tmp-*`` file; a refused run leaves no output.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveyfuse import demo_model
from surveyfuse.cli import EXIT_DATA, EXIT_OK, main
from surveyfuse.schema import default_spec_path

KINDS = ["drop", "retype", "null", "negate", "empty"]


def _paths(value, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _changed(value, kind: str):
    if kind == "null":
        return None
    if value is None:
        return {"retype": 0, "negate": None, "empty": ""}[kind]
    if isinstance(value, bool):
        return {"retype": "true", "negate": not value, "empty": False}[kind]
    if isinstance(value, (int, float)):
        return {"retype": str(value), "negate": -value if value else -1, "empty": 0}[kind]
    if isinstance(value, str):
        return {"retype": 1, "negate": "-" + value, "empty": ""}[kind]
    if isinstance(value, list):
        return {"retype": {}, "negate": value[::-1], "empty": []}[kind]
    return {"retype": [], "negate": dict(reversed(value.items())), "empty": {}}[kind]


def _mutated(doc, path: tuple, kind: str):
    """A copy of ``doc`` with the value at ``path`` damaged as ``kind``
    (dropping the root nulls it)."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return None if kind == "drop" else _changed(doc, kind)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = _changed(parent[path[-1]], kind)
    return doc


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="module")
def psrc_tables(tmp_path_factory):
    """A two-household PSRC-shaped CSV triple that the shipped spec ingests."""
    d = tmp_path_factory.mktemp("psrc")
    _write_csv(d / "h.csv", [
        ["hhid", "hhincome_broad", "lifecycle"],
        ["100", "$100,000 or more", "Household size = 2, no children under 18"],
        ["200", "Under $25,000", "Household size = 1, no children under 18"],
    ])
    _write_csv(d / "p.csv", [
        ["hhid", "personid", "age", "gender", "education", "employment"],
        ["100", "1", "25-34 years", "Female", "Bachelor degree",
         "Employed full time (35+ hours/week, paid)"],
        ["200", "1", "65-74 years", "Male", "Graduate/post-graduate degree", "Retired"],
    ])
    _write_csv(d / "d.csv", [
        ["hhid", "personid", "daynum",
         "delivery_pkgs_freq", "delivery_food_freq", "delivery_grocery_freq"],
        ["100", "1", "1", "2", "1", "0"],
        ["200", "1", "1", "", "", ""],
    ])
    return d


DOCUMENTS = {
    "spec": json.loads(default_spec_path().read_text()),
    "model": demo_model().to_json_dict(),
}
PATHS = {name: list(_paths(doc)) for name, doc in DOCUMENTS.items()}


def _argv(name: str, doc: Path, tables: Path, out: Path) -> list[str]:
    if name == "spec":
        return ["ingest", "--spec", doc, "--households", tables / "h.csv",
                "--persons", tables / "p.csv", "--days", tables / "d.csv",
                "--survey-id", "psrc2017", "--year", "2017", "--out", out / "s.enc"]
    return ["gen", "--model", doc, "--households", "5", "--seed", "1",
            "--out-full", out / "f.enc", "--out-missing", out / "m.enc"]


def _run(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_undamaged_file_runs(psrc_tables, tmp_path, name):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(DOCUMENTS[name]))
    assert _run(_argv(name, doc, psrc_tables, tmp_path)) == EXIT_OK


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_damaged_spec_or_model_is_run_or_refused_cleanly(psrc_tables, data):
    name = data.draw(st.sampled_from(sorted(DOCUMENTS)), label="file")
    path = data.draw(st.sampled_from(PATHS[name]), label="path")
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        doc = d / "doc.json"
        doc.write_text(json.dumps(_mutated(DOCUMENTS[name], path, kind)))
        rc = _run(_argv(name, doc, psrc_tables, d))
        assert rc in (EXIT_OK, EXIT_DATA), (name, path, kind, rc)
        left = sorted(p.name for p in d.iterdir())
        assert not [n for n in left if n.startswith(".tmp-")], (name, path, kind, left)
        if rc != EXIT_OK:
            assert left == ["doc.json"], (name, path, kind, left)
