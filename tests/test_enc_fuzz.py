"""Damaged ``.enc`` inputs through the CLI.

Each example mutates a valid ``.enc`` once and runs ``describe``,
``impute``, ``attribute --limit 1`` and ``synthesize`` (the file as
``--source2``, read as a stream) on it through ``cli.main``.  Every
outcome must be exit 3, 4 or 5, never an unexpected error (exit 1), and
must leave no output and no staged ``.tmp-*`` file.
"""

import contextlib
import io
import json
import struct
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surveyfuse import EncodedDataset, FusionError
from surveyfuse.cli import EXIT_DATA, EXIT_DICTIONARY_MISMATCH, EXIT_MISSING_INPUT, main
from conftest import npy_claiming

MEMBERS = ["meta.json", "household_ids.npy", "x.npy", "y.npy"]
REFUSED = {EXIT_MISSING_INPUT, EXIT_DICTIONARY_MISMATCH, EXIT_DATA}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A valid source ``.enc`` (its bytes and members) and a donor file."""
    d = tmp_path_factory.mktemp("valid")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--households", "40", "--seed", "3",
                     "--out-full", str(d / "donors.enc"), "--out-missing", str(d / "source.enc")]) == 0
    blob = (d / "source.enc").read_bytes()
    with zipfile.ZipFile(d / "source.enc") as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
        spans = {info.filename: _data_span(blob, info) for info in zf.infolist()}
    assert list(members) == MEMBERS
    return blob, members, spans, d / "donors.enc"


def _data_span(blob: bytes, info: zipfile.ZipInfo) -> tuple[int, int]:
    """Offsets of a member's compressed bytes in the file."""
    name_len, extra_len = struct.unpack("<HH", blob[info.header_offset + 26 : info.header_offset + 30])
    start = info.header_offset + 30 + name_len + extra_len
    return start, start + info.compress_size


def _zip(members: dict[str, bytes]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, data in members.items():
            zf.writestr(name, data)
    return buf.getvalue()


def _npy(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def _ids(members: dict[str, bytes]) -> np.ndarray:
    return np.load(io.BytesIO(members["household_ids.npy"]))


IDS_REWRITES = {
    "int": lambda ids: np.arange(ids.size),
    "bytes": lambda ids: ids.astype(np.bytes_),
    "2-D": lambda ids: ids.reshape(-1, 1),
    "one row short": lambda ids: ids[:-1],
}


@st.composite
def mutations(draw, valid):
    """``(description, damaged file bytes, may the damage be invisible)``."""
    blob, members, spans, _ = valid
    kind = draw(st.sampled_from(["drop", "ids", "truncate", "flip", "rows", "meta key"]))
    members = dict(members)
    if kind == "drop":
        name = draw(st.sampled_from(MEMBERS))
        del members[name]
        return f"drop {name}", _zip(members), False
    if kind == "ids":
        how = draw(st.sampled_from(sorted(IDS_REWRITES)))
        members["household_ids.npy"] = _npy(IDS_REWRITES[how](_ids(members)))
        return f"household_ids.npy as {how}", _zip(members), False
    if kind == "truncate":
        name = draw(st.sampled_from(MEMBERS))
        cut = draw(st.integers(0, len(members[name]) - 1))
        members[name] = members[name][:cut]
        return f"{name} cut to {cut} bytes", _zip(members), False
    if kind == "flip":
        name = draw(st.sampled_from(MEMBERS))
        start, end = spans[name]
        pos = draw(st.integers(start, end - 1))
        bit = draw(st.integers(0, 7))
        damaged = bytearray(blob)
        damaged[pos] ^= 1 << bit
        # a deflate bit the decoder ignores leaves the data, and its CRC, intact
        return f"bit {bit} of byte {pos} ({name}) flipped", bytes(damaged), True
    if kind == "rows":
        # a header that claims another row count, and maybe meta.json with it
        name = draw(st.sampled_from(MEMBERS[1:]))
        meta = json.loads(members["meta.json"])
        n = meta["n_samples"]
        rows = draw(st.sampled_from([0, 10**13]) | st.integers(0, 2 * n).filter(lambda r: r != n))
        members[name] = npy_claiming(members[name], rows)
        if draw(st.booleans()):
            meta["n_samples"] = rows
            members["meta.json"] = json.dumps(meta).encode()
        return f"{name} header claiming {rows} rows", _zip(members), False
    meta = json.loads(members["meta.json"])
    key = draw(st.sampled_from(sorted(meta)))
    del meta[key]
    members["meta.json"] = json.dumps(meta).encode()
    return f"meta.json without {key!r}", _zip(members), False


def _run(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_damaged_enc_is_refused_cleanly(valid, data):
    what, damaged, may_be_invisible = data.draw(mutations(valid), label="mutation")
    original = valid[0]
    donors = valid[3]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        source = d / "source.enc"
        source.write_bytes(damaged)
        if may_be_invisible:
            try:
                back = EncodedDataset.load(source)
            except (FusionError, ValueError):  # what cli.main reports as exit 5
                back = None
            if back is not None:  # read as the original: the CLI must succeed on it
                (d / "original.enc").write_bytes(original)
                ref = EncodedDataset.load(d / "original.enc")
                assert np.array_equal(back.household_ids, ref.household_ids), what
                assert np.array_equal(back.x, ref.x), what
                assert np.array_equal(back.y, ref.y, equal_nan=True), what
                return
        for argv in (
            ["describe", "--data", source, "--out", d / "report.json"],
            ["impute", "--source", source, "--candidate", donors, "--out", d / "imputed.csv"],
            # reads every row of its stream, though it keeps one
            ["attribute", "--data", source, "--candidate", donors, "--limit", 1, "--seed", 1,
             "--out", d / "attribution.json"],
            # streams every member, though it keeps no household id
            ["synthesize", "--source2", source, "--source1", donors, "--candidate", donors,
             "--out", d / "synthetic.enc"],
        ):
            rc = _run(argv)
            assert rc in REFUSED, (what, argv[0], rc)
            left = sorted(p.name for p in d.iterdir())
            assert left == ["source.enc"], (what, argv[0], left)


@pytest.mark.parametrize("how", sorted(IDS_REWRITES))
def test_each_ids_rewrite_is_a_data_error(valid, tmp_path, how):
    """The id rewrites the fuzz test draws, each checked once by name."""
    members = dict(valid[1])
    members["household_ids.npy"] = _npy(IDS_REWRITES[how](_ids(members)))
    source = tmp_path / "source.enc"
    source.write_bytes(_zip(members))
    assert _run(["describe", "--data", source]) == EXIT_DATA
    assert _run(["impute", "--source", source, "--candidate", valid[3],
                 "--out", tmp_path / "imputed.csv"]) == EXIT_DATA
    assert _run(["attribute", "--data", source, "--candidate", valid[3], "--limit", 1,
                 "--seed", 1, "--out", tmp_path / "attribution.json"]) == EXIT_DATA
    for role in ("--source2", "--source1"):  # both sources are streamed
        argv = ["synthesize", "--source2", valid[3], "--source1", valid[3],
                "--candidate", valid[3], "--out", tmp_path / "synthetic.enc"]
        argv[argv.index(role) + 1] = source
        assert _run(argv) == EXIT_DATA, role
    assert sorted(p.name for p in tmp_path.iterdir()) == ["source.enc"]
