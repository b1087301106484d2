"""Command-line pipeline: ingest, describe, impute, synthesize, evaluate,
spike, attribute, gen.

Every file a run writes goes through one ``_Outputs`` writer: each
subcommand first checks that every output path it will write (and the
manifest's) can be staged and that no two of them resolve to one file,
before it loads any input; each output is staged in a temp file next to
it, a machine-readable manifest (resolved
parameters, input hashes, each input dataset's sample and household
counts, seed, wall-clock duration, peak RSS, and per match its workload
shape and distance histogram) is staged last next to
the first output, and only when every one is staged are they all renamed
into place, the files they replace moved aside until the last rename is
done.  A run that fails at any point, a failed rename included, leaves the
outputs as they were.  The run's
summary goes to stdout only after that, so a closed stdout (``| head -1``)
cannot cost the outputs; it ends the summary quietly.
Artifacts are byte-deterministic for a fixed seed; the manifest is not
(it records the duration and the peak RSS).

Stochastic subcommands refuse to run without an explicit ``--seed``.
The CLI sets ``OPENBLAS_NUM_THREADS=1`` before it imports numpy unless the
caller has set it: surveyfuse calls no BLAS routine, so a BLAS thread pool
would only spin; ``--threads`` is accepted for compatibility and changes nothing.
Exit codes: 0 success, 2 usage error (also two outputs of one run that
name one file, or a directory where a file belongs), 3 missing input file
or output directory, or outputs that could not be renamed into place,
4 feature-dictionary mismatch, 5 schema/mapping/data error, 1 unexpected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from itertools import islice, repeat
from pathlib import Path

# surveyfuse calls no BLAS routine, and idle OpenBLAS worker threads spin after they start
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .attribution import BucketMeanPredictor, attribute_dataset
from .dataset import EncodedDataset, EncodedStream, require_same_dictionary
from .datagen import PopulationModel, demo_model, generate
from .errors import DataError, DictionaryMismatchError, FusionError
from .evaluation import DEFAULT_CUTOFFS, Totals, sort_totals, spike, subsample_compare
from .ingest import assemble, describe, load_tables
# the impute subcommand runs impute_blocks; bench/tracer.py patches these two names
from .matching import augment_candidate, impute, impute_blocks
from .schema import HarmonizationSpec, default_spec_path, read_json, sha256
from .synthesis import generate_future

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_DICTIONARY_MISMATCH = 4
EXIT_DATA = 5


# -- the run's outputs: staged, then committed together -------------------------

# Rows formatted per write.  A chunk's strings are the formatting memory: about
# 3 MB for imputed.csv's five columns at 8,192 rows, twice that at 16,384.
CSV_CHUNK_ROWS = 8_192


def _sha256(path: Path) -> str:
    h = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _csv_text(values: np.ndarray) -> np.ndarray:
    """The CSV text of each value, as an object array: floats as ``repr``,
    the rest as ``str``."""
    text = map(repr if values.dtype.kind == "f" else str, values.tolist())
    return np.array(list(text), dtype=object)


def _csv_fields(column: np.ndarray) -> list[str]:
    """The CSV text of each value of a column, or of text already formatted.

    Integers are formatted one by one: ``str`` of an int is cheaper than
    sorting the chunk for its distinct values, and an index column such as
    ``sample_index`` has no repeats.  Other columns repeat few values, so
    each distinct value is formatted once and indexed back.  Floats are
    keyed on their bits, which keeps ``-0.0`` and ``0.0`` apart.
    """
    if column.dtype.kind in "UO":
        return column.tolist()
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    floats = column.dtype.kind == "f"
    distinct, inverse = np.unique(
        column.view(f"i{column.itemsize}") if floats else column, return_inverse=True
    )
    return _csv_text(distinct.view(column.dtype) if floats else distinct)[inverse].tolist()


def _check_csv_ids(path: str | Path, households: np.ndarray) -> None:
    """A ``DataError`` naming the first household id that a CSV would not
    give back as itself: one that holds a comma, a CR, an LF or a NUL, or
    that begins with whitespace, which the totals reader strips.  The
    distinct ids are scanned as one array of UTF-32 code points."""
    width = households.dtype.itemsize // 4
    chars = households.view(np.uint32)  # each id NUL-padded to the width
    separators = (chars == ord(",")) | (chars == ord("\r")) | (chars == ord("\n"))
    bad = [
        np.flatnonzero(separators) // width,
        np.flatnonzero(np.strings.isspace(households.astype("<U1"))),  # each id's first character
    ]
    length = np.strings.str_len(households)
    if np.count_nonzero(chars) != length.sum():  # a NUL before some id's last character
        bad.append(np.flatnonzero(np.count_nonzero(chars.reshape(-1, width), axis=1) < length))
    rows = np.concatenate(bad)
    if rows.size:
        raise DataError(
            f"{path}: household id {str(households[rows.min()])!r} cannot be written to a "
            "CSV: an id must hold no comma, CR, LF or NUL, nor begin with whitespace"
        )


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB (2**20 bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _manifest_path(first_output: Path) -> Path:
    return Path(str(first_output) + ".manifest.json")


class UsageError(Exception):
    """Arguments that parse but cannot run together (exit 2)."""


class CommitError(Exception):
    """Staged outputs that could not be renamed into place (exit 3)."""


def _check_output(path: Path, taken: list[Path]) -> None:
    """Refuse an output path that cannot be staged, or that resolves to one
    of the ``taken`` paths: the later rename would replace the earlier file."""
    if path.is_dir():  # the rename onto it would fail after other outputs landed
        raise IsADirectoryError(f"output path is a directory: {path}")
    if not path.parent.is_dir():
        raise FileNotFoundError(f"output directory not found for {path}")
    if path.resolve() in [p.resolve() for p in taken]:
        raise UsageError(f"output path named twice: {path}")


class _Outputs:
    """Every file one run writes, committed together or not at all.

    ``write``, ``csv`` and ``json`` each stage a file as
    ``.tmp-<name>-<16 hex>``, created exclusively next to its output.  On
    normal exit from the ``with`` block the manifest (named after the first
    output) is staged last and every staged file is renamed onto its output
    (``_commit``); on an exception nothing is renamed and every staged file
    is removed.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self._args = args
        self._inputs: list[Path] = []
        self._t0 = time.perf_counter()
        self._staged: list[tuple[Path, Path]] = []  # (temp file, output)
        self.matches: list[dict] = []  # MatchAssignment.diagnostics() of the run's matchings
        self.datasets: dict[str, dict] = {}  # per loaded .enc input, its shape
        self.counts: dict[str, int] = {}  # subcommand-specific manifest counts
        self.summary: list[str] = []  # stdout lines, printed once the outputs are in place

    def require(self, *paths: str | Path) -> None:
        """Record input files for the manifest; a missing one is an error."""
        for p in map(Path, paths):
            if not p.exists():
                raise FileNotFoundError(f"input file not found: {p}")
            self._inputs.append(p)

    def load(self, path: str | Path) -> EncodedDataset:
        """Load an ``.enc`` input, and record its sample and household counts."""
        return self._shape(path, EncodedDataset.load(path))

    def stream(self, path: str | Path, coded: bool = False) -> EncodedStream:
        """Open an ``.enc`` input to be read a block at a time
        (``EncodedStream``, its household ids ``coded`` or only counted),
        and record the file's counts."""
        return self._shape(path, EncodedStream(path, coded))

    def _shape(self, path: str | Path, ds):
        self.datasets[str(path)] = {"n_samples": ds.n_samples, "n_households": ds.n_households()}
        return ds

    def plan(self, *paths: str | Path | None) -> None:
        """Check, before any work, every output the run will write, in staging
        order (``None`` for an unset optional one), and the manifest's path."""
        paths = [Path(p) for p in paths if p is not None]
        paths += [_manifest_path(p) for p in paths[:1]]
        for i, path in enumerate(paths):
            _check_output(path, paths[:i])

    def _stage(self, path: str | Path) -> Path:
        path = Path(path)
        _check_output(path, [output for _, output in self._staged])
        tmp = path.parent / f".tmp-{path.name}-{os.urandom(8).hex()}"
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        self._staged.append((tmp, path))
        return tmp

    def write(self, path: str | Path, write: Callable[[Path], None]) -> None:
        """Stage ``write(tmp)``, e.g. ``EncodedDataset.save``."""
        write(self._stage(path))

    def json(self, path: str | Path, obj: dict) -> None:
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        self._stage(path).write_bytes(text.encode("utf-8"))

    def csv(self, path: str | Path, header: list[str], blocks: Iterable[list]) -> None:
        """Stage a CSV of blocks of rows, each a list of equal-length columns:
        floats as ``repr``, the rest as ``str``.  A ``(values, code)`` column is
        written as ``values[code]``, gathered one chunk at a time: numeric
        values are formatted once per block and a chunk gathers their text;
        strings, and text already formatted (``_csv_text``), are gathered as
        they are."""
        with open(self._stage(path), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for columns in blocks:
                columns = [c if isinstance(c, tuple) else (np.asarray(c), None) for c in columns]
                columns = [
                    (v if c is None or v.dtype.kind in "UO" else _csv_text(v), c)
                    for v, c in columns
                ]
                values, code = columns[0]
                n = len(values if code is None else code)
                for i in range(0, n, CSV_CHUNK_ROWS):
                    rows = slice(i, i + CSV_CHUNK_ROWS)
                    chunk = [_csv_fields(v[rows] if c is None else v[c[rows]]) for v, c in columns]
                    fh.write("\n".join(map(",".join, zip(*chunk))) + "\n")

    def _manifest(self) -> dict:
        args = self._args
        return {
            "tool": "surveyfuse",
            "version": __version__,
            "subcommand": args.subcommand,
            "parameters": {
                k: (str(v) if isinstance(v, Path) else v)
                for k, v in sorted(vars(args).items())
                if k != "func"
            },
            "input_hashes": {str(p): _sha256(p) for p in self._inputs},
            "seed": getattr(args, "seed", None),
            "duration_seconds": time.perf_counter() - self._t0,
            "peak_rss_mb": _peak_rss_mb(),
            "datasets": self.datasets,
            "matches": self.matches,
            **self.counts,
            "outputs": [str(path) for _, path in self._staged],
        }

    def __enter__(self) -> _Outputs:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None and self._staged:
                self.json(_manifest_path(self._staged[0][1]), self._manifest())
                self._commit()
        finally:
            for tmp, _ in self._staged:
                tmp.unlink(missing_ok=True)

    def _commit(self) -> None:
        """Rename every staged file onto its output, or none of them.

        The files already at the outputs are moved aside first.  If any
        rename fails, or the run is interrupted, the new outputs are removed
        and the old ones put back; a failed rename is a ``CommitError``.
        Only once every output is in place are the old files removed.
        """
        aside: list[tuple[Path, Path]] = []  # (old file moved aside, its output)
        placed: list[Path] = []
        try:
            for _, path in self._staged:
                if os.path.lexists(path):
                    old = path.parent / f".old-{path.name}-{os.urandom(8).hex()}"
                    os.replace(path, old)
                    aside.append((old, path))
            for tmp, path in self._staged:
                os.replace(tmp, path)
                placed.append(path)
        except BaseException as exc:
            for path in placed:
                path.unlink()
            for old, path in aside:
                os.replace(old, path)
            if isinstance(exc, OSError):
                raise CommitError(
                    f"could not put the outputs in place, none was changed: {exc}"
                ) from exc
            raise
        for old, _ in aside:
            old.unlink()


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


# Text read per block of a totals CSV, as ``readlines`` counts it: a block's
# lines and fields stay small beside the ids and totals kept.
_TOTALS_BLOCK_CHARS = 1 << 16


def _totals_blocks(path: Path) -> Iterator[list[str]]:
    """Blocks of the lines after a totals CSV's checked header, each about
    ``_TOTALS_BLOCK_CHARS`` long, line ends as ``\\n``."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["household_id", "y_total"]:
            raise DataError(f"{path}: expected columns household_id,y_total")
        while lines := fh.readlines(_TOTALS_BLOCK_CHARS):
            yield lines


def _parse_totals(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The ids and totals of a block of lines, blank ones skipped.

    A line without exactly one comma is bad either way, so it becomes
    ``<id>,nan``; then the lines are joined and split at once into ids and
    totals, with no tuple per line.
    """
    lines = list(filter(None, map(str.strip, lines)))
    commas = np.fromiter(map(str.count, lines, repeat(",")), np.intp, len(lines))
    for i in np.flatnonzero(commas != 1).tolist():
        lines[i] = lines[i].partition(",")[0] + ",nan"
    fields = ",".join(lines).split(",") if lines else []  # id, total, id, total, ...
    n = len(fields) // 2
    try:
        values = np.fromiter(map(float, islice(fields, 1, None, 2)), np.float64, n)
    except ValueError:
        values = np.fromiter(map(_float_or_nan, islice(fields, 1, None, 2)), np.float64, n)
    return np.array(fields[0::2], dtype=np.str_), values


def _load_totals_csv(path: Path) -> Totals:
    """A ``household_id,y_total`` CSV as an ``(ids, values)`` pair sorted by id.

    Lines are stripped and blank ones skipped.  Each total is parsed with
    ``float`` and must be finite and non-negative, and no id may repeat;
    otherwise the ``DataError`` names the first offending line.  A file
    holding a NUL character is refused first, at the first line with one:
    numpy strings drop trailing NULs, so ``a\x00`` would read as ``a``.

    One pass, a block of lines at a time (``_parse_totals``): only the
    blocks' ids and totals are kept, and they are joined once at the end.
    Only a bad file is read again, to find the number and text of its
    first bad line.
    """
    ids, values, lineno = [], [], 2  # lineno: the first line of the block
    for lines in _totals_blocks(path):
        if "\x00" in "".join(lines):
            at = next(i for i, line in enumerate(lines) if "\x00" in line)
            raise DataError(f"{path}: line {lineno + at}: contains a NUL character")
        block_ids, block_values = _parse_totals(lines)
        ids.append(block_ids)
        values.append(block_values)
        lineno += len(lines)
    if not any(block.size for block in values):
        raise DataError(f"{path}: no household totals")
    values = np.concatenate(values)
    ids = np.concatenate(ids)
    bad = ~((values >= 0.0) & (values < math.inf))
    ids, values, repeated = sort_totals(ids, values)
    bad[repeated] = True
    if bad.any():
        row = int(bad.argmax())
        lineno, line = _nonblank_line(path, row)
        hid, comma, text = line.strip().partition(",")
        if not comma:
            raise DataError(f"{path}: line {lineno}: expected household_id,y_total")
        if row in repeated:
            raise DataError(f"{path}: line {lineno}: duplicate household {hid!r}")
        raise DataError(
            f"{path}: line {lineno}: total {text!r} is not a finite non-negative number"
        )
    return ids, values


def _nonblank_line(path: Path, row: int) -> tuple[int, str]:
    """The number and text of a totals CSV's ``row``-th non-blank line."""
    lines = (line for block in _totals_blocks(path) for line in block)
    numbered = ((n, line) for n, line in enumerate(lines, start=2) if line.strip())
    return next(islice(numbered, row, None))


# -- subcommand handlers ---------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace, out: _Outputs) -> int:
    spec_path = Path(args.spec) if args.spec else default_spec_path()
    out.require(args.households, args.persons, args.days, spec_path)
    out.plan(args.out)
    spec = HarmonizationSpec.from_file(spec_path)
    raw = load_tables(args.households, args.persons, args.days, args.survey_id, spec)
    out.summary.append(
        f"loaded {raw.counts['households']} households, {raw.counts['persons']} persons, "
        f"{raw.counts['days']} travel-day rows"
    )
    ds = assemble(raw, spec, args.year)
    households = raw.day_households
    del raw  # the raw tables are not written: free them before the save
    out.write(args.out, ds.save)
    out.summary.append(
        f"encoded {ds.n_samples} samples ({households} households, "
        f"{ds.n_missing} missing targets) -> {args.out}"
    )
    return EXIT_OK


def _cmd_describe(args: argparse.Namespace, out: _Outputs) -> int:
    out.require(args.data)
    out.plan(args.out)
    with out.stream(args.data) as ds:
        report = describe(ds)
    out.summary.append(json.dumps(report, indent=2))
    if args.out:
        out.json(args.out, report)
    return EXIT_OK


def _cmd_impute(args: argparse.Namespace, out: _Outputs) -> int:
    out.require(args.source, args.candidate)
    hh_out = args.out_households or Path(args.out).with_suffix(".households.csv")
    out.plan(args.out, hh_out)
    if args.tie_break == "random" and args.seed is None:
        raise DataError("--tie-break random requires --seed")
    # --source is read once, after the candidate is loaded: its packed rows,
    # coded ids and labeled rows are held, and its rows checked as they are read
    with out.stream(args.source, coded=True) as source:
        _check_csv_ids(args.source, source.households)
        candidate = out.load(args.candidate)
        run, blocks = impute_blocks(
            source,
            candidate,
            augment=not args.no_augment,
            impute_all=args.impute_all,
            tie_break=args.tie_break,
            seed=args.seed,
            household_weight=args.household_weight,
        )
    del candidate  # the buckets hold what the matching needs of it
    households, code, d = run.households, run.household_code, run.match.dimension
    # the text of every bucket index and distance, formatted once for all blocks
    buckets, distance = _csv_text(np.arange(run.match.n_target)), _csv_text(np.arange(d + 1) / d)
    out.csv(
        args.out,
        ["household_id", "sample_index", "matched_bucket", "distance", "y_imputed"],
        (
            [(households, code[rows]), np.arange(rows.start, rows.stop), (buckets, index),
             (distance, count), y]
            for rows, index, count, y in blocks
        ),
    )
    out.matches.append(run.match.diagnostics())
    out.csv(hh_out, ["household_id", "y_total"], [[households, run.household_y]])
    out.summary.append(
        f"imputed {run.n_imputed} of {code.size} samples "
        f"from {run.n_donors} donors (w = {run.weight:.4g}) -> {args.out}, {hh_out}"
    )
    return EXIT_OK


def _cmd_synthesize(args: argparse.Namespace, out: _Outputs) -> int:
    out.require(args.source2, args.source1, args.candidate)
    prov = Path(args.out).with_suffix(".provenance.csv")
    out.plan(args.out, prov)
    if args.tie_break == "random" and args.seed is None:
        raise DataError("--tie-break random requires --seed")
    # the sources are matched on covariates alone; covered households are
    # the candidate's.  Both sources are read from their files as they are
    # matched, so their rows are checked after the candidate is loaded.
    with out.stream(args.source2) as source2, out.stream(args.source1) as source1:
        candidate = out.load(args.candidate)
        synth = generate_future(
            source2,
            source1,
            candidate,
            literal_v2_norm=args.literal_v2_norm,
            tie_break=args.tie_break,
            seed=args.seed,
        )
    out.matches.extend(synth.matches)
    out.counts.update(
        reachable_buckets=synth.n_entries, covered_households=len(synth.covered_households)
    )
    out.write(args.out, synth.to_encoded_dataset(args.survey_id, args.year).save)
    out.csv(
        prov,
        ["bucket_id", "n_S", "n_G_total", "y_synth"],
        [[synth.bucket_index, synth.n_matched_samples, synth.n_matched_donors, synth.y]],
    )
    out.summary.append(
        f"synthesized {synth.n_entries} buckets covering "
        f"{len(synth.covered_households)} donor households "
        f"(w1 = {synth.w1:.4g}, w2 = {synth.w2:.4g}) -> {args.out}, {prov}"
    )
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace, out: _Outputs) -> int:
    out.require(args.imputed, args.truth)
    out.plan(args.out, args.sorted_csv)
    imputed = _load_totals_csv(Path(args.imputed))
    truth = _load_totals_csv(Path(args.truth))
    n = args.n if args.n else truth[0].size
    report = subsample_compare(imputed, truth, n=n, cutoffs=args.cutoffs, seed=args.seed)
    out.json(args.out, report.to_json_dict())
    if args.sorted_csv:
        draws = report.sorted_draws
        out.csv(
            args.sorted_csv,
            ["rank", "truth_sorted"] + [f"draw_{i}" for i in range(len(draws))],
            [[np.arange(n), report.truth_sorted, *draws]],
        )
    last = report.per_cutoff[-1]
    out.summary.append(
        f"cutoff {last.cutoff}: sorted-MSE {last.mse_mean:.4g}, "
        f"mean {last.mean_of_means:.4g}, stddev {last.mean_of_stddevs:.4g} -> {args.out}"
    )
    return EXIT_OK


def _cmd_spike(args: argparse.Namespace, out: _Outputs) -> int:
    out.require(args.a, args.b)
    out.plan(args.out)
    a = _load_totals_csv(Path(args.a))
    b = _load_totals_csv(Path(args.b))
    report = spike(a, b, n=args.n, seed=args.seed)
    out.summary.append(f"spike sorted-MSE = {report.mse:.6g} (n = {report.n})")
    if args.out:
        out.json(args.out, report.to_json_dict())
    return EXIT_OK


def _cmd_attribute(args: argparse.Namespace, out: _Outputs) -> int:
    out.require(args.data, args.candidate)
    out.plan(args.out)
    # --data is streamed: attribute_dataset holds only the rows it draws,
    # and checks every row once the candidate is loaded
    with out.stream(args.data) as ds:
        candidate = out.load(args.candidate)
        require_same_dictionary(ds, candidate)
        predictor = BucketMeanPredictor(candidate.labeled())
        report = attribute_dataset(ds, predictor, sample_limit=args.limit, seed=args.seed)
    out.matches.extend(predictor.matches)
    out.json(args.out, report.to_json_dict())
    out.summary.append(f"attributed {report.n_evaluated} samples; strongest contributions:")
    for e in report.entries[:5]:
        out.summary.append(f"  {e.feature}={e.category}: {e.mean_value:+.4g} ({e.direction})")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace, out: _Outputs) -> int:
    out.plan(args.out_full, args.out_missing)
    if args.model:
        out.require(args.model)
        model = PopulationModel.from_file(args.model)
    else:
        model = demo_model()
    full, observed = generate(
        model, args.households, args.survey_id, args.year, seed=args.seed
    )
    out.write(args.out_full, full.save)
    out.write(args.out_missing, observed.save)
    out.summary.append(
        f"generated {full.n_samples} samples over {args.households} households "
        f"({observed.n_missing} targets removed) -> {args.out_full}, {args.out_missing}"
    )
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _count(minimum: int) -> Callable[[str], int]:
    """An argparse type for a decimal integer of at least ``minimum`` (0 or 1)."""
    what = "a positive integer" if minimum else "a non-negative integer"

    def count(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return int(text)
    return count


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file supplying any flag; flags override it")
    p.add_argument("--threads", type=_count(0), default=0,
                   help="accepted for compatibility; changes nothing")


def _config_default(action: argparse.Action, value):
    """A ``--config`` value as the default of ``action``, checked as argparse
    checks a command-line value: converted by its type, a string where it has
    none, a boolean for a switch, and one of its choices."""
    key = f"config key {action.dest!r} ({action.option_strings[0]})"
    if action.nargs == 0:  # store_true
        if not isinstance(value, bool):
            raise ValueError(f"{key}: expected true or false, got {json.dumps(value)}")
        return value
    try:
        if action.type is not None:
            value = action.type(value if isinstance(value, str) else str(value))
        elif not isinstance(value, str):
            raise ValueError("expected a string")
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"{key}: invalid value {json.dumps(value)}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(
            f"config key {action.dest!r}: invalid choice {value!r} "
            f"(choose from {', '.join(map(repr, action.choices))})"
        )
    return value


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surveyfuse",
        description="Survey data fusion: Hamming nearest-neighbor imputation "
        "and future-year synthesis of household delivery demand.",
    )
    parser.add_argument("--version", action="version", version=f"surveyfuse {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", help="join survey CSVs and encode samples")
    p.add_argument("--households", required=True)
    p.add_argument("--persons", required=True)
    p.add_argument("--days", required=True)
    p.add_argument("--spec", help="harmonization spec JSON (default: shipped crosswalk)")
    p.add_argument("--survey-id", required=True)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)
    _add_common(p)

    p = sub.add_parser("describe", help="descriptive statistics of an encoded dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_describe)
    _add_common(p)

    p = sub.add_parser("impute", help="nearest-neighbor imputation from a donor pool")
    p.add_argument("--source", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--impute-all", action="store_true",
                   help="overwrite observed targets too")
    p.add_argument("--no-augment", action="store_true",
                   help="do not add labeled source samples to the donor pool")
    p.add_argument("--household-weight", action="store_true",
                   help="divide by each household's sample count instead of the global w")
    p.add_argument("--tie-break", choices=["index", "random"], default="index")
    p.add_argument("--seed", type=_count(0))
    p.add_argument("--out", required=True, help="per-sample CSV")
    p.add_argument("--out-households", help="household totals CSV "
                   "(default: <out>.households.csv)")
    p.set_defaults(func=_cmd_impute)
    _add_common(p)

    p = sub.add_parser("synthesize", help="project a future-year dataset by nested matching")
    p.add_argument("--source2", required=True, help="future-year dataset")
    p.add_argument("--source1", required=True, help="prior-year dataset")
    p.add_argument("--candidate", required=True, help="donor dataset")
    p.add_argument("--literal-v2-norm", action="store_true",
                   help="normalize by |source1| instead of per-bucket match counts")
    p.add_argument("--tie-break", choices=["index", "random"], default="index")
    p.add_argument("--seed", type=_count(0))
    p.add_argument("--survey-id", default="synthetic")
    p.add_argument("--year", type=int, default=0)
    p.add_argument("--out", required=True, help="encoded synthetic dataset")
    p.set_defaults(func=_cmd_synthesize)
    _add_common(p)

    p = sub.add_parser("evaluate", help="randomized sorted-MSE comparison of totals")
    p.add_argument("--imputed", required=True, help="household totals CSV")
    p.add_argument("--truth", required=True, help="reference totals CSV")
    p.add_argument("--n", type=_count(1), help="subset size (default: size of truth)")
    p.add_argument("--cutoffs", type=_int_list,
                   default=",".join(str(c) for c in DEFAULT_CUTOFFS))
    p.add_argument("--seed", type=_count(0), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sorted-csv", help="plot-ready sorted vectors CSV")
    p.set_defaults(func=_cmd_evaluate)
    _add_common(p)

    p = sub.add_parser("spike", help="cross-year sorted-MSE between two totals files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--n", type=_count(1), required=True)
    p.add_argument("--seed", type=_count(0), required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spike)
    _add_common(p)

    p = sub.add_parser("attribute", help="exact Shapley feature attribution")
    p.add_argument("--data", required=True)
    p.add_argument("--candidate", required=True, help="donor dataset for the predictor")
    p.add_argument("--limit", type=_count(0), default=500)
    p.add_argument("--seed", type=_count(0), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_attribute)
    _add_common(p)

    p = sub.add_parser("gen", help="generate a synthetic survey with planted truth")
    p.add_argument("--model", help="population model JSON (default: built-in demo model)")
    p.add_argument("--households", type=_count(1), required=True)
    p.add_argument("--seed", type=_count(0), required=True)
    p.add_argument("--survey-id", default="synthetic")
    p.add_argument("--year", type=int, default=2017)
    p.add_argument("--out-full", required=True, help="fully labeled oracle dataset")
    p.add_argument("--out-missing", required=True, help="dataset with targets removed")
    p.set_defaults(func=_cmd_gen)
    _add_common(p)

    # subcommand -> its first bad config value, reported only once it is chosen:
    # another subcommand may share the key with another type
    parser.config_errors = {}
    if config:
        for name, sp in sub.choices.items():
            for action in sp._actions:
                value = config.get(action.dest)
                if value is None:  # a null leaves the flag unset, and required if it was
                    continue
                try:
                    action.default = _config_default(action, value)
                except ValueError as exc:
                    parser.config_errors.setdefault(name, str(exc))
                action.required = False
    return parser


def _peek_config(argv: list[str]) -> dict:
    """The keys of the ``--config`` file named in ``argv``, found as argparse finds it."""
    peek = argparse.ArgumentParser(add_help=False)
    peek.add_argument("--config", nargs="?")  # no value: the full parser reports it
    text = peek.parse_known_args(argv)[0].config
    if text is None:
        return {}
    path = Path(text)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    cfg = read_json(path, DataError)
    if not isinstance(cfg, dict):
        raise DataError(f"{path}: config must be a JSON object")
    return {k.replace("-", "_"): v for k, v in cfg.items()}


def _print_summary(lines: list[str]) -> None:
    """Print a finished run's summary; a closed stdout (``| head -1``) ends it
    quietly, since the outputs are already in place."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at /dev/null first
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = _peek_config(argv)
        parser = build_parser(config)
        args = parser.parse_args(argv)
        if args.subcommand in parser.config_errors:
            parser.error(parser.config_errors[args.subcommand])
        # every flag of the chosen subcommand is an attribute of args; these two are not flags
        unknown = sorted(set(config) - (set(vars(args)) - {"func", "subcommand"}))
        if unknown:
            parser.error(f"{args.subcommand}: unknown config key(s): {', '.join(unknown)}")
        with _Outputs(args) as out:
            code = args.func(args, out)
        _print_summary(out.summary)
        return code
    except (FileNotFoundError, CommitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (UsageError, IsADirectoryError) as exc:  # a directory where a file belongs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DictionaryMismatchError as exc:
        print(f"error: dictionary mismatch: {exc}", file=sys.stderr)
        return EXIT_DICTIONARY_MISMATCH
    except (FusionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
