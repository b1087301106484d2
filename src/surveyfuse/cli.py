"""Command-line pipeline: ingest, describe, impute, synthesize, evaluate,
spike, attribute, gen.

Every file a run writes goes through one ``_Outputs`` writer: each
subcommand first checks that every output path it will write (and the
manifest's) can be staged, before it loads any input; each output is
staged in a temp file next to it, a machine-readable manifest (resolved
parameters, input hashes, seed, wall-clock duration, peak RSS, and per
match its workload shape and distance histogram) is staged last next to
the first output, and only when every one is staged are they all renamed
into place.  A run that fails at any point leaves no outputs.
Artifacts are byte-deterministic for a fixed seed; the manifest is not
(it records the duration and the peak RSS).

Stochastic subcommands refuse to run without an explicit ``--seed``.
The CLI sets ``OPENBLAS_NUM_THREADS=1`` before it imports numpy unless the
caller has set it: surveyfuse calls no BLAS routine, so a BLAS thread pool
would only spin; ``--threads`` is accepted for compatibility and changes nothing.
Exit codes: 0 success, 2 usage error, 3 missing input file or output
directory, 4 feature-dictionary mismatch, 5 schema/mapping/data error,
1 unexpected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import secrets
import sys
import time
from collections.abc import Callable
from pathlib import Path

# surveyfuse calls no BLAS routine, and idle OpenBLAS worker threads spin after they start
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .attribution import BucketMeanPredictor, attribute_dataset
from .dataset import EncodedDataset, require_same_dictionary
from .datagen import PopulationModel, demo_model, generate
from .errors import DataError, DictionaryMismatchError, FusionError
from .evaluation import DEFAULT_CUTOFFS, Totals, sort_totals, spike, subsample_compare
from .ingest import assemble, describe, load_tables
from .matching import augment_candidate, impute
from .schema import HarmonizationSpec, default_spec_path, read_json
from .synthesis import generate_future

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_DICTIONARY_MISMATCH = 4
EXIT_DATA = 5


# -- the run's outputs: staged, then committed together -------------------------

CSV_CHUNK_ROWS = 16_384  # rows formatted per write; bounds the formatting memory


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _csv_fields(column: np.ndarray) -> list[str]:
    """The CSV text of each value: floats as ``repr``, the rest as ``str``.

    Output columns repeat few values, so each distinct value is formatted
    once and indexed back.  Floats are keyed on their bits, which keeps
    ``-0.0`` and ``0.0`` apart.
    """
    if column.dtype.kind == "U":
        return column.tolist()
    floats = column.dtype.kind == "f"
    distinct, inverse = np.unique(
        column.view(f"i{column.itemsize}") if floats else column, return_inverse=True
    )
    values = (distinct.view(column.dtype) if floats else distinct).tolist()
    text = np.array(list(map(repr if floats else str, values)), dtype=object)
    return text[inverse].tolist()


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB (2**20 bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _manifest_path(first_output: Path) -> Path:
    return Path(str(first_output) + ".manifest.json")


def _check_output(path: Path) -> None:
    if path.is_dir():  # the rename onto it would fail after other outputs landed
        raise IsADirectoryError(f"output path is a directory: {path}")
    if not path.parent.is_dir():
        raise FileNotFoundError(f"output directory not found for {path}")


class _Outputs:
    """Every file one run writes, committed together or not at all.

    ``write``, ``csv`` and ``json`` each stage a file as
    ``.tmp-<name>-<16 hex>``, created exclusively next to its output.  On
    normal exit from the ``with`` block the manifest (named after the first
    output) is staged last and every staged file is renamed onto its output;
    on an exception nothing is renamed and every staged file is removed.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self._args = args
        self._inputs: list[Path] = []
        self._t0 = time.perf_counter()
        self._staged: list[tuple[Path, Path]] = []  # (temp file, output)
        self.matches: list[dict] = []  # MatchAssignment.diagnostics() of the run's matchings

    def require(self, *paths: str | Path) -> None:
        """Record input files for the manifest; a missing one is an error."""
        for p in map(Path, paths):
            if not p.exists():
                raise FileNotFoundError(f"input file not found: {p}")
            self._inputs.append(p)

    def plan(self, *paths: str | Path | None) -> None:
        """Check, before any work, every output the run will write, in staging
        order (``None`` for an unset optional one), and the manifest's path."""
        paths = [Path(p) for p in paths if p is not None]
        for path in paths + [_manifest_path(p) for p in paths[:1]]:
            _check_output(path)

    def _stage(self, path: str | Path) -> Path:
        path = Path(path)
        _check_output(path)
        tmp = path.parent / f".tmp-{path.name}-{secrets.token_hex(8)}"
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        self._staged.append((tmp, path))
        return tmp

    def write(self, path: str | Path, write: Callable[[Path], None]) -> None:
        """Stage ``write(tmp)``, e.g. ``EncodedDataset.save``."""
        write(self._stage(path))

    def json(self, path: str | Path, obj: dict) -> None:
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        self._stage(path).write_bytes(text.encode("utf-8"))

    def csv(self, path: str | Path, header: list[str], columns: list) -> None:
        """Stage a CSV of equal-length columns: floats as ``repr``, the rest as ``str``."""
        columns = [np.asarray(c) for c in columns]
        with open(self._stage(path), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(0, len(columns[0]), CSV_CHUNK_ROWS):
                chunk = [_csv_fields(c[i : i + CSV_CHUNK_ROWS]) for c in columns]
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
            "matches": self.matches,
            "outputs": [str(path) for _, path in self._staged],
        }

    def __enter__(self) -> _Outputs:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None and self._staged:
                self.json(_manifest_path(self._staged[0][1]), self._manifest())
                for tmp, path in self._staged:
                    os.replace(tmp, path)
        finally:
            for tmp, _ in self._staged:
                tmp.unlink(missing_ok=True)


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _load_totals_csv(path: Path) -> Totals:
    """A ``household_id,y_total`` CSV as an ``(ids, values)`` pair sorted by id.

    Lines are stripped and blank ones skipped.  Each total is parsed with
    ``float`` and must be finite and non-negative, and no id may repeat;
    otherwise the ``DataError`` names the first offending line.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["household_id", "y_total"]:
            raise DataError(f"{path}: expected columns household_id,y_total")
        lines = [line.strip() for line in fh.read().split("\n")]
    rows = [line.partition(",") for line in lines if line]
    if not rows:
        raise DataError(f"{path}: no household totals")
    ids = np.array([r[0] for r in rows], dtype=np.str_)
    texts = [r[2] for r in rows]
    try:
        values = np.array(list(map(float, texts)))
    except ValueError:  # also a line without a comma, whose text is ""
        values = np.array(list(map(_float_or_nan, texts)))
    bad = ~((values >= 0.0) & (values < math.inf))
    ids, values, repeated = sort_totals(ids, values)
    bad[repeated] = True
    if bad.any():
        row = int(np.argmax(bad))
        lineno = [n for n, line in enumerate(lines, start=2) if line][row]
        hid, comma, text = rows[row]
        if not comma:
            raise DataError(f"{path}: line {lineno}: expected household_id,y_total")
        if row in repeated:
            raise DataError(f"{path}: line {lineno}: duplicate household {hid!r}")
        raise DataError(
            f"{path}: line {lineno}: total {text!r} is not a finite non-negative number"
        )
    return ids, values


# -- subcommand handlers ---------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace, out: _Outputs) -> int:
    spec_path = Path(args.spec) if args.spec else default_spec_path()
    out.require(args.households, args.persons, args.days, spec_path)
    out.plan(args.out)
    spec = HarmonizationSpec.from_file(spec_path)
    raw = load_tables(args.households, args.persons, args.days, args.survey_id, spec)
    print(
        f"loaded {raw.counts['households']} households, {raw.counts['persons']} persons, "
        f"{raw.counts['days']} travel-day rows"
    )
    ds = assemble(raw, spec, args.year)
    out.write(args.out, ds.save)
    print(
        f"encoded {ds.n_samples} samples ({raw.day_households} households, "
        f"{ds.n_missing} missing targets) -> {args.out}"
    )
    return EXIT_OK


def _cmd_describe(args: argparse.Namespace, out: _Outputs) -> int:
    out.require(args.data)
    out.plan(args.out)
    report = describe(EncodedDataset.load(args.data))
    print(json.dumps(report, indent=2))
    if args.out:
        out.json(args.out, report)
    return EXIT_OK


def _cmd_impute(args: argparse.Namespace, out: _Outputs) -> int:
    out.require(args.source, args.candidate)
    hh_out = args.out_households or Path(args.out).with_suffix(".households.csv")
    out.plan(args.out, hh_out)
    if args.tie_break == "random" and args.seed is None:
        raise DataError("--tie-break random requires --seed")
    source = EncodedDataset.load(args.source)
    candidate = EncodedDataset.load(args.candidate)
    if not args.no_augment:
        candidate = augment_candidate(source, candidate)
    result = impute(
        source,
        candidate,
        impute_all=args.impute_all,
        tie_break=args.tie_break,
        seed=args.seed,
        household_weight=args.household_weight,
    )
    a = result.assignment
    out.matches.append(a.diagnostics())
    out.csv(
        args.out,
        ["household_id", "sample_index", "matched_bucket", "distance", "y_imputed"],
        [source.household_ids, np.arange(source.n_samples), a.target_index, a.distance,
         result.sample_y],
    )
    out.csv(hh_out, ["household_id", "y_total"], [result.household_ids, result.household_y])
    print(
        f"imputed {int(result.imputed_mask.sum())} of {source.n_samples} samples "
        f"from {candidate.n_samples} donors (w = {result.weight:.4g}) -> {args.out}, {hh_out}"
    )
    return EXIT_OK


def _cmd_synthesize(args: argparse.Namespace, out: _Outputs) -> int:
    out.require(args.source2, args.source1, args.candidate)
    prov = Path(args.out).with_suffix(".provenance.csv")
    out.plan(args.out, prov)
    if args.tie_break == "random" and args.seed is None:
        raise DataError("--tie-break random requires --seed")
    source2 = EncodedDataset.load(args.source2)
    source1 = EncodedDataset.load(args.source1)
    candidate = EncodedDataset.load(args.candidate)
    synth = generate_future(
        source2,
        source1,
        candidate,
        literal_v2_norm=args.literal_v2_norm,
        tie_break=args.tie_break,
        seed=args.seed,
    )
    out.matches.extend(synth.matches)
    out.write(args.out, synth.to_encoded_dataset(args.survey_id, args.year).save)
    out.csv(
        prov,
        ["bucket_id", "n_S", "n_G_total", "y_synth"],
        [synth.bucket_index, synth.n_matched_samples, synth.n_matched_donors, synth.y],
    )
    print(
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
            [np.arange(n), report.truth_sorted, *draws],
        )
    last = report.per_cutoff[-1]
    print(
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
    print(f"spike sorted-MSE = {report.mse:.6g} (n = {report.n})")
    if args.out:
        out.json(args.out, report.to_json_dict())
    return EXIT_OK


def _cmd_attribute(args: argparse.Namespace, out: _Outputs) -> int:
    out.require(args.data, args.candidate)
    out.plan(args.out)
    ds = EncodedDataset.load(args.data)
    candidate = EncodedDataset.load(args.candidate)
    require_same_dictionary(ds, candidate)
    predictor = BucketMeanPredictor(candidate.labeled())
    report = attribute_dataset(ds, predictor, sample_limit=args.limit, seed=args.seed)
    out.matches.extend(predictor.matches)
    out.json(args.out, report.to_json_dict())
    print(f"attributed {report.n_evaluated} samples; strongest contributions:")
    for e in report.entries[:5]:
        print(f"  {e.feature}={e.category}: {e.mean_value:+.4g} ({e.direction})")
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
    print(
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
    p.add_argument("--seed", type=int)
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
    p.add_argument("--seed", type=int)
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
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sorted-csv", help="plot-ready sorted vectors CSV")
    p.set_defaults(func=_cmd_evaluate)
    _add_common(p)

    p = sub.add_parser("spike", help="cross-year sorted-MSE between two totals files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--n", type=_count(1), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spike)
    _add_common(p)

    p = sub.add_parser("attribute", help="exact Shapley feature attribution")
    p.add_argument("--data", required=True)
    p.add_argument("--candidate", required=True, help="donor dataset for the predictor")
    p.add_argument("--limit", type=_count(0), default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_attribute)
    _add_common(p)

    p = sub.add_parser("gen", help="generate a synthetic survey with planted truth")
    p.add_argument("--model", help="population model JSON (default: built-in demo model)")
    p.add_argument("--households", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--survey-id", default="synthetic")
    p.add_argument("--year", type=int, default=2017)
    p.add_argument("--out-full", required=True, help="fully labeled oracle dataset")
    p.add_argument("--out-missing", required=True, help="dataset with targets removed")
    p.set_defaults(func=_cmd_gen)
    _add_common(p)

    if config:
        # config values become defaults, which argparse converts only when they
        # are strings and never checks against choices: do both here.  A null
        # leaves the flag unset, so a required one must come from the command line.
        for sp in sub.choices.values():
            for action in sp._actions:
                value = config.get(action.dest)
                if value is None:
                    continue
                if action.nargs == 0 and not isinstance(value, bool):  # store_true
                    parser.error(
                        f"config key {action.dest!r} ({action.option_strings[0]}): "
                        f"expected true or false, got {json.dumps(value)}"
                    )
                if action.type is not None:
                    try:
                        value = action.type(value if isinstance(value, str) else str(value))
                    except (ValueError, argparse.ArgumentTypeError) as exc:
                        parser.error(
                            f"config key {action.dest!r} ({action.option_strings[0]}): "
                            f"invalid value {json.dumps(value)}: {exc}"
                        )
                if action.choices is not None and value not in action.choices:
                    parser.error(
                        f"config key {action.dest!r}: invalid choice {value!r} "
                        f"(choose from {', '.join(map(repr, action.choices))})"
                    )
                action.default = value
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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = _peek_config(argv)
        parser = build_parser(config)
        args = parser.parse_args(argv)
        # every flag of the chosen subcommand is an attribute of args; these two are not flags
        unknown = sorted(set(config) - (set(vars(args)) - {"func", "subcommand"}))
        if unknown:
            parser.error(f"{args.subcommand}: unknown config key(s): {', '.join(unknown)}")
        with _Outputs(args) as out:
            return args.func(args, out)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except DictionaryMismatchError as exc:
        print(f"error: dictionary mismatch: {exc}", file=sys.stderr)
        return EXIT_DICTIONARY_MISMATCH
    except (FusionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
