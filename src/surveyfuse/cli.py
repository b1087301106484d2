"""Command-line pipeline: ingest, describe, impute, synthesize, evaluate,
spike, attribute, gen.

Every run writes its primary artifacts atomically (temp file + rename)
and drops a machine-readable manifest next to the first output recording
the resolved parameters, input hashes, seed, and wall-clock duration.
Artifacts themselves are byte-deterministic for a fixed seed; the
manifest is not (it records the duration).

Stochastic subcommands refuse to run without an explicit ``--seed``.
Exit codes: 0 success, 2 usage error, 3 missing input file,
4 feature-dictionary mismatch, 5 schema/mapping/data error, 1 unexpected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import secrets
import sys
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import __version__
from .attribution import BucketMeanPredictor, attribute_dataset
from .dataset import EncodedDataset, require_same_dictionary
from .datagen import PopulationModel, demo_model, generate
from .errors import (
    DataError,
    DictionaryMismatchError,
    FusionError,
    IngestionError,
    MappingError,
    SchemaError,
)
from .evaluation import DEFAULT_CUTOFFS, spike, subsample_compare
from .ingest import assemble, describe, load_tables
from .matching import augment_candidate, impute
from .schema import HarmonizationSpec, default_spec_path
from .synthesis import generate_future

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_DICTIONARY_MISMATCH = 4
EXIT_DATA = 5


# -- atomic, deterministic artifact writers ------------------------------------


def _atomic_write(path: Path, write: Callable[[Path], None]) -> None:
    """Run ``write(tmp)`` on a temp file next to ``path``, then rename it over ``path``.

    The temp name is unique to the call (created exclusively, so concurrent
    runs never share one) and is removed if ``write`` or the rename fails.
    """
    tmp = path.parent / f".tmp-{path.name}-{secrets.token_hex(8)}"
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, lambda tmp: tmp.write_bytes(text.encode("utf-8")))


def _write_json(path: Path, obj: dict) -> None:
    _atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _csv_line(fields) -> str:
    return ",".join(str(f) for f in fields)


def _fmt(v: float) -> str:
    return repr(float(v))


# -- manifests ------------------------------------------------------------------


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(args: argparse.Namespace, inputs: list[Path], outputs: list[Path], t0: float) -> None:
    params = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k not in ("func",)
    }
    manifest = {
        "tool": "surveyfuse",
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": params,
        "input_hashes": {str(p): _sha256(p) for p in inputs},
        "seed": getattr(args, "seed", None),
        "duration_seconds": time.perf_counter() - t0,
        "outputs": [str(p) for p in outputs],
    }
    _write_json(Path(str(outputs[0]) + ".manifest.json"), manifest)


def _require_inputs(*paths: str | Path) -> list[Path]:
    out = []
    for p in paths:
        p = Path(p)
        if not p.exists():
            raise FileNotFoundError(f"input file not found: {p}")
        out.append(p)
    return out


def _resolve_threads(args: argparse.Namespace) -> int:
    return args.threads if args.threads else (os.cpu_count() or 1)


def _load_totals_csv(path: Path) -> dict[str, float]:
    totals: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["household_id", "y_total"]:
            raise DataError(f"{path}: expected columns household_id,y_total")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            hid, val = line.split(",", 1)
            if hid in totals:
                raise DataError(f"{path}: line {lineno}: duplicate household {hid!r}")
            value = float(val)
            if not 0.0 <= value < math.inf:
                raise DataError(
                    f"{path}: line {lineno}: total {val!r} is not a finite non-negative number"
                )
            totals[hid] = value
    if not totals:
        raise DataError(f"{path}: no household totals")
    return totals


def _write_totals_csv(path: Path, ids, totals) -> None:
    lines = ["household_id,y_total"]
    lines += [_csv_line([h, _fmt(t)]) for h, t in zip(ids, totals)]
    _atomic_write_text(path, "\n".join(lines) + "\n")


# -- subcommand handlers ---------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec_path = Path(args.spec) if args.spec else default_spec_path()
    inputs = _require_inputs(args.households, args.persons, args.days, spec_path)
    spec = HarmonizationSpec.from_file(spec_path)
    raw = load_tables(args.households, args.persons, args.days, args.survey_id, spec)
    print(
        f"loaded {raw.counts['households']} households, {raw.counts['persons']} persons, "
        f"{raw.counts['days']} travel-day rows"
    )
    ds = assemble(raw, spec, args.year)
    out = Path(args.out)
    _atomic_write(out, ds.save)
    print(
        f"encoded {ds.n_samples} samples ({ds.n_households()} households, "
        f"{ds.n_missing} missing targets) -> {out}"
    )
    _write_manifest(args, inputs, [out], t0)
    return EXIT_OK


def _cmd_describe(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    inputs = _require_inputs(args.data)
    ds = EncodedDataset.load(args.data)
    report = describe(ds)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        out = Path(args.out)
        _write_json(out, report)
        _write_manifest(args, inputs, [out], t0)
    return EXIT_OK


def _cmd_impute(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    inputs = _require_inputs(args.source, args.candidate)
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
        threads=_resolve_threads(args),
        household_weight=args.household_weight,
    )
    out = Path(args.out)
    hh_out = Path(args.out_households) if args.out_households else out.with_suffix(
        ".households.csv"
    )
    lines = ["household_id,sample_index,matched_bucket,distance,y_imputed"]
    a = result.assignment
    lines += [
        _csv_line(
            [
                source.household_ids[i],
                i,
                a.target_index[i],
                _fmt(a.distance[i]),
                _fmt(result.sample_y[i]),
            ]
        )
        for i in range(source.n_samples)
    ]
    _atomic_write_text(out, "\n".join(lines) + "\n")
    _write_totals_csv(hh_out, result.household_ids, result.household_y)
    print(
        f"imputed {int(result.imputed_mask.sum())} of {source.n_samples} samples "
        f"from {candidate.n_samples} donors (w = {result.weight:.4g}) -> {out}, {hh_out}"
    )
    _write_manifest(args, inputs, [out, hh_out], t0)
    return EXIT_OK


def _cmd_synthesize(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    inputs = _require_inputs(args.source2, args.source1, args.candidate)
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
        threads=_resolve_threads(args),
    )
    out = Path(args.out)
    ds = synth.to_encoded_dataset(args.survey_id, args.year)
    _atomic_write(out, ds.save)
    prov = out.with_suffix(".provenance.csv")
    lines = ["bucket_id,n_S,n_G_total,y_synth"]
    lines += [
        _csv_line([int(b), int(ns), int(ng), _fmt(yv)])
        for b, ns, ng, yv in zip(
            synth.bucket_index, synth.n_matched_samples, synth.n_matched_donors, synth.y
        )
    ]
    _atomic_write_text(prov, "\n".join(lines) + "\n")
    print(
        f"synthesized {synth.n_entries} buckets covering "
        f"{len(synth.covered_households)} donor households "
        f"(w1 = {synth.w1:.4g}, w2 = {synth.w2:.4g}) -> {out}, {prov}"
    )
    _write_manifest(args, inputs, [out, prov], t0)
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    inputs = _require_inputs(args.imputed, args.truth)
    imputed = _load_totals_csv(Path(args.imputed))
    truth = _load_totals_csv(Path(args.truth))
    cutoffs = tuple(int(c) for c in args.cutoffs.split(","))
    n = args.n if args.n else len(truth)
    report = subsample_compare(imputed, truth, n=n, cutoffs=cutoffs, seed=args.seed)
    out = Path(args.out)
    _write_json(out, report.to_json_dict())
    outputs = [out]
    if args.sorted_csv:
        sc = Path(args.sorted_csv)
        truth_sorted = np.sort(np.array(list(truth.values())))
        ids = np.array(sorted(imputed.keys()))
        totals = np.array([imputed[str(i)] for i in ids])
        draws = []
        for it in range(min(3, cutoffs[-1])):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([args.seed, it]))
            )
            draws.append(np.sort(totals[rng.choice(ids.size, size=n, replace=False)]))
        header = ["rank", "truth_sorted"] + [f"draw_{i}" for i in range(len(draws))]
        lines = [_csv_line(header)]
        for r in range(n):
            lines.append(
                _csv_line([r, _fmt(truth_sorted[r])] + [_fmt(d[r]) for d in draws])
            )
        _atomic_write_text(sc, "\n".join(lines) + "\n")
        outputs.append(sc)
    last = report.per_cutoff[-1]
    print(
        f"cutoff {last.cutoff}: sorted-MSE {last.mse_mean:.4g}, "
        f"mean {last.mean_of_means:.4g}, stddev {last.mean_of_stddevs:.4g} -> {out}"
    )
    _write_manifest(args, inputs, outputs, t0)
    return EXIT_OK


def _cmd_spike(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    inputs = _require_inputs(args.a, args.b)
    a = _load_totals_csv(Path(args.a))
    b = _load_totals_csv(Path(args.b))
    report = spike(a, b, n=args.n, seed=args.seed)
    print(f"spike sorted-MSE = {report.mse:.6g} (n = {report.n})")
    if args.out:
        out = Path(args.out)
        _write_json(out, report.to_json_dict())
        _write_manifest(args, inputs, [out], t0)
    return EXIT_OK


def _cmd_attribute(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    inputs = _require_inputs(args.data, args.candidate)
    ds = EncodedDataset.load(args.data)
    candidate = EncodedDataset.load(args.candidate)
    if args.predictor != "bucket-mean":
        raise DataError(f"unknown predictor {args.predictor!r}")
    require_same_dictionary(ds, candidate)
    predictor = BucketMeanPredictor(candidate.labeled())
    report = attribute_dataset(ds, predictor, sample_limit=args.limit, seed=args.seed)
    out = Path(args.out)
    _write_json(out, report.to_json_dict())
    top = report.entries[:5]
    print(f"attributed {report.n_evaluated} samples; strongest contributions:")
    for e in top:
        print(f"  {e.feature}={e.category}: {e.mean_value:+.4g} ({e.direction})")
    _write_manifest(args, inputs, [out], t0)
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    inputs = []
    if args.model:
        inputs = _require_inputs(args.model)
        model = PopulationModel.from_file(args.model)
    else:
        model = demo_model()
    full, observed = generate(
        model, args.households, args.survey_id, args.year, seed=args.seed
    )
    out_full, out_missing = Path(args.out_full), Path(args.out_missing)
    _atomic_write(out_full, full.save)
    _atomic_write(out_missing, observed.save)
    print(
        f"generated {full.n_samples} samples over {args.households} households "
        f"({observed.n_missing} targets removed) -> {out_full}, {out_missing}"
    )
    _write_manifest(args, inputs, [out_full, out_missing], t0)
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file supplying any flag; flags override it")
    p.add_argument(
        "--threads", type=int, default=0, help="worker threads (0 = all cores)"
    )


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
    p.add_argument("--n", type=int, help="subset size (default: size of truth)")
    p.add_argument("--cutoffs", default=",".join(str(c) for c in DEFAULT_CUTOFFS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sorted-csv", help="plot-ready sorted vectors CSV")
    p.set_defaults(func=_cmd_evaluate)
    _add_common(p)

    p = sub.add_parser("spike", help="cross-year sorted-MSE between two totals files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spike)
    _add_common(p)

    p = sub.add_parser("attribute", help="exact Shapley feature attribution")
    p.add_argument("--data", required=True)
    p.add_argument("--predictor", default="bucket-mean", choices=["bucket-mean"])
    p.add_argument("--candidate", required=True, help="donor dataset for the predictor")
    p.add_argument("--limit", type=int, default=500)
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
        for sp in sub.choices.values():
            known = {a.dest for a in sp._actions}
            sp.set_defaults(**{k: v for k, v in config.items() if k in known})
            for action in sp._actions:
                if action.dest in config and action.required:
                    action.required = False
    return parser


def _peek_config(argv: list[str]) -> dict:
    if "--config" not in argv:
        return {}
    i = argv.index("--config")
    if i + 1 >= len(argv):
        return {}
    path = Path(argv[i + 1])
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
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
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except DictionaryMismatchError as exc:
        print(f"error: dictionary mismatch: {exc}", file=sys.stderr)
        return EXIT_DICTIONARY_MISMATCH
    except (SchemaError, MappingError, IngestionError, DataError, FusionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
