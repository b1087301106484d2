"""surveyfuse benchmark: the paper's batch pipeline through the CLI.

Run from the root of a source checkout:

    python3 bench/run.py --workload impute-ref --seed 99 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 99 --seconds 20 --trace 1

Inputs are generated from `--seed`; every `surveyfuse` call runs as its own
child process with `src/` of the checkout on `PYTHONPATH`.  With
`--trace 0` the result holds the end-to-end metrics, with `--trace 1` the
per-layer ones from a traced run.  The last line of standard output is
the result as one JSON object; a readable summary goes to standard error.
Workloads, metrics and their bounds are listed in BENCHMARK.json;
`bench/pinned.json` documents each workload and pins its artifact digests.
The benchmark's self-tests run with `python3 -m pytest -q bench`.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent


def _summary(name: str, seed: int, result) -> str:
    lines = [f"{name} (seed {seed}):"]
    plain = [s for s in result.samples if not s.traced]
    n = len(plain)
    tail = f"{n} samples"
    if n >= 20:  # highest percentile with at least ten samples beyond it
        p = int(100 * (1 - 10 / n))
        walls = sorted(s.wall_s for s in plain)
        tail += f", p{p} wall_s {statistics.quantiles(walls, n=100)[p - 1]:.4f} s"
    else:
        tail += "; too few for a percentile with ten samples beyond it"
    lines.append(f"  {tail}")
    lines.append("  wall_s samples: " + ", ".join(f"{s.wall_s:.4f}" for s in plain))
    for metric, m in result.metrics.items():
        lines.append(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
    if result.setup_s:
        lines.append("  setup_s samples: " + ", ".join(f"{t:.4f}" for t in result.setup_s))
    ratio = result.failed / result.attempted
    lines.append(f"  failed_ratio {ratio:.4g} ({result.failed} of {result.attempted} calls)")
    for s in result.samples:
        for call, problems in s.failures.items():
            for p in problems:
                lines.append(f"  FAILED call {call}{' (traced)' if s.traced else ''}: {p}")
    lines += [f"  FAILED: {p}" for p in result.problems]
    for rel, digest in result.digests.items():
        lines.append(f"  sha256 {digest} {rel}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "surveyfuse" / "cli.py").is_file():
        print(f"error: no surveyfuse sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    import surveyfuse
    import workloads

    if Path(surveyfuse.__file__).resolve().parent != (src / "surveyfuse").resolve():
        print(f"error: imported surveyfuse from {surveyfuse.__file__}, not {src}",
              file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {list(workloads.WORKLOADS)} or all")
    pinned = json.loads((BENCH_DIR / "pinned.json").read_text(encoding="utf-8"))
    print(f"python {platform.python_version()}, numpy {numpy.__version__}", file=sys.stderr)
    for name in names:
        pins = None
        if args.seed == pinned["default_seed"]:
            pins = pinned["workloads"][name]["artifacts"]
        result = workloads.run(
            workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), ROOT, pins=pins
        )
        print(_summary(name, args.seed, result), file=sys.stderr)
        print(json.dumps(result.to_json()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
