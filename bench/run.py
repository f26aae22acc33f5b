"""Benchmark of the unilc2 package.

    python3 bench/run.py --workload machine-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics; the names and units are those of BENCHMARK.json.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it records the environment and the input hash.
Without --workload every workload runs in turn, each in its own process.

Exit codes: 0 every answer correct, 1 some case failed its check or raised,
2 the program or BENCHMARK.json is missing or a metric could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("machine-sweep", "identity-sweep", "user-forms")


def _declared(trace: int):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_one(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from ubench import runner

    env = runner.environment(ROOT)
    if args.trace:
        metrics, samples, tally, digest = runner.traced(
            ROOT, args.workload, args.seed, args.seconds, ROOT / "bench" / "out")
    else:
        metrics, samples, tally, digest = runner.end_to_end(
            ROOT, args.workload, args.seed, args.seconds)
    env["loadavg_end"] = list(os.getloadavg())
    declared = _declared(args.trace)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 2
    failed_frac = tally.failed / tally.attempted
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  inputs sha256 {digest[:16]}")
    for m in declared:
        print(f"  {m['name']:44s} {_fmt(metrics[m['name']]):>14s} {m['unit']:6s} "
              f"{samples.get(m['name'], '')}")
    print(f"  {'failed_frac':44s} {_fmt(failed_frac):>14s} {'ratio':6s} "
          f"{tally.failed} failed of {tally.attempted} attempted")
    for line in tally.failures:
        print(f"  FAILED {line}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": digest, "env": env, "samples": samples,
        "failed_frac": failed_frac, "failures": tally.failures,
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2] if proc.returncode in (0, 1) else lines))
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "unilc2" / "__init__.py").is_file():
        print(f"error: no unilc2 package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
