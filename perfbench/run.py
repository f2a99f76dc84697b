#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload so-longwin --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` makes a separate traced run and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment, sizes and sample counts.  With
``--workload all`` each workload runs in its own process, one after the
other, and one table of every metric, by name and unit, is printed;
the exit status is 1 if any workload's gate failed.  Workloads and
metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("so-longwin", "so-churn")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(outcome: dict, trace: bool) -> dict:
    """The final result object: every metric of the run's kind, each
    with its unit."""
    from perfbench.metrics import END_TO_END, PER_LAYER

    spec = PER_LAYER if trace else END_TO_END
    metrics = outcome["metrics"]
    if set(metrics) != set(spec):
        raise RuntimeError(
            f"metric set differs from the spec: {sorted(set(metrics) ^ set(spec))}"
        )
    return {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in spec.items()
        },
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{workload}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no engine sources under {ROOT / 'src'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import engine_wl

    outcome = engine_wl.run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = outcome.pop("detail")
    print(json.dumps({"detail": detail}, default=str))
    result = result_line(outcome, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
