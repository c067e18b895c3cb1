"""Command line of the benchmark.

Contract form (what ``BENCHMARK.json``'s ``command`` runs, one workload, one
pass, one JSON result on the last line of stdout)::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Suite forms (``PYTHONPATH`` is not needed; ``src/`` is found from here)::

    python -m perfbench [--seed S] [--workload W] [--runs N] [--out FILE]
    python -m perfbench --smoke
    python -m perfbench --repeat-check
    python -m perfbench --compare old.json new.json
    python -m perfbench --write-golden
"""

from __future__ import annotations

import argparse
import json
import sys

from . import env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="contract form: which pass")
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--runs", type=int, default=1, help="suite: runs per workload (seeds S..)")
    parser.add_argument("--out", help="suite: write the results JSON here")
    parser.add_argument("--smoke", action="store_true", help="tiny suite, no bounds, < 30 s")
    parser.add_argument("--repeat-check", action="store_true", help="suite twice; gaps vs bounds")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="verdict table")
    parser.add_argument("--write-golden", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        from .suite import compare

        return compare(*args.compare)

    env.pin_environment()
    env.require_repro()
    from .runner import run_workload, write_golden
    from .workloads import WORKLOADS

    bench = env.load_benchmark()
    if args.workload and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    seconds = float(bench["run_seconds"]) if args.seconds is None else args.seconds

    if args.write_golden:
        write_golden()
        return 0
    if args.trace is None:
        from . import suite

        names = [args.workload] if args.workload else list(WORKLOADS)
        if args.repeat_check:
            return suite.repeat_check(names, args.seed, seconds)
        return suite.run(names, args.seed, seconds, args.runs, args.out, smoke=args.smoke)

    if not args.workload:
        parser.error("--trace needs --workload")
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace), scale=args.scale)
    section = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": float(result["metrics"].get(m["name"], 0.0)), "unit": m["unit"]}
        for m in section
    }
    undeclared = set(result["metrics"]) - set(metrics)
    if undeclared:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    keys = ("rounds", "replies", "measured_s", "host_slowdown", "raw_min_median_max")
    info = {k: result[k] for k in keys}
    print(json.dumps({"info": {**info, **env.fingerprint()}}))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1
