"""The suite: every workload, both passes, each run in its own process.

Each run is the contract command in a subprocess, exactly as the driver
invokes it, so set-up time and peak RSS of one workload cannot leak into the
next.  Results are kept as one list of values per (workload, metric) — one
entry per run — which is what ``--compare`` needs to tell a shift from noise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import env

RUN_PY = Path(__file__).resolve().parent / "run.py"
#: Per-layer metrics that are pure functions of the seed: fixed work of the
#: first traced round, counted in-process.  They must repeat exactly.
EXACT_SUFFIXES = (
    ".grant_calls", ".body_calls", ".calls", ".trials_per_call",
    "sim.sweep.run_calls", "sim.sweep.units", ".request_bytes",
)


def is_exact(metric: str) -> bool:
    return metric.startswith(("sim.", "service.protocol.")) and metric.endswith(EXACT_SUFFIXES)


def _run_one(name: str, seed: int, seconds: float, trace: int, scale: float = 1.0) -> dict:
    cmd = [
        sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--scale", str(scale),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=env.ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {name} (trace {trace}) printed no result, rc={proc.returncode}")
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    result["values"] = {k: v["value"] for k, v in result.pop("metrics").items()}
    return result


def _collect(names, seed, seconds, runs, *, scale=1.0, jobs=1) -> dict:
    """``{workload: {"end_to_end": {m: [..]}, "per_layer": {m: [..]}, ...}}``."""
    tasks = [(n, seed + i, seconds, t, scale) for n in names for i in range(runs) for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(lambda task: _run_one(*task), tasks))
    out: dict = {}
    for (name, _, _, trace, _), res in zip(tasks, results):
        entry = out.setdefault(
            name,
            {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0,
             "rounds": [], "noisy": False},
        )
        section = entry["per_layer" if trace else "end_to_end"]
        for metric, value in res["values"].items():
            section.setdefault(metric, []).append(value)
        entry["attempted"] += res["attempted"]
        entry["failed"] += res["failed"]
        entry["noisy"] |= res["info"]["noisy"]
        if not trace:
            entry["rounds"].append(res["info"]["rounds"])
    return out


def _print_results(results: dict, bench: dict) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    gated = {w["name"] for w in bench["workloads"]}
    print("\nEnd-to-end (best round, host slowdown taken out; [min .. max] over runs)")
    for name, entry in results.items():
        flag = "" if name in gated else "  (suite only: not in BENCHMARK.json)"
        flag += "  NOISY (loadavg > nproc)" if entry["noisy"] else ""
        print(
            f"\n  {name}: attempted {entry['attempted']}, failed {entry['failed']}, "
            f"failed_share {entry['failed'] / max(1, entry['attempted']):.4f}, "
            f"rounds {entry['rounds']}{flag}"
        )
        for metric, values in entry["end_to_end"].items():
            print(
                f"    {metric:<18} {statistics.median(values):>14.4f} {units[metric]:<4}"
                f" [{min(values):.4f} .. {max(values):.4f}]"
            )
    print("\nPer-layer (traced pass; 0 = layer not exercised by the workload, omitted)")
    for name, entry in results.items():
        print(f"\n  {name}")
        for metric, values in entry["per_layer"].items():
            if any(values):
                print(f"    {metric:<44} {statistics.median(values):>14.6g} {units[metric]}")


def run(names, seed: int, seconds: float, runs: int, out: str | None, *, smoke: bool = False) -> int:
    """Run the suite, print both tables, write the results JSON.

    ``smoke``: one round at a tenth of the op counts, two runs at a time, no
    bounds — a < 30 s check that every workload and metric still works.
    """
    fingerprint = env.fingerprint()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in fingerprint.items()))
    if smoke:
        seconds, runs = 0.0, 1
        results = _collect(names, seed, seconds, runs, scale=0.1, jobs=min(2, env.nproc()))
    else:
        print(f"perfbench: seed {seed}, {seconds:g} s per run, {runs} run(s) per workload")
        results = _collect(names, seed, seconds, runs)
    _print_results(results, env.load_benchmark())
    default = "results-smoke.json" if smoke else f"results-seed{seed}.json"
    path = Path(out) if out else env.OUT / default
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"machine": fingerprint, "seed": seed, "seconds": seconds, "workloads": results}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nresults written to {path}")
    return 1 if any(e["failed"] for e in results.values()) else 0


def repeat_check(names, seed: int, seconds: float) -> int:
    """The whole suite twice; every end-to-end gap against its bound."""
    bench = env.load_benchmark()
    first = _collect(names, seed, seconds, 1)
    second = _collect(names, seed, seconds, 1)
    bad = 0
    print(f"{'workload':<18}{'metric':<18}{'first':>14}{'second':>14}{'gap':>9}{'bound':>8}")
    for name in names:
        for m in bench["end_to_end"]:
            a = first[name]["end_to_end"][m["name"]][0]
            b = second[name]["end_to_end"][m["name"]][0]
            gap = abs(b - a) / a
            mark = "" if gap <= m["bound"] else "  EXCEEDS"
            bad += gap > m["bound"]
            print(f"{name:<18}{m['name']:<18}{a:>14.4f}{b:>14.4f}{gap:>9.3f}{m['bound']:>8.2f}{mark}")
        for metric, (a,) in first[name]["per_layer"].items():
            (b,) = second[name]["per_layer"][metric]
            if is_exact(metric) and a != b:
                bad += 1
                print(f"{name:<18}{metric}: exact count differs: {a} vs {b}")
        bad += first[name]["failed"] + second[name]["failed"]
    print("repeat-check: " + ("ok" if not bad else f"{bad} problem(s)"))
    return 1 if bad else 0


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def _spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance with four or more runs, the range with fewer."""
    if len(values) < 2:
        return 0.0
    mid = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / mid
    return (max(values) - min(values)) / mid


def verdict(old: list[float], new: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, ratio, spread)`` for one (workload, metric) pairing."""
    sign = 1.0 if better == "lower" else -1.0  # sign * change > 0 means worse
    base, cur = statistics.median(old), statistics.median(new)
    worse = sign * (cur - base) / base
    spread = max(_spread(old), _spread(new))
    separated = all(sign * (n - o) < 0 for n in new for o in old) or all(
        sign * (n - o) > 0 for n in new for o in old
    )
    if spread > bound and not separated:
        return "unresolved", cur / base, spread
    if worse > bound:
        return "regressed", cur / base, spread
    pairs = list(zip(old, new))
    wins = sum(sign * (n - o) < 0 for o, n in pairs)
    if -worse > spread and wins >= 0.9 * len(pairs):
        return "improved", cur / base, spread
    return "unchanged", cur / base, spread


def compare(old_path: str, new_path: str) -> int:
    """One row per (workload, end-to-end metric): base, new, ratio, bound, verdict."""
    bench = env.load_benchmark()
    old = json.loads(Path(old_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    print(
        f"{'workload':<18}{'metric':<18}{'base':>14}{'new':>14}"
        f"{'ratio':>8}{'spread':>8}{'bound':>7}  verdict"
    )
    regressed = 0
    for name in old:
        if name not in new:
            continue
        for m in bench["end_to_end"]:
            a = old[name]["end_to_end"].get(m["name"])
            b = new[name]["end_to_end"].get(m["name"])
            if not a or not b:
                continue
            word, ratio, spread = verdict(a, b, m["better"], m["bound"])
            regressed += word == "regressed"
            print(
                f"{name:<18}{m['name']:<18}{statistics.median(a):>14.4f}"
                f"{statistics.median(b):>14.4f}{ratio:>8.3f}{spread:>8.3f}{m['bound']:>7.2f}  {word}"
            )
    return 1 if regressed else 0
