"""One run of one workload: set-up, timed rounds, checks, result.

Run shape.  Set-up (tier spawn, workload build, cache pre-store, a warm-up
round at ``root_seed = seed``) is repeated ``Workload.setup_repeats`` times
and the fastest reported as ``setup_s``.  Then fixed-size rounds run
back-to-back - round ``r`` at ``root_seed = seed + r`` - until ``--seconds``
have been measured.  Every round does the same work and yields its own value
of every metric (throughput, and the median latency over the round's
replies); the reported value is the *best* round's, each round (and each
set-up) first divided by the host's slowdown around it
(:mod:`perfbench.calibrate`).  Interference only ever slows a round down, so
the fastest of identical rounds is the closest look at what the program
costs (the ``min``-of-N of ``timeit`` and of the repository's own ``repro
bench``), where a median over rounds follows the neighbours; a change to the
program moves every round, the best included.  With ``--trace 1`` odd rounds
run with the span wrappers bound and even rounds without, so the same run
yields the per-layer numbers and the overhead tracing added.  Correctness
(oracle replay, golden digests) is checked after the window, outside any
timing.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter

from . import calibrate, env
from .layers import layer_metrics, quantile
from .spans import Tracer
from .workloads import WORKLOADS, Round, digest, msg_steps

GOLDEN = Path(__file__).resolve().parent / "golden"
#: Root seeds the committed golden files cover (seed 0 rounds 0-4, and the
#: first rounds of seeds 1-4).
GOLDEN_ROOT_SEEDS = range(5)
#: ``peak_rss_mb`` is read after this round, so that it does not grow with
#: the number of rounds (kept for the checks) a faster box fits in the window.
RSS_ROUND = 3


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, *, scale: float = 1.0
) -> dict:
    """Returns ``{"correct", "attempted", "failed", "metrics", ...}``."""
    tracer = Tracer(name)
    wl = WORKLOADS[name](scale, tracer)
    # ``setup_s`` is an end-to-end metric: the traced pass and the smoke
    # scale do not report it against a bound, so they set up once.
    repeats = 1 if trace or scale != 1.0 else wl.setup_repeats
    setup_times: list[float] = []
    rounds: list[Round] = []
    calibrate.spin()  # untimed: the loop's own arrays fault their pages in
    spins: list[float] = []
    rss_mb = layers = None
    try:
        for i in range(repeats):
            if i:
                wl.teardown()
            spins.append(calibrate.spin())
            t0 = perf_counter()
            wl.setup(seed)
            setup_times.append(perf_counter() - t0)
        if trace:
            wl.stats0 = wl.stats()
        started = perf_counter()
        while True:
            rnd = len(rounds) + 1
            spins.append(calibrate.spin())
            traced = trace and rnd % 2 == 1
            if traced:
                tracer.begin_round(rnd)
            try:
                rounds.append(wl.run_round(seed + rnd, rnd))
            finally:
                if traced:
                    tracer.end_round()
            if rnd == RSS_ROUND:
                rss_mb = wl.peak_rss_mb()
            elapsed = perf_counter() - started
            # Stop when the next round would overshoot by more than half a
            # round; the traced pass needs one round of each kind.
            if elapsed + 0.5 * elapsed / rnd > seconds and (rnd >= 2 or not trace):
                break
        spins.append(calibrate.spin())
        if rss_mb is None:
            rss_mb = wl.peak_rss_mb()
        if trace:
            wl.stats1 = wl.stats()
            layers = layer_metrics(wl, rounds, tracer, calibrate.slowdown(spins))
    finally:
        wl.teardown()

    failed, problems = wl.verify(rounds), []
    if scale == 1.0:
        golden_failed, problems = check_golden(name, rounds, tracer)
        failed += golden_failed
    attempted = sum(len(r.metrics) for r in rounds)

    raw: dict[str, list[float]] = {}
    if trace:
        tracer.write(env.OUT / f"trace-{name}.jsonl")
        metrics = layers
    else:
        per_round = {
            "ops_per_s": [r.ok / r.wall for r in rounds],
            "latency_p50_ms": [quantile(r.latencies, 0.50) * 1e3 for r in rounds],
            "ns_per_msg_step": [
                r.wall * 1e9 / max(1, sum(msg_steps(m) for m in r.metrics if m))
                for r in rounds
            ],
        }
        raw = {m: [min(v), statistics.median(v), max(v)] for m, v in per_round.items()}
        # ``spins[i]`` precedes set-up ``i``; after the set-ups, round ``r``.
        slow = [calibrate.slowdown_around(spins, i) for i in range(len(spins) - 1)]
        setup_slow, round_slow = slow[:repeats], slow[repeats:]
        metrics = {
            "ops_per_s": max(v * f for v, f in zip(per_round["ops_per_s"], round_slow)),
            "latency_p50_ms": min(v / f for v, f in zip(per_round["latency_p50_ms"], round_slow)),
            "ns_per_msg_step": min(v / f for v, f in zip(per_round["ns_per_msg_step"], round_slow)),
            "peak_rss_mb": rss_mb,
            "setup_s": min(t / f for t, f in zip(setup_times, setup_slow)),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": metrics,
        "rounds": len(rounds),
        "replies": sum(len(r.latencies) for r in rounds),
        "measured_s": sum(r.wall for r in rounds),
        "host_slowdown": calibrate.slowdown(spins),
        "raw_min_median_max": raw,
        "problems": problems,
    }


def check_golden(name: str, rounds: list[Round], tracer: Tracer) -> tuple[int, list[str]]:
    """Compare every round whose root seed has a committed golden record."""
    path = GOLDEN / f"{name}.json"
    if not path.exists():
        return 0, []
    golden = json.loads(path.read_text())["root_seeds"]
    grants = tracer.calls_by_round("sim.fastpath.grant")
    failed, problems = 0, []
    for r in rounds:
        want = golden.get(str(r.root_seed))
        if want is None or r.ok != len(r.metrics):
            continue
        got = digest(r.metrics)
        if r.traced and "grant_calls" in want:
            got["grant_calls"] = grants[r.rnd]
        wrong = [k for k, v in got.items() if want[k] != v]
        if wrong:
            failed += len(r.metrics)
            problems.append(
                f"{name} round {r.rnd} (root_seed {r.root_seed}): golden mismatch in "
                + ", ".join(f"{k} (want {want[k]}, got {got[k]})" for k in wrong)
            )
    return failed, problems


def write_golden() -> None:
    """Regenerate ``perfbench/golden/*.json`` from this commit's simulator.

    Only for an *intentional* change of a simulated statistic: every round is
    run through the workload's own path (tiers included) and must first agree
    with the oracle.
    """
    GOLDEN.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        tracer = Tracer(name)
        wl = cls(1.0, tracer)
        records = {}
        try:
            wl.setup(0)
            for root_seed in GOLDEN_ROOT_SEEDS:
                tracer.begin_round(root_seed)
                try:
                    rnd = wl.run_round(root_seed, root_seed)
                finally:
                    tracer.end_round()
                if wl.verify([rnd]):
                    raise SystemExit(f"{name}: oracle mismatch at root_seed {root_seed}")
                record = records[str(rnd.root_seed)] = digest(rnd.metrics)
                grants = tracer.calls_by_round("sim.fastpath.grant")[root_seed]
                if grants:  # in-process (sweep) workloads only
                    record["grant_calls"] = grants
        finally:
            wl.teardown()
        (GOLDEN / f"{name}.json").write_text(
            json.dumps({"workload": name, "root_seeds": records}, indent=1) + "\n"
        )
        print(f"golden: {name}: {len(records)} root seeds")
