"""Command-line interface: ``python -m repro <command>``.

Paper pipelines, each a small reproducible demonstration:

``info``
    Package, model, and inventory summary.
``demo``
    The quickstart table — a butterfly permutation at several ``B``.
``butterfly``
    The Section 3.1 randomized q-relation router, round by round.
``schedule``
    The Theorem 2.1.6 LLL schedule pipeline on a random leveled workload.
``hard-instance``
    Build and route the Theorem 2.2.1 instance; compare with the bound.
``spacetime``
    Worm spacetime diagram of a small contended run.
``experiment`` / ``reproduce``
    Regenerate one paper experiment (``e1``..``e18``, ``perf``) from
    ``benchmarks/``, or all of them into ``ALL_RESULTS.txt``.

Simulation tooling:

``profile``
    Instrument a workload, scenario or fuzz artifact with the
    :mod:`repro.telemetry` collectors and print the utilization /
    occupancy / stall-blame report.
``sweep``
    Run a (simulator, workload, B, seed) trial grid through
    :mod:`repro.sim.sweep` — optionally parallel and result-cached;
    ``--dry-run`` prints the batch plan only.
``scenario``
    The :mod:`repro.scenarios` library: ``list``, ``show NAME``, and
    ``run NAME`` (simulate and verify the declared expectations).
``fuzz``
    The :mod:`repro.fuzz` seeded cross-model invariant fuzzer; writes a
    shrunk replayable artifact per violation, ``--replay`` re-runs one.

Serving:

``serve``
    Run the :mod:`repro.service` asyncio trial server (dynamic request
    batching, bounded admission, graceful drain on SIGINT/SIGTERM).
``cluster serve``
    Run the :mod:`repro.cluster` router: the same protocol in front of
    N supervised ``serve`` workers with a shared result cache.
``loadgen``
    Drive either tier with concurrent traffic and verify every response
    bit-identical to a serial replay (or to the local estimator under
    ``--mode estimate``); ``--output`` saves the full JSON report.

Timing is not measured here: the repository's one benchmark is
``python -m perfbench`` (see ``perfbench/README.md``).  Every command
that draws randomness accepts ``--seed`` and prints deterministic output.
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Cole, Maggs & Sitaraman: On the Benefit of "
            "Supporting Virtual Channels in Wormhole Routers (SPAA 1996)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package and model summary")

    p = sub.add_parser("demo", help="quickstart: butterfly permutation vs B")
    p.add_argument("--n", type=int, default=8, help="butterfly inputs")
    p.add_argument("--length", type=int, default=16, help="flits per message")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("butterfly", help="Section 3.1 q-relation router")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--channels", type=int, default=2, help="B")
    p.add_argument("--length", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("schedule", help="Theorem 2.1.6 schedule pipeline")
    p.add_argument("--width", type=int, default=10)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--messages", type=int, default=120)
    p.add_argument("--length", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("hard-instance", help="Theorem 2.2.1 lower bound")
    p.add_argument("--congestion", type=int, default=8, help="C")
    p.add_argument("--dilation", type=int, default=15, help="D")
    p.add_argument("--channels", type=int, default=1, help="B")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("spacetime", help="worm spacetime diagram")
    p.add_argument("--worms", type=int, default=3)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--length", type=int, default=5)
    p.add_argument("--channels", type=int, default=1, help="B")

    p = sub.add_parser(
        "profile",
        help="telemetry report (utilization, occupancy, stall blame)",
    )
    p.add_argument(
        "--workload",
        choices=("hard-instance", "demo", "schedule"),
        default="hard-instance",
        help="what to instrument (default: the Theorem 2.2.1 instance)",
    )
    p.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="instrument a registered adversarial scenario instead of "
        "--workload",
    )
    p.add_argument(
        "--artifact",
        default=None,
        metavar="PATH",
        help="instrument the case stored in a fuzz repro artifact "
        "instead of --workload",
    )
    p.add_argument("--congestion", type=int, default=8, help="C (hard-instance)")
    p.add_argument("--dilation", type=int, default=15, help="D (hard-instance)")
    p.add_argument("--channels", type=int, default=1, help="B")
    p.add_argument("--n", type=int, default=8, help="butterfly inputs (demo)")
    p.add_argument(
        "--length", type=int, default=0, help="flits per message (0 = auto)"
    )
    p.add_argument("--top", type=int, default=5, help="rows per report table")
    p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="also record an event trace to PATH (.jsonl or .npz)",
    )
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "sweep",
        help="run a (simulator, workload, B, seed) trial grid, "
        "optionally in parallel and cached",
    )
    p.add_argument(
        "--workload",
        default="chain-bundle",
        help="registered workload name (layered, hard-instance, "
        "chain-bundle, butterfly-bitrev, mesh-permutation)",
    )
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VAL",
        help="workload parameter override (repeatable)",
    )
    p.add_argument(
        "--simulators",
        default="wormhole,cut_through,store_forward",
        help="comma-separated simulator names",
    )
    p.add_argument(
        "--channels",
        type=_int_list,
        default="1,2,4",
        help="comma-separated B values",
    )
    p.add_argument(
        "--length", type=int, default=0, help="flits per message (0 = auto)"
    )
    p.add_argument("--repeats", type=int, default=1, help="trials per cell")
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = serial; results are identical)",
    )
    p.add_argument(
        "--backend",
        choices=("inline", "thread", "process"),
        default=None,
        help="execution backend (default: process when --workers >= 2, "
        "inline otherwise; results are identical)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="reuse/populate a per-trial result cache in this directory",
    )
    p.add_argument(
        "--force", action="store_true", help="recompute cached trials"
    )
    p.add_argument(
        "--batch-size",
        default="auto",
        help="trials per lockstep batch, for every flit-level router "
        "('auto', or a positive integer; 1 disables batching — results "
        "are identical either way)",
    )
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="print the packed batch plan (cells per batch, cache hits) "
        "without executing any trial",
    )
    p.add_argument("--seed", type=int, default=0, help="root seed")

    p = sub.add_parser(
        "serve",
        help="run the asyncio trial service (dynamic batching, "
        "backpressure, graceful drain)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7654, help="0 = ephemeral")
    p.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="admission queue depth; a full queue rejects with Retry-After",
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="max compatible trials per lockstep batch",
    )
    p.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="max time the oldest queued request waits for batch company",
    )
    p.add_argument(
        "--backend",
        choices=("inline", "thread", "process"),
        default="thread",
        help="batch execution backend (process = fault-isolated workers "
        "with crash recovery)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads/processes for the batch backend",
    )
    p.add_argument(
        "--batch-timeout-s",
        type=float,
        default=None,
        help="per-batch execution timeout (process backend only)",
    )
    p.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound port here once listening (pairs with "
        "--port 0; how a supervisor finds an ephemeral-port worker)",
    )

    p = sub.add_parser(
        "cluster",
        help="sharded multi-worker service tier: consistent-hash router "
        "over supervised workers with a shared result cache",
    )
    csub = p.add_subparsers(dest="cluster_command", required=True)
    pc = csub.add_parser(
        "serve",
        help="run a v1-protocol router fronting N supervised "
        "'repro serve' worker processes",
    )
    pc.add_argument("--host", default="127.0.0.1")
    pc.add_argument("--port", type=int, default=7900, help="0 = ephemeral")
    pc.add_argument(
        "--workers", type=int, default=2, help="worker service processes"
    )
    pc.add_argument(
        "--cache-dir",
        default=None,
        help="shared cross-worker result cache directory "
        "(default: fresh per-tier tempdir)",
    )
    pc.add_argument(
        "--queue-limit", type=int, default=64, help="per-worker queue depth"
    )
    pc.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="per-worker max compatible trials per lockstep batch",
    )
    pc.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="per-worker max wait for batch company",
    )
    pc.add_argument(
        "--backend",
        choices=("inline", "thread", "process"),
        default="thread",
        help="execution backend inside each worker process",
    )
    pc.add_argument(
        "--backend-workers",
        type=int,
        default=1,
        help="threads/processes inside each worker's backend",
    )
    pc.add_argument(
        "--runtime-dir",
        default=None,
        help="port files + worker logs (default: tempdir)",
    )

    p = sub.add_parser(
        "loadgen",
        help="drive a running trial server; verify bit-exactness against "
        "serial replays",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7654)
    p.add_argument(
        "--workload", default="chain-bundle", help="registered workload name"
    )
    p.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="replay a registered adversarial scenario instead of "
        "--workload (arrival-trace scenarios also pace the request "
        "stream)",
    )
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VAL",
        help="workload parameter override (repeatable)",
    )
    p.add_argument(
        "--channels",
        type=_int_list,
        default="1,2,4",
        help="comma-separated B values to cycle",
    )
    p.add_argument(
        "--length", type=int, default=0, help="flits per message (0 = auto)"
    )
    p.add_argument(
        "--simulators",
        default=None,
        help="comma-separated simulators to cycle (multi-key traffic "
        "for a sharded tier; default: wormhole only)",
    )
    p.add_argument(
        "--lengths",
        type=_int_list,
        default=None,
        help="comma-separated message lengths to cycle (multi-key "
        "traffic; overrides --length)",
    )
    p.add_argument("--requests", type=int, default=32, help="total requests")
    p.add_argument(
        "--concurrency", type=int, default=8, help="concurrent connections"
    )
    p.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="aggregate request rate in req/s (0 = as fast as possible)",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request queueing deadline",
    )
    p.add_argument(
        "--mode",
        default="exact",
        choices=("exact", "estimate"),
        help="request mode: 'exact' runs trials through the batcher, "
        "'estimate' asks for the analytic delay envelope (verified "
        "against the local estimator instead of a serial replay)",
    )
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the serial-replay bit-exactness check",
    )
    p.add_argument(
        "--shutdown",
        action="store_true",
        help="send a graceful-shutdown op to the server when done",
    )
    p.add_argument(
        "--output",
        default=None,
        help="also write the full JSON report to this file",
    )
    p.add_argument("--seed", type=int, default=0, help="root seed")

    p = sub.add_parser(
        "scenario",
        help="adversarial scenario library: curated hard cases with "
        "declared invariant expectations",
    )
    ssub = p.add_subparsers(dest="scenario_command", required=True)
    ssub.add_parser("list", help="registered scenarios, one line each")
    ps = ssub.add_parser("show", help="one scenario's parameters and checks")
    ps.add_argument("name", help="scenario name (see 'repro scenario list')")
    pr = ssub.add_parser(
        "run", help="build and simulate a scenario; verify its expectations"
    )
    pr.add_argument("name", help="scenario name (see 'repro scenario list')")
    pr.add_argument(
        "--model",
        default=None,
        help="model to run under (default: the scenario's first declared)",
    )
    pr.add_argument(
        "--channels",
        type=_int_list,
        default="1,2,4",
        help="comma-separated B values",
    )
    pr.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VAL",
        help="builder parameter override (repeatable)",
    )
    pr.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "fuzz",
        help="seeded cross-model invariant fuzzer; writes a shrunk "
        "replayable artifact per violation",
    )
    p.add_argument("--rounds", type=int, default=50, help="cases to generate")
    p.add_argument("--seed", type=int, default=0, help="root seed")
    p.add_argument(
        "--families",
        default=None,
        help="comma-separated case families (default: all; see "
        "repro.fuzz.FAMILIES)",
    )
    p.add_argument(
        "--artifact-dir",
        default="fuzz-artifacts",
        help="where violation repro artifacts are written",
    )
    p.add_argument(
        "--replay",
        metavar="PATH",
        default=None,
        help="re-run the exact case stored in a repro artifact instead "
        "of fuzzing",
    )

    p = sub.add_parser(
        "experiment",
        help="regenerate one of the paper experiments (e1..e18, perf)",
    )
    p.add_argument("name", help="experiment id, e.g. e2 or e11")

    sub.add_parser(
        "reproduce",
        help="run every experiment and assemble benchmarks/results/ALL_RESULTS.txt",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "info": _cmd_info,
        "demo": _cmd_demo,
        "butterfly": _cmd_butterfly,
        "schedule": _cmd_schedule,
        "hard-instance": _cmd_hard_instance,
        "spacetime": _cmd_spacetime,
        "profile": _cmd_profile,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "cluster": _cmd_cluster,
        "loadgen": _cmd_loadgen,
        "scenario": _cmd_scenario,
        "fuzz": _cmd_fuzz,
        "experiment": _cmd_experiment,
        "reproduce": _cmd_reproduce,
    }[args.command]
    handler(args)
    return 0


def _cmd_info(args: argparse.Namespace) -> None:
    import repro

    print(f"repro {repro.__version__}")
    print(
        "Model (Section 1.1): B virtual channels per edge; the buffer at "
        "each edge's head holds B flits,\neach from a distinct message; "
        "one flit per virtual channel crosses per flit step; a blocked "
        "header\nstalls its whole worm."
    )
    print()
    print("Main entry points:")
    for name in (
        "WormholeSimulator",
        "lll_schedule / execute_schedule",
        "build_hard_instance",
        "ButterflyRouter",
        "CutThroughSimulator / StoreForwardSimulator",
        "circuit_switch_butterfly",
        "ContinuousWormholeSimulator",
    ):
        print(f"  - repro.{name}")
    print()
    print("See DESIGN.md for the system inventory, EXPERIMENTS.md for results.")


def _cmd_demo(args: argparse.Namespace) -> None:
    from repro import Butterfly, Table, WormholeSimulator, bit_reversal_permutation

    bf = Butterfly(args.n)
    inst = bit_reversal_permutation(args.n)
    paths = [list(r) for r in bf.path_edges_batch(inst.sources, inst.dests)]
    table = Table(
        f"Bit-reversal on an {args.n}-input butterfly (L={args.length})",
        ["B", "makespan", "blocked flit steps"],
    )
    for B in (1, 2, 4):
        res = WormholeSimulator(bf, B, seed=args.seed).run(paths, args.length)
        table.add_row([B, res.makespan, res.total_blocked_steps])
    print(table.render())


def _cmd_butterfly(args: argparse.Namespace) -> None:
    from repro import ButterflyRouter, Table, bounds, random_q_relation

    inst = random_q_relation(args.n, args.q, np.random.default_rng(args.seed))
    router = ButterflyRouter(
        args.n, B=args.channels, message_length=args.length, seed=args.seed
    )
    out = router.route(inst)
    table = Table(
        f"Section 3.1 router: n={args.n}, q={args.q}, B={args.channels}, "
        f"L={args.length}",
        ["round", "candidates", "survivors", "remaining"],
    )
    for r in out.rounds:
        table.add_row(
            [r.round_index, r.num_candidates, r.num_survivors, r.originals_remaining]
        )
    print(table.render())
    print(
        f"total: {out.total_flit_steps} flit steps "
        f"(Thm 3.1.1 form: "
        f"{bounds.butterfly_upper_bound(args.length, args.q, args.n, args.channels):.0f}); "
        f"all delivered: {out.all_delivered}"
    )


def _cmd_schedule(args: argparse.Namespace) -> None:
    from repro import Table, execute_schedule, lll_schedule
    from repro.network.random_networks import layered_network, random_walk_paths
    from repro.routing.paths import congestion, dilation, paths_from_node_walks

    rng = np.random.default_rng(args.seed)
    net = layered_network(args.width, args.depth, 3, rng)
    walks = random_walk_paths(net, args.width, args.depth, args.messages, rng)
    paths = paths_from_node_walks(net, walks)
    table = Table(
        f"LLL schedules: C={congestion(paths)}, D={dilation(paths)}, "
        f"L={args.length}, {args.messages} messages",
        ["B", "classes", "makespan", "blocked"],
    )
    for B in (1, 2, 4):
        build = lll_schedule(
            paths, args.length, B=B, rng=np.random.default_rng(B), mode="direct"
        )
        res = execute_schedule(net, paths, build.schedule, B=B)
        table.add_row([B, build.num_classes, res.makespan, res.total_blocked_steps])
    print(table.render())


def _cmd_hard_instance(args: argparse.Namespace) -> None:
    from repro import (
        WormholeSimulator,
        build_hard_instance,
        hard_instance_lower_bound,
    )

    inst = build_hard_instance(
        C=args.congestion, D=args.dilation, B=args.channels
    )
    L = inst.recommended_length()
    res = WormholeSimulator(inst.network, args.channels, seed=args.seed).run(
        inst.paths, message_length=L
    )
    print(
        f"Theorem 2.2.1 instance: M'={inst.m_prime}, M={inst.num_messages}, "
        f"C={inst.congestion}, D={inst.dilation}, B={inst.B}, L={L}"
    )
    print(f"greedy routing time : {res.makespan} flit steps")
    print(f"Omega bound (L-D)M/B: {hard_instance_lower_bound(inst, L):.0f}")


def _cmd_spacetime(args: argparse.Namespace) -> None:
    from repro.analysis.render import render_spacetime
    from repro.network.random_networks import chain_bundle
    from repro.routing.paths import paths_from_node_walks
    from repro.sim.wormhole import WormholeSimulator
    from repro.telemetry import TraceSnapshotCollector

    net, walks = chain_bundle(1, args.depth, args.worms)
    paths = paths_from_node_walks(net, walks)
    snapshot = TraceSnapshotCollector()
    WormholeSimulator(net, args.channels, priority="index").run(
        paths, message_length=args.length, telemetry=[snapshot]
    )
    print(
        f"{args.worms} worms (L={args.length}) sharing a {args.depth}-edge "
        f"chain at B={args.channels}:"
    )
    print(
        render_spacetime(
            snapshot.matrix, [args.depth] * args.worms, args.length
        )
    )


def _cmd_profile(args: argparse.Namespace) -> None:
    from repro.telemetry import (
        TraceRecorder,
        Watchdog,
        render_report,
        standard_collectors,
    )

    probes = standard_collectors() + [Watchdog()]
    recorder = None
    if args.trace is not None:
        recorder = TraceRecorder()
        probes.append(recorder)

    from repro import WormholeSimulator

    if args.scenario is not None and args.artifact is not None:
        raise SystemExit(
            "repro profile: choose --scenario or --artifact, not both"
        )
    if args.scenario is not None:
        result, title = _profile_scenario(args, probes)
    elif args.artifact is not None:
        result, title = _profile_artifact(args, probes)
    elif args.workload == "hard-instance":
        from repro import build_hard_instance

        inst = build_hard_instance(
            C=args.congestion, D=args.dilation, B=args.channels
        )
        L = args.length or inst.recommended_length()
        result = WormholeSimulator(
            inst.network, args.channels, seed=args.seed
        ).run(inst.paths, message_length=L, telemetry=probes)
        title = (
            f"Theorem 2.2.1 hard instance: C={inst.congestion}, "
            f"D={inst.dilation}, B={inst.B}, L={L}"
        )
    elif args.workload == "demo":
        from repro import Butterfly, bit_reversal_permutation

        bf = Butterfly(args.n)
        inst = bit_reversal_permutation(args.n)
        paths = [list(r) for r in bf.path_edges_batch(inst.sources, inst.dests)]
        L = args.length or 16
        result = WormholeSimulator(bf, args.channels, seed=args.seed).run(
            paths, message_length=L, telemetry=probes
        )
        title = (
            f"Bit-reversal on an {args.n}-input butterfly: "
            f"B={args.channels}, L={L}"
        )
    else:  # schedule
        from repro import execute_schedule, lll_schedule
        from repro.network.random_networks import (
            layered_network,
            random_walk_paths,
        )
        from repro.routing.paths import paths_from_node_walks

        rng = np.random.default_rng(args.seed)
        net = layered_network(10, 10, 3, rng)
        walks = random_walk_paths(net, 10, 10, 120, rng)
        paths = paths_from_node_walks(net, walks)
        L = args.length or 10
        build = lll_schedule(
            paths, L, B=args.channels,
            rng=np.random.default_rng(args.seed), mode="direct",
        )
        result = execute_schedule(
            net, paths, build.schedule, B=args.channels, telemetry=probes
        )
        title = (
            f"Theorem 2.1.6 schedule: {build.num_classes} classes, "
            f"B={args.channels}, L={L}"
        )

    print(render_report(probes, result, top=args.top, title=title))
    if recorder is not None:
        try:
            recorder.save(args.trace)
        except OSError as exc:
            raise SystemExit(f"repro profile: cannot write trace: {exc}")
        print(f"trace written to {args.trace}")


def _profile_scenario(args: argparse.Namespace, probes):
    """Instrument a registered scenario run for the profile report."""
    from repro.network.graph import NetworkError
    from repro.scenarios import get_scenario

    try:
        scen = get_scenario(args.scenario)
    except NetworkError as exc:
        raise SystemExit(f"repro profile: {exc}")
    model = next(
        (
            m
            for m in scen.models
            if m in ("wormhole", "cut_through", "store_forward", "adaptive")
        ),
        None,
    )
    if model is None:
        raise SystemExit(
            f"repro profile: scenario {args.scenario!r} has no "
            f"telemetry-capable model (declared: {', '.join(scen.models)})"
        )
    try:
        run = scen.run(
            B=args.channels, model=model, seed=args.seed, telemetry=probes
        )
    except NetworkError as exc:
        raise SystemExit(f"repro profile: {exc}")
    if not run.ok:
        for v in run.violations:
            print(f"WARNING expectation violated: {v.detail}")
    title = (
        f"scenario {scen.name} ({scen.theorem}): "
        f"model={model}, B={args.channels}"
    )
    return run.outcome, title


def _profile_artifact(args: argparse.Namespace, probes):
    """Instrument the routed case stored in a fuzz repro artifact."""
    import json
    from pathlib import Path

    from repro.facade import simulate
    from repro.fuzz.fuzzer import case_from_artifact

    try:
        payload = json.loads(Path(args.artifact).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro profile: cannot read artifact: {exc}")
    case = case_from_artifact(payload)
    if not case.paths:
        raise SystemExit(
            "repro profile: continuous-family artifacts carry no routed "
            "paths to instrument"
        )
    result = simulate(
        (case.network, case.paths),
        model="wormhole",
        B=case.channels[0],
        message_length=case.message_length,
        seed=case.sim_seed,
        priority=case.priority,
        telemetry=probes,
        max_steps=200_000,
    )
    return result, f"fuzz artifact: {case.describe()}"


def _cmd_scenario(args: argparse.Namespace) -> None:
    from repro import Table
    from repro.network.graph import NetworkError
    from repro.scenarios import SCENARIOS, get_scenario

    if args.scenario_command == "list":
        table = Table(
            f"{len(SCENARIOS)} registered scenarios",
            ["name", "family", "kind", "models", "stresses"],
        )
        for name in sorted(SCENARIOS):
            s = SCENARIOS[name]
            table.add_row(
                [s.name, s.family, s.kind, ",".join(s.models), s.theorem]
            )
        print(table.render())
        return

    try:
        scen = get_scenario(args.name)
    except NetworkError as exc:
        raise SystemExit(f"repro scenario: {exc}")

    if args.scenario_command == "show":
        print(f"{scen.name}  [{scen.family} / {scen.kind}]")
        print(f"stresses: {scen.theorem}")
        print(f"models:   {', '.join(scen.models)}")
        print()
        print(scen.description)
        print()
        print("parameters (defaults):")
        for k, v in scen.defaults().items():
            print(f"  {k} = {v}")
        case = scen.build_case()
        print("expectations:")
        for label, _ in case.checks:
            print(f"  - {label}")
        return

    # run
    try:
        params = dict(_parse_param(p) for p in args.param)
        runs = [
            scen.run(B=B, model=args.model, seed=args.seed, **params)
            for B in args.channels
        ]
    except NetworkError as exc:
        raise SystemExit(f"repro scenario: {exc}")
    columns = sorted({k for r in runs for k in r.summary()})
    table = Table(
        f"scenario {scen.name}: model={runs[0].model}, "
        f"stresses {scen.theorem}",
        ["B", *columns, "checks", "verdict"],
    )
    for r in runs:
        summary = r.summary()
        table.add_row(
            [
                r.B,
                *[summary.get(c, "-") for c in columns],
                len(r.checked),
                "ok" if r.ok else f"{len(r.violations)} VIOLATED",
            ]
        )
    print(table.render())
    info = runs[0].case.info
    if info:
        print(
            "case: "
            + ", ".join(f"{k}={v}" for k, v in sorted(info.items()))
        )
    bad = [v for r in runs for v in r.violations]
    if bad:
        for v in bad:
            print(f"VIOLATION [{v.invariant}] {v.detail}")
        raise SystemExit(
            f"repro scenario: {len(bad)} expectation(s) violated"
        )


def _cmd_fuzz(args: argparse.Namespace) -> None:
    from repro.fuzz import replay_artifact, run_fuzz
    from repro.network.graph import NetworkError

    if args.replay is not None:
        try:
            violations = replay_artifact(args.replay)
        except (OSError, ValueError, KeyError, NetworkError) as exc:
            raise SystemExit(f"repro fuzz: cannot replay: {exc}")
        if not violations:
            print(f"replay of {args.replay}: clean (violation not reproduced)")
            return
        for v in violations:
            print(f"VIOLATION [{v.invariant}] {v.detail}")
        raise SystemExit(
            f"repro fuzz: replay reproduced {len(violations)} violation(s)"
        )

    families = None
    if args.families:
        families = tuple(
            f.strip() for f in args.families.split(",") if f.strip()
        )
    try:
        report = run_fuzz(
            args.rounds,
            seed=args.seed,
            families=families,
            artifact_dir=args.artifact_dir,
        )
    except NetworkError as exc:
        raise SystemExit(f"repro fuzz: {exc}")
    mix = ", ".join(
        f"{k}={v}" for k, v in sorted(report.cases_by_family.items())
    )
    print(
        f"fuzz: {report.rounds} rounds from seed {report.seed} ({mix})"
    )
    if report.ok:
        print("all invariants held")
        return
    for path, payload in zip(report.artifact_paths, report.failures):
        for v in payload["violations"]:
            print(f"VIOLATION [{v['invariant']}] {v['detail']}")
        print(f"  shrunk repro artifact: {path}")
    raise SystemExit(
        f"repro fuzz: {len(report.failures)} case(s) violated invariants"
    )


def _int_list(text: str) -> tuple[int, ...]:
    """argparse ``type=``: comma-separated integers, at least one."""
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("must name at least one integer")
    return values


def _parse_param(text: str):
    """``KEY=VAL`` with VAL coerced to int, then float, then str."""
    if "=" not in text:
        raise SystemExit(f"repro sweep: --param needs KEY=VAL, got {text!r}")
    key, raw = text.split("=", 1)
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            pass
    return key, raw


def _cmd_sweep(args: argparse.Namespace) -> None:
    from repro import Table
    from repro.network.graph import NetworkError
    from repro.sim.sweep import WORKLOADS, run_sweep, sweep_grid

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"repro sweep: unknown workload {args.workload!r}; "
            f"available: {', '.join(sorted(WORKLOADS))}"
        )
    workload_params = dict(_parse_param(p) for p in args.param)
    simulators = [s.strip() for s in args.simulators.split(",") if s.strip()]
    try:
        specs = sweep_grid(
            args.workload,
            simulators,
            args.channels,
            workload_params=workload_params,
            message_length=args.length or None,
            repeats=args.repeats,
        )
    except NetworkError as exc:
        raise SystemExit(f"repro sweep: {exc}")
    if args.batch_size == "auto":
        batch_size = None
    else:
        try:
            batch_size = int(args.batch_size)
        except ValueError:
            raise SystemExit(
                f"repro sweep: --batch-size must be 'auto' or a positive "
                f"integer, got {args.batch_size!r}"
            ) from None
        if batch_size < 1:
            raise SystemExit(
                "repro sweep: --batch-size must be >= 1"
            )
    if args.dry_run:
        _sweep_dry_run(specs, args.seed, batch_size, args.cache_dir, args.force)
        return
    out = run_sweep(
        specs,
        root_seed=args.seed,
        workers=args.workers,
        cache_dir=args.cache_dir,
        force=args.force,
        batch_size=batch_size,
        backend=args.backend,
    )

    params = ", ".join(f"{k}={v}" for k, v in sorted(workload_params.items()))
    title = f"sweep: {args.workload}" + (f" ({params})" if params else "")
    columns = ["simulator", "B", "repeat", "L", "makespan", "blocked", "delivered", "cached"]
    table = Table(title, columns)
    for t in out:
        m = t.metrics
        table.add_row(
            [
                t.spec.simulator,
                t.spec.B,
                t.spec.repeat,
                m["message_length"],
                m["makespan"],
                m["blocked"],
                f"{m['delivered']}/{m['messages']}",
                "yes" if t.cached else "no",
            ]
        )
    print(table.render())
    executed = len(out) - out.num_cached
    print(
        f"{len(out)} trials ({out.num_cached} cached, {executed} executed) "
        f"in {out.wall_time:.2f}s with "
        f"{args.workers if args.workers >= 2 else 1} worker(s); "
        f"root seed {out.root_seed}"
    )


def _sweep_dry_run(specs, root_seed, batch_size, cache_dir, force) -> None:
    """Print the packed batch plan without executing any trial."""
    from pathlib import Path

    from repro import Table
    from repro.cache import entry_path, load_entry
    from repro.sim.sweep import DEFAULT_BATCH_SIZE, _pack_units

    if batch_size is None:
        batch_size = DEFAULT_BATCH_SIZE
    cache_path = Path(cache_dir) if cache_dir is not None else None
    cached = 0
    pending = []
    for i, spec in enumerate(specs):
        if cache_path is not None and not force:
            entry = entry_path(cache_path, spec.cache_key(root_seed))
            if load_entry(entry, spec.key()) is not None:
                cached += 1
                continue
        pending.append(i)
    units = _pack_units(specs, pending, root_seed, batch_size)
    table = Table(
        f"sweep plan (dry run, batch size {batch_size})",
        ["unit", "kind", "simulator", "workload", "trials", "B values"],
    )
    batches = singles = 0
    by_model: dict[str, list[int]] = {}
    for n, (_, idxs) in enumerate(units):
        lockstep = len(idxs) > 1
        spec0 = specs[idxs[0]]
        counts = by_model.setdefault(spec0.simulator, [0, 0])
        if lockstep:
            batches += 1
            counts[0] += 1
        else:
            singles += 1
            counts[1] += 1
        table.add_row(
            [
                n,
                "lockstep" if lockstep else "single",
                spec0.simulator,
                spec0.workload,
                len(idxs),
                ",".join(str(specs[i].B) for i in idxs),
            ]
        )
    print(table.render())
    for sim in sorted(by_model):
        nb, ns = by_model[sim]
        parts = []
        if nb:
            parts.append(f"{nb} lockstep batch(es)")
        if ns:
            parts.append(f"{ns} single(s)")
        print(f"  {sim}: {' + '.join(parts)}")
    print(
        f"{len(specs)} trials: {cached} cache hits, {len(pending)} to "
        f"execute in {batches} lockstep batch(es) + {singles} single(s); "
        f"nothing executed (dry run)"
    )


def _cmd_serve(args: argparse.Namespace) -> None:
    import asyncio

    from repro.service import ServiceConfig, SimulationService, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        backend=args.backend,
        workers=args.workers,
        batch_timeout_s=args.batch_timeout_s,
        port_file=args.port_file,
    )
    try:
        asyncio.run(serve(SimulationService(config)))
    except KeyboardInterrupt:
        pass  # signal handler already drained; double-^C lands here


def _cmd_cluster(args: argparse.Namespace) -> None:
    import asyncio

    from repro.cluster import ClusterConfig, ClusterRouter
    from repro.service import ServiceConfig, serve

    config = ClusterConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        runtime_dir=args.runtime_dir,
        worker=ServiceConfig(
            queue_limit=args.queue_limit,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            backend=args.backend,
            workers=args.backend_workers,
        ),
    )
    try:
        asyncio.run(serve(ClusterRouter(config)))
    except KeyboardInterrupt:
        pass  # signal handler already drained; double-^C lands here


def _cmd_loadgen(args: argparse.Namespace) -> None:
    import asyncio
    import json
    from pathlib import Path

    from repro.service import LoadgenConfig, run_loadgen

    if args.scenario is not None:
        from repro.network.graph import NetworkError
        from repro.scenarios import get_scenario

        try:
            get_scenario(args.scenario)
        except NetworkError as exc:
            raise SystemExit(f"repro loadgen: {exc}")
    simulators = tuple(
        s.strip() for s in (args.simulators or "").split(",") if s.strip()
    )
    config = LoadgenConfig(
        workload=args.workload,
        workload_params=dict(_parse_param(p) for p in args.param),
        scenario=args.scenario,
        channels=args.channels,
        simulators=simulators,
        lengths=args.lengths or (),
        message_length=args.length or None,
        requests=args.requests,
        concurrency=args.concurrency,
        rate=args.rate,
        root_seed=args.seed,
        deadline_ms=args.deadline_ms,
        mode=args.mode,
        verify=not args.no_verify,
        shutdown=args.shutdown,
    )
    try:
        report = asyncio.run(run_loadgen(args.host, args.port, config))
    except OSError as exc:
        raise SystemExit(
            f"repro loadgen: cannot reach {args.host}:{args.port}: {exc}"
        )
    if args.output is not None:
        Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    lat = report["latency_ms"]
    server = report.get("server") or {}
    batches = server.get("batches") or {}
    occupancy = batches.get("mean_occupancy")
    # A router aggregates occupancy only; closed_by stays per worker.
    closed_by = batches.get("closed_by")
    oracle = "local estimate" if args.mode == "estimate" else "serial replay"
    print(
        f"loadgen: {report['ok']}/{config.requests} ok "
        f"({', '.join(f'{k}={v}' for k, v in sorted(report['statuses'].items()))}) "
        f"in {report['wall_s']:.2f}s = {report['throughput_rps']} req/s\n"
        f"  latency ms: p50={lat['p50']} p95={lat['p95']} p99={lat['p99']} "
        f"max={lat['max']}\n"
        f"  mean batch occupancy: client={report['client_mean_batch']}"
        + (f" server={occupancy}" if occupancy is not None else "")
        + (
            "\n  windows closed by: "
            + " ".join(f"{k}={v}" for k, v in closed_by.items())
            if closed_by
            else ""
        )
        + f"\n  bit-exact vs {oracle}: {report['bit_exact']} "
        f"({report['verified']} verified)"
        + (f"\nwritten to {args.output}" if args.output is not None else "")
    )
    if report["mismatches"]:
        for line in report["mismatches"][:5]:
            print(f"  MISMATCH: {line}")
        raise SystemExit(f"repro loadgen: responses diverged from {oracle}")


def _cmd_experiment(args: argparse.Namespace) -> None:
    """Run one experiment's benchmark file and print its saved tables."""
    import subprocess
    import sys

    bench_dir = _find_bench_dir()
    name = args.name.lower()
    matches = sorted(bench_dir.glob(f"test_{name}_*.py")) + sorted(
        bench_dir.glob(f"test_{name}.py")
    )
    if not matches:
        available = sorted(
            p.stem.split("_")[1] for p in bench_dir.glob("test_*.py")
        )
        raise SystemExit(
            f"no benchmark for {args.name!r}; available: {', '.join(available)}"
        )
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            *[str(m) for m in matches],
            "--benchmark-only",
            "-q",
            "--benchmark-disable-gc",
            "--no-header",
        ],
        cwd=bench_dir.parent,
        capture_output=True,
        text=True,
    )
    results_dir = bench_dir / "results"
    printed = False
    for table_file in sorted(results_dir.glob(f"{name}*.txt")):
        print(table_file.read_text().rstrip())
        print()
        printed = True
    if proc.returncode != 0:
        print(proc.stdout[-2000:])
        raise SystemExit("benchmark run failed")
    if not printed:
        print(proc.stdout[-2000:])


def _cmd_reproduce(args: argparse.Namespace) -> None:
    """Run the full benchmark suite, then bundle every result table."""
    import subprocess
    import sys

    bench_dir = _find_bench_dir()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(bench_dir), "--benchmark-only", "-q"],
        cwd=bench_dir.parent,
        capture_output=True,
        text=True,
    )
    summary = next(
        (ln for ln in reversed(proc.stdout.splitlines()) if "passed" in ln),
        proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "",
    )
    print(f"benchmark suite: {summary.strip()}")
    if proc.returncode != 0:
        print(proc.stdout[-3000:])
        raise SystemExit("reproduction run failed")
    results_dir = bench_dir / "results"
    bundle = results_dir / "ALL_RESULTS.txt"
    parts = []
    for table_file in sorted(results_dir.glob("e*.txt")):
        if table_file.name == "ALL_RESULTS.txt":
            continue
        parts.append(table_file.read_text().rstrip())
    bundle.write_text("\n\n".join(parts) + "\n")
    print(f"{len(parts)} tables bundled into {bundle}")


def _find_bench_dir():
    from pathlib import Path

    candidates = [
        Path(__file__).resolve().parents[2] / "benchmarks",
        Path(__file__).resolve().parents[2].parent / "benchmarks",
    ]
    for c in candidates:
        if c.is_dir():
            return c
    raise SystemExit("benchmarks directory not found (source checkout required)")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
