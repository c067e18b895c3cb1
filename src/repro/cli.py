"""Command-line interface: ``python -m repro <command>``.

Paper pipelines, each a small reproducible demonstration:

``info``
    Package, model, and inventory summary.
``demo``
    The quickstart table — a butterfly permutation at several ``B``.
``butterfly``
    The Section 3.1 randomized q-relation router, round by round.
``schedule``
    The Theorem 2.1.6 LLL schedule of a random leveled workload, run as
    a wormhole trial at each ``B`` and checked against its bound.
``hard-instance``
    Build and route the Theorem 2.2.1 instance; compare with the bound.
``spacetime``
    Worm spacetime diagram of a small contended run.
``experiment`` / ``reproduce``
    Regenerate one paper experiment (``e1``..``e18``, ``perf``) from
    ``benchmarks/``, or all of them; each rewrites its own tables in
    ``benchmarks/results/``.

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
    ``run NAME`` (simulate and judge by every expectation row that applies).
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
import dataclasses
from collections.abc import Callable, Sequence
from typing import NamedTuple

__all__ = ["COMMANDS", "FLAGS", "build_parser", "main"]


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


def _param(text: str):
    """argparse ``type=``: ``KEY=VAL``, VAL coerced to int, then float,
    then str."""
    key, sep, raw = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"needs KEY=VAL, got {text!r}")
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            pass
    return key, raw


def _arg(type, default, help=None, **extra) -> dict:
    """One :data:`FLAGS` entry: a flag's argparse keywords (``bool`` is a
    ``store_true`` switch)."""
    if type is bool:
        return dict(action="store_true", help=help)
    return dict(type=type, default=default, help=help, **extra)


#: Every flag (and the one positional) by the name ``add_argument`` takes.
FLAGS: dict[str, dict] = {
    "name": dict(help="scenario name (see 'repro scenario list')"),
    "--n": _arg(int, 8, "butterfly inputs"),
    "--q": _arg(int, 4),
    "--channels": _arg(int, 1, "B"),
    "--length": _arg(int, 8, "flits per message"),
    "--seed": _arg(int, 0),
    "--width": _arg(int, 10),
    "--depth": _arg(int, 10),
    "--messages": _arg(int, 120),
    "--congestion": _arg(int, 8, "C"),
    "--dilation": _arg(int, 15, "D"),
    "--worms": _arg(int, 3),
    "--workload": _arg(str, "chain-bundle", "registered workload name"),
    "--scenario": _arg(
        str, None, metavar="NAME",
        help="instrument a registered adversarial scenario instead of --workload",
    ),
    "--artifact": _arg(
        str, None, metavar="PATH",
        help="instrument the case stored in a fuzz repro artifact instead "
        "of --workload",
    ),
    "--top": _arg(int, 5, "rows per report table"),
    "--trace": _arg(
        str, None, "also record a JSONL event trace to PATH",
        metavar="PATH",
    ),
    "--param": _arg(
        _param, [], "workload parameter override (repeatable)",
        action="append", metavar="KEY=VAL",
    ),
    "--simulators": _arg(
        str, None,
        "comma-separated simulators to cycle (multi-key traffic for a sharded "
        "tier; default: wormhole only)",
    ),
    "--repeats": _arg(int, 1, "trials per cell"),
    "--workers": _arg(
        int, 2, "worker processes in the batch backend's pool (process backend only)"
    ),
    "--backend": _arg(
        str, "inline", choices=("inline", "process"),
        help="batch execution backend (process = fault-isolated workers with "
        "crash recovery)",
    ),
    "--cache-dir": _arg(
        str, None, "reuse/populate a per-trial result cache in this directory"
    ),
    "--force": _arg(bool, False, "recompute cached trials"),
    "--batch-size": _arg(
        str, "auto",
        "trials per lockstep batch, for every flit-level router ('auto', or a "
        "positive integer; 1 disables batching — results are identical either way)",
    ),
    "--dry-run": _arg(
        bool, False,
        "print the packed batch plan (cells per batch, cache hits) without "
        "executing any trial",
    ),
    "--host": _arg(str, "127.0.0.1"),
    "--port": _arg(int, 7654, "0 = ephemeral"),
    "--queue-limit": _arg(
        int, 64, "admission queue depth; a full queue rejects with Retry-After"
    ),
    "--max-batch": _arg(int, 32, "max compatible trials per lockstep batch"),
    "--max-wait-ms": _arg(
        float, 2.0, "max time the oldest queued request waits for batch company"
    ),
    "--batch-timeout-s": _arg(
        float, None, "per-batch execution timeout (process backend only)"
    ),
    "--port-file": _arg(
        str, None, metavar="PATH",
        help="write the bound port here once listening (pairs with --port 0; "
        "how a supervisor finds an ephemeral-port worker)",
    ),
    "--backend-workers": _arg(
        int, 1,
        "worker processes in each worker's backend pool (process backend only)",
    ),
    "--runtime-dir": _arg(str, None, "port files + worker logs (default: tempdir)"),
    "--lengths": _arg(
        _int_list, None,
        "comma-separated message lengths to cycle (multi-key traffic; overrides "
        "--length)",
    ),
    "--requests": _arg(int, 32, "total requests"),
    "--concurrency": _arg(int, 8, "concurrent connections"),
    "--rate": _arg(
        float, 0.0, "aggregate request rate in req/s (0 = as fast as possible)"
    ),
    "--deadline-ms": _arg(float, None, "per-request queueing deadline"),
    "--mode": _arg(
        str, "exact", choices=("exact", "estimate"),
        help="request mode: 'exact' runs trials through the batcher, 'estimate' "
        "asks for the analytic delay envelope (verified against the local "
        "estimator instead of a serial replay)",
    ),
    "--no-verify": _arg(bool, False, "skip the serial-replay bit-exactness check"),
    "--shutdown": _arg(
        bool, False, "send a graceful-shutdown op to the server when done"
    ),
    "--output": _arg(str, None, "also write the full JSON report to this file"),
    "--model": _arg(
        str, None, "model to run under (default: the scenario's first declared)"
    ),
    "--rounds": _arg(int, 50, "cases to generate"),
    "--families": _arg(
        str, None,
        "comma-separated case families (default: all; see repro.fuzz.FAMILIES)",
    ),
    "--artifact-dir": _arg(
        str, "fuzz-artifacts", "where violation repro artifacts are written"
    ),
    "--replay": _arg(
        str, None, metavar="PATH",
        help="re-run the exact case stored in a repro artifact instead of fuzzing",
    ),
}


_AUTO_LENGTH = "flits per message (0 = auto)"
_B_LIST = dict(type=_int_list, help="comma-separated B values")

#: Help line of each command group (a two-word row key names its group).
GROUPS = {
    "cluster": "sharded multi-worker service tier: consistent-hash router "
    "over supervised workers with a shared result cache",
    "scenario": "adversarial scenario library: curated hard cases judged "
    "by the invariant expectation table",
}


class Command(NamedTuple):
    """One row of the front end: ``repro <key>`` runs ``handler(args)``."""

    help: str
    handler: Callable[[argparse.Namespace], None]
    #: dest -> (``add_argument`` name, argparse keywords), in --help order.
    flags: dict[str, tuple[str, dict]]


COMMANDS: dict[str, Command] = {}


def command(key: str, help: str, flags: str = "", **overrides):
    """Register the decorated handler as the ``repro <key>`` row.

    ``flags`` names the row's :data:`FLAGS` by dest, in ``--help`` order;
    ``dest=VALUE`` gives this command's default (a string, which argparse
    converts by the flag's ``type``).  ``overrides`` maps a dest to the
    command's own help text, or to a dict of the argparse keywords it changes.
    """
    row: dict[str, tuple[str, dict]] = {}
    for item in flags.split():
        dest, given, default = item.partition("=")
        name = "--" + dest.replace("_", "-")
        name = name if name in FLAGS else dest  # the one positional
        changed = overrides.pop(dest, {})
        changed = {"help": changed} if isinstance(changed, str) else {**changed}
        if given:
            changed["default"] = default
        row[dest] = name, {**FLAGS[name], **changed}
    assert not overrides, f"overrides for flags the row does not name: {overrides}"

    def register(handler):
        COMMANDS[key] = Command(help, handler, row)
        return handler

    return register


def _names(text: str | None) -> tuple[str, ...]:
    """The names in a comma-separated flag value (none when unset)."""
    return tuple(s.strip() for s in (text or "").split(",") if s.strip())


def _config(cls, args: argparse.Namespace, **fields):
    """A config dataclass from the parsed flags: every flag whose dest is
    one of ``cls``'s fields, plus the explicitly converted ``fields``."""
    flags = vars(args)
    named = {f.name: flags[f.name] for f in dataclasses.fields(cls) if f.name in flags}
    return cls(**{**named, **fields})


@command("info", "package and model summary")
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
        "simulate",
        "lll_schedule",
        "build_hard_instance",
        "ButterflyRouter",
        "circuit_switch_butterfly",
    ):
        print(f"  - repro.{name}")
    print()
    print("See DESIGN.md for the system inventory, EXPERIMENTS.md for results.")


@command("demo", "quickstart: butterfly permutation vs B", "n length=16 seed")
def _cmd_demo(args: argparse.Namespace) -> None:
    from repro import Table, simulate
    from repro.sim.sweep import build_workload

    wl = build_workload("butterfly-bitrev", {"n": args.n})
    table = Table(
        f"Bit-reversal on an {args.n}-input butterfly (L={args.length})",
        ["B", "makespan", "blocked flit steps"],
    )
    for B in (1, 2, 4):
        res = simulate(wl, B=B, message_length=args.length, seed=args.seed)
        table.add_row([B, res.makespan, res.total_blocked_steps])
    print(table.render())


@command("butterfly", "Section 3.1 q-relation router", "n=64 q channels=2 length seed")
def _cmd_butterfly(args: argparse.Namespace) -> None:
    import numpy as np

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


@command(
    "schedule", "Theorem 2.1.6 schedule pipeline", "width depth messages length=10 seed"
)
def _cmd_schedule(args: argparse.Namespace) -> None:
    from repro import Table
    from repro.scenarios import get_scenario

    dests = ("width", "depth", "messages", "seed", "length")
    params = {dest: getattr(args, dest) for dest in dests}
    scen = get_scenario("lll-schedule")
    runs = [scen.run(B=B, schedule_seed=B, **params) for B in (1, 2, 4)]
    info = runs[0].workload.info
    table = Table(
        f"LLL schedules: C={info['congestion']}, D={info['dilation']}, "
        f"L={args.length}, {args.messages} messages",
        ["B", "classes", "makespan", "blocked"],
    )
    for r in runs:
        classes = r.workload.info["classes"]
        table.add_row([r.B, classes, r.outcome.makespan, r.outcome.total_blocked_steps])
    print(table.render())
    bad = [v for r in runs for v in r.violations]
    for v in bad:
        print(f"VIOLATION [{v.invariant}] {v.detail}")
    if bad:
        raise SystemExit(f"repro schedule: {len(bad)} expectation(s) violated")


@command(
    "hard-instance", "Theorem 2.2.1 lower bound", "congestion dilation channels seed"
)
def _cmd_hard_instance(args: argparse.Namespace) -> None:
    from repro import build_hard_instance, hard_instance_lower_bound, simulate

    inst = build_hard_instance(
        C=args.congestion, D=args.dilation, B=args.channels
    )
    L = inst.recommended_length()
    res = simulate(
        (inst.network, inst.paths), B=args.channels, message_length=L,
        seed=args.seed,
    )
    print(
        f"Theorem 2.2.1 instance: M'={inst.m_prime}, M={inst.num_messages}, "
        f"C={inst.congestion}, D={inst.dilation}, B={inst.B}, L={L}"
    )
    print(f"greedy routing time : {res.makespan} flit steps")
    print(f"Omega bound (L-D)M/B: {hard_instance_lower_bound(inst, L):.0f}")


@command("spacetime", "worm spacetime diagram", "worms depth=4 length=5 channels")
def _cmd_spacetime(args: argparse.Namespace) -> None:
    from repro import simulate
    from repro.analysis.render import render_spacetime
    from repro.telemetry import TraceSnapshotCollector

    snapshot = TraceSnapshotCollector()
    simulate(
        "chain-bundle",
        workload_params=dict(chains=1, depth=args.depth, messages=args.worms),
        B=args.channels,
        message_length=args.length,
        priority="index",
        telemetry=[snapshot],
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


#: ``profile --workload`` choice -> (registered workload, its builder
#: parameters from the flags, report title over the workload's info).
_PROFILE_WORKLOADS = {
    "hard-instance": (
        "hard-instance",
        lambda a: {"C": a.congestion, "D": a.dilation, "B": a.channels},
        "Theorem 2.2.1 hard instance: C={congestion}, D={dilation}, B={B}, L={L}",
    ),
    "demo": (
        "butterfly-bitrev",
        lambda a: {"n": a.n},
        "Bit-reversal on an {n}-input butterfly: B={B}, L={L}",
    ),
    # The `layered` builder's default instance, scheduled for --channels
    # at --length (0: its depth).
    "schedule": (
        "scenario:lll-schedule",
        lambda a: {
            "width": 10,
            "depth": 10,
            "messages": 120,
            "seed": a.seed,
            "B": a.channels,
            "length": a.length or None,
            "schedule_seed": a.seed,
        },
        "Theorem 2.1.6 schedule: {classes} classes, B={B}, L={L}",
    ),
}


@command(
    "profile",
    "telemetry report (utilization, occupancy, stall blame)",
    "workload=hard-instance scenario artifact congestion dilation channels n "
    "length=0 top trace seed",
    workload=dict(
        choices=tuple(_PROFILE_WORKLOADS),
        help="what to instrument (default: the Theorem 2.2.1 instance)",
    ),
    congestion="C (hard-instance)",
    dilation="D (hard-instance)",
    n="butterfly inputs (demo)",
    length=_AUTO_LENGTH,
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

    if args.scenario is not None and args.artifact is not None:
        raise SystemExit(
            "repro profile: choose --scenario or --artifact, not both"
        )
    if args.scenario is not None:
        result, title = _profile_scenario(args, probes)
    elif args.artifact is not None:
        result, title = _profile_artifact(args, probes)
    else:
        result, title = _profile_workload(args, probes)

    print(render_report(probes, result, top=args.top, title=title))
    if recorder is not None:
        try:
            recorder.save(args.trace)
        except OSError as exc:
            raise SystemExit(f"repro profile: cannot write trace: {exc}")
        print(f"trace written to {args.trace}")


def _profile_workload(args: argparse.Namespace, probes):
    """Instrument one ``--workload`` choice, built by the sweep registry."""
    from repro import simulate
    from repro.sim.sweep import build_workload

    name, params, title = _PROFILE_WORKLOADS[args.workload]
    wl = build_workload(name, params(args))
    B, L = args.channels, args.length or wl.default_length
    result = simulate(wl, B=B, message_length=L, seed=args.seed, telemetry=probes)
    return result, title.format(**wl.info, B=B, L=L)


def _profile_scenario(args: argparse.Namespace, probes):
    """Instrument a registered scenario run for the profile report."""
    from repro.scenarios import get_scenario
    from repro.sim.batch import LOCKSTEP_MODELS

    scen = get_scenario(args.scenario)
    capable = [
        m for m in scen.models if m in LOCKSTEP_MODELS and LOCKSTEP_MODELS[m].telemetry
    ]
    if not capable:
        raise SystemExit(
            f"repro profile: scenario {args.scenario!r} has no "
            f"telemetry-capable model (declared: {', '.join(scen.models)})"
        )
    model = capable[0]
    run = scen.run(B=args.channels, model=model, seed=args.seed, telemetry=probes)
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

    from repro import simulate
    from repro.fuzz.fuzzer import case_from_artifact

    try:
        payload = json.loads(Path(args.artifact).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro profile: cannot read artifact: {exc}")
    case = case_from_artifact(payload)
    result = simulate(
        case.workload,
        model="wormhole",
        B=case.channels[0],
        seed=case.sim_seed,
        telemetry=probes,
    )
    return result, f"fuzz artifact: {case.describe()}"


@command(
    "sweep",
    "run a (simulator, workload, B, seed) trial grid, "
    "optionally in parallel and cached",
    "workload param simulators=wormhole,cut_through,store_forward channels=1,2,4 "
    "length=0 repeats workers=0 backend cache_dir force batch_size dry_run seed",
    workload="registered workload name (layered, hard-instance, "
    "chain-bundle, butterfly-bitrev, mesh-permutation, or "
    "scenario:<name> for a registered scenario)",
    simulators="comma-separated simulator names",
    channels=_B_LIST,
    length=_AUTO_LENGTH,
    workers="worker processes (0 = serial; results are identical)",
    backend=dict(
        choices=("inline", "thread", "process"), default=None,
        help="execution backend (default: process when --workers >= 2, "
        "inline otherwise; results are identical)",
    ),
    seed="root seed",
)
def _cmd_sweep(args: argparse.Namespace) -> None:
    from repro import Table
    from repro.sim.sweep import plan_sweep, run_sweep, sweep_grid

    workload_params = dict(args.param)
    specs = sweep_grid(
        args.workload,
        _names(args.simulators),
        args.channels,
        workload_params=workload_params,
        message_length=args.length or None,
        repeats=args.repeats,
    )
    try:
        batch_size = None if args.batch_size == "auto" else int(args.batch_size)
    except ValueError:
        batch_size = 0
    if batch_size is not None and batch_size < 1:
        raise SystemExit(
            f"repro sweep: --batch-size must be 'auto' or a positive "
            f"integer, got {args.batch_size!r}"
        )
    shared = dict(
        root_seed=args.seed,
        cache_dir=args.cache_dir,
        force=args.force,
        batch_size=batch_size,
    )
    if args.dry_run:
        _print_sweep_plan(specs, plan_sweep(specs, **shared))
        return
    out = run_sweep(specs, workers=args.workers, backend=args.backend, **shared)

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


def _print_sweep_plan(specs, plan) -> None:
    """``--dry-run``: the plan ``run_sweep`` would execute, unexecuted."""
    from collections import Counter

    from repro import Table

    table = Table(
        f"sweep plan (dry run, batch size {plan.batch_size})",
        ["unit", "kind", "simulator", "workload", "trials", "B values"],
    )
    labels = {"lockstep": "lockstep batch(es)", "single": "single(s)"}
    units: Counter = Counter()  # (simulator | None for all, kind) -> units
    for n, (_, idxs) in enumerate(plan.units):
        spec0 = specs[idxs[0]]
        kind = "lockstep" if len(idxs) > 1 else "single"
        units[spec0.simulator, kind] += 1
        units[None, kind] += 1
        B_values = ",".join(str(specs[i].B) for i in idxs)
        table.add_row(
            [n, kind, spec0.simulator, spec0.workload, len(idxs), B_values]
        )
    print(table.render())
    for sim in sorted({sim for sim, _ in units if sim is not None}):
        parts = [f"{units[sim, k]} {labels[k]}" for k in labels if units[sim, k]]
        print(f"  {sim}: {' + '.join(parts)}")
    print(
        f"{len(specs)} trials: {len(plan.cached)} cache hits, "
        f"{len(specs) - len(plan.cached)} to execute in "
        f"{' + '.join(f'{units[None, k]} {labels[k]}' for k in labels)}; "
        f"nothing executed (dry run)"
    )


def _serve(endpoint) -> None:
    """Run one serving tier until it has drained."""
    import asyncio

    from repro.service import serve

    try:
        asyncio.run(serve(endpoint))
    except KeyboardInterrupt:
        pass  # signal handler already drained; double-^C lands here


@command(
    "serve",
    "run the asyncio trial service (dynamic batching, "
    "backpressure, graceful drain)",
    "host port queue_limit max_batch max_wait_ms backend workers batch_timeout_s "
    "port_file",
)
def _cmd_serve(args: argparse.Namespace) -> None:
    from repro.service import ServiceConfig, SimulationService

    _serve(SimulationService(_config(ServiceConfig, args)))


@command(
    "cluster serve",
    "run a v1-protocol router fronting N supervised "
    "'repro serve' worker processes",
    "host port=7900 workers cache_dir queue_limit max_batch max_wait_ms backend "
    "backend_workers runtime_dir",
    workers="worker service processes",
    cache_dir="shared cross-worker result cache directory "
    "(default: fresh per-tier tempdir)",
    queue_limit="per-worker queue depth",
    max_batch="per-worker max compatible trials per lockstep batch",
    max_wait_ms="per-worker max wait for batch company",
    backend="execution backend inside each worker process",
)
def _cmd_cluster_serve(args: argparse.Namespace) -> None:
    from repro.cluster import ClusterConfig, ClusterRouter
    from repro.service import ServiceConfig

    worker = _config(ServiceConfig, args, workers=args.backend_workers)
    _serve(ClusterRouter(_config(ClusterConfig, args, worker=worker)))


@command(
    "loadgen",
    "drive a running trial server; verify bit-exactness against "
    "serial replays",
    "host port workload scenario param channels=1,2,4 length=0 simulators lengths "
    "requests concurrency rate deadline_ms mode no_verify shutdown output seed",
    port=dict(help=None),
    scenario="replay a registered adversarial scenario instead of --workload "
    "(arrival-trace scenarios also pace the request stream)",
    channels={**_B_LIST, "help": "comma-separated B values to cycle"},
    length=_AUTO_LENGTH,
    seed="root seed",
)
def _cmd_loadgen(args: argparse.Namespace) -> None:
    import asyncio
    import json
    from pathlib import Path

    from repro.service import LoadgenConfig, run_loadgen

    config = _config(
        LoadgenConfig,
        args,
        workload_params=dict(args.param),
        simulators=_names(args.simulators),
        lengths=args.lengths or (),
        message_length=args.length or None,
        root_seed=args.seed,
        verify=not args.no_verify,
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


@command("scenario list", "registered scenarios, one line each")
def _cmd_scenario_list(args: argparse.Namespace) -> None:
    from repro import Table
    from repro.scenarios import SCENARIOS

    table = Table(
        f"{len(SCENARIOS)} registered scenarios",
        ["name", "family", "models", "stresses"],
    )
    for name in sorted(SCENARIOS):
        s = SCENARIOS[name]
        table.add_row([s.name, s.family, ",".join(s.models), s.theorem])
    print(table.render())


@command("scenario show", "one scenario's parameters and checks", "name")
def _cmd_scenario_show(args: argparse.Namespace) -> None:
    from repro.fuzz.expectations import EXPECTATIONS
    from repro.scenarios import get_scenario

    scen = get_scenario(args.name)
    print(f"{scen.name}  [{scen.family}]")
    print(f"stresses: {scen.theorem}")
    print(f"models:   {', '.join(scen.models)}")
    print()
    print(scen.description)
    print()
    print("parameters (defaults):")
    for k, v in scen.defaults().items():
        print(f"  {k} = {v}")
    # The rows a declared model may run under the default build's facts,
    # built at the scenario's own default B where its builder names one.
    facts = scen.build_case(B=scen.defaults().get("B", 1)).facts
    print("expectations:")
    for row in EXPECTATIONS.values():
        if set(row.models) & set(scen.models) and set(row.needs) <= set(facts):
            print(f"  - {row.text(facts)}")


@command(
    "scenario run",
    "build and simulate a scenario; judge it by the expectation table",
    "name model channels=1,2,4 param seed",
    channels=_B_LIST,
    param="builder parameter override (repeatable)",
)
def _cmd_scenario_run(args: argparse.Namespace) -> None:
    import inspect

    from repro import Table
    from repro.network.errors import NetworkError
    from repro.scenarios import get_scenario

    scen = get_scenario(args.name)
    params = dict(args.param)
    own = sorted(set(params) & set(inspect.signature(scen.run).parameters))
    if own:
        raise NetworkError(
            f"--param {own[0]} names one of the run's own options, not a builder "
            f"parameter of {scen.name!r} (B is --channels, model is --model, "
            f"seed is --seed)"
        )
    runs = [
        scen.run(B=B, model=args.model, seed=args.seed, **params)
        for B in args.channels
    ]
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
    wl = runs[0].workload
    info, facts = (
        ", ".join(f"{k}={v}" for k, v in sorted(d.items())) or "-"
        for d in (wl.info, wl.facts)
    )
    print(f"case: {info}; facts: {facts}")
    bad = [v for r in runs for v in r.violations]
    if bad:
        for v in bad:
            print(f"VIOLATION [{v.invariant}] {v.detail}")
        raise SystemExit(
            f"repro scenario: {len(bad)} expectation(s) violated"
        )


@command(
    "fuzz",
    "seeded cross-model invariant fuzzer; writes a shrunk "
    "replayable artifact per violation",
    "rounds seed families artifact_dir replay",
    seed="root seed",
)
def _cmd_fuzz(args: argparse.Namespace) -> None:
    from repro.fuzz import replay_artifact, run_fuzz

    if args.replay is not None:
        try:
            violations = replay_artifact(args.replay)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"repro fuzz: cannot replay: {exc}")
        if not violations:
            print(f"replay of {args.replay}: clean (violation not reproduced)")
            return
        for v in violations:
            print(f"VIOLATION [{v.invariant}] {v.detail}")
        raise SystemExit(
            f"repro fuzz: replay reproduced {len(violations)} violation(s)"
        )

    report = run_fuzz(
        args.rounds,
        seed=args.seed,
        families=_names(args.families) or None,
        artifact_dir=args.artifact_dir,
    )
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


@command(
    "experiment",
    "regenerate one of the paper experiments (e1..e18, perf)",
    "name",
    name="experiment id, e.g. e2 or e11",
)
def _cmd_experiment(args: argparse.Namespace) -> None:
    """Run one experiment's benchmark file and print its saved tables."""
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
    proc = _run_benchmarks(
        bench_dir, *map(str, matches), "--benchmark-disable-gc", "--no-header"
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


@command(
    "reproduce",
    "run every experiment, rewriting each table in benchmarks/results/",
)
def _cmd_reproduce(args: argparse.Namespace) -> None:
    """Run the full benchmark suite; each experiment writes its tables."""
    bench_dir = _find_bench_dir()
    proc = _run_benchmarks(bench_dir, str(bench_dir))
    summary = next(
        (ln for ln in reversed(proc.stdout.splitlines()) if "passed" in ln),
        proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "",
    )
    print(f"benchmark suite: {summary.strip()}")
    if proc.returncode != 0:
        print(proc.stdout[-3000:])
        raise SystemExit("reproduction run failed")


def _run_benchmarks(bench_dir, *pytest_args: str):
    """``pytest --benchmark-only -q`` on ``benchmarks/`` targets, captured."""
    import subprocess
    import sys

    argv = [sys.executable, "-m", "pytest", *pytest_args, "--benchmark-only", "-q"]
    return subprocess.run(argv, cwd=bench_dir.parent, capture_output=True, text=True)


def _find_bench_dir():
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    if not bench_dir.is_dir():
        raise SystemExit("benchmarks directory not found (source checkout required)")
    return bench_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Cole, Maggs & Sitaraman: On the Benefit of "
            "Supporting Virtual Channels in Wormhole Routers (SPAA 1996)."
        ),
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for key, row in COMMANDS.items():
        group, _, leaf = key.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(
                group, help=GROUPS[group]
            ).add_subparsers(dest=f"{group}_command", required=True)
        sub = groups[group].add_parser(leaf, help=row.help)
        for name, keywords in row.flags.values():
            sub.add_argument(name, **keywords)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    from repro.network.errors import NetworkError

    args = build_parser().parse_args(argv)
    leaf = getattr(args, f"{args.command}_command", None)
    row = COMMANDS[args.command if leaf is None else f"{args.command} {leaf}"]
    try:
        row.handler(args)
    except NetworkError as exc:
        raise SystemExit(f"repro {args.command}: {exc}") from None
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
