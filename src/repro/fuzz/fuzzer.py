"""Seeded cross-model invariant fuzzer: ``repro fuzz --rounds N --seed S``.

Each round draws a random case from one of five families —

``layered``
    random leveled network + random-walk paths (the Theorem 2.1.6
    substrate), cross-checked for delivery, unobstructed time, the
    ``ceil(L C / B)`` capacity bound, B-monotonicity (wormhole and
    store-and-forward), full-vs-restricted dominance, the LLL schedule
    length bound, Dally-Seitz consistency, batched == serial
    bit-exactness for every batched model (all five lockstep kernels,
    the adaptive one on a derived permutation mesh), the
    store-and-forward ``O(L (C + D))`` envelope, and the
    ``repro.analysis.estimate`` delay envelope (``lower <= makespan
    <= upper``) on every clean wormhole / store-and-forward /
    restricted run;
``chain``
    :func:`~repro.network.random_networks.chain_bundle` bundles with
    exactly dialed congestion/dilation, same oracles;
``gadget``
    the Theorem 2.2.1 hard instance at a random ``(C, D, B)``, plus the
    explicit ``(L - D) M / B`` lower bound;
``ring``
    cyclic ring traffic where deadlock is *deterministic*
    (``deadlocked iff B < hops`` given ``L > B``) and the dateline VC
    assignment must restore delivery;
``continuous``
    open-loop arrival traces through the continuous simulator, checked
    for message conservation.

Every case is reproducible from ``(root seed, round index)`` alone.  On
a violation the fuzzer *shrinks* — greedily dropping path chunks and
reducing ``L`` while the violation persists — and writes a replayable
JSON artifact; ``repro fuzz --replay <artifact>`` re-runs exactly that
case.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..network.graph import Network, NetworkError
from . import invariants as inv
from .invariants import Violation

__all__ = [
    "FuzzCase",
    "FuzzReport",
    "FAMILIES",
    "replay_artifact",
    "run_case",
    "run_fuzz",
    "shrink_case",
]

ARTIFACT_VERSION = 1

#: Case families, in draw order.  ``weights`` biases the draw toward the
#: cheap high-yield families.
FAMILIES = ("layered", "chain", "gadget", "ring", "continuous")
_FAMILY_WEIGHTS = (0.35, 0.25, 0.15, 0.15, 0.10)


@dataclass
class FuzzCase:
    """One generated case: a network, routes, and run parameters.

    ``extra`` carries family-specific facts the checkers need (the
    gadget's lower bound, the ring's expected-deadlock verdict, the
    continuous trace, ...).  A case is fully serializable: the network
    travels as its insertion-ordered edge list, so
    ``Network.add_edge`` replay rebuilds identical edge ids.
    """

    family: str
    network: Network
    paths: list[list[int]]  # edge-id sequences
    message_length: int
    priority: str
    sim_seed: int
    channels: tuple[int, ...]
    extra: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        return (
            f"{self.family}: {self.network.num_nodes} nodes, "
            f"{self.network.num_edges} edges, {len(self.paths)} paths, "
            f"L={self.message_length}, channels={list(self.channels)}"
        )


@dataclass
class FuzzReport:
    """Outcome of :func:`run_fuzz`."""

    rounds: int
    seed: int
    cases_by_family: dict[str, int]
    checks_run: int
    failures: list[dict[str, Any]]  # artifact payloads (also on disk)
    artifact_paths: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


class _PathShim:
    """Duck-typed stand-in for :class:`repro.routing.paths.Path`.

    ``congestion`` / ``dilation`` / ``channel_dependency_graph`` only
    read ``.edges`` and ``.length`` — a shim avoids re-walking node
    sequences for every generated case.
    """

    __slots__ = ("edges", "length")

    def __init__(self, edges):
        self.edges = tuple(int(e) for e in edges)
        self.length = len(self.edges)


def _stats(paths: list[list[int]]) -> tuple[int, int]:
    from ..routing.paths import congestion, dilation

    shims = [_PathShim(p) for p in paths]
    return congestion(shims), dilation(shims)


# ----------------------------------------------------------------------
# Case generators (one per family, driven by a spawned Generator)
# ----------------------------------------------------------------------


def _gen_layered(rng: np.random.Generator) -> FuzzCase:
    from ..network.random_networks import layered_network, random_walk_paths

    width = int(rng.integers(4, 7))
    depth = int(rng.integers(3, 6))
    out_degree = int(rng.integers(2, 4))
    messages = int(rng.integers(6, 17))
    net = layered_network(width, depth, out_degree, rng)
    walks = random_walk_paths(net, width, depth, messages, rng)
    paths = [_edges_of_walk(net, w) for w in walks]
    return FuzzCase(
        family="layered",
        network=net,
        paths=paths,
        message_length=int(rng.integers(4, 13)),
        priority=str(rng.choice(["random", "age"])),
        sim_seed=int(rng.integers(0, 2**31)),
        channels=(1, 2, 4),
        extra={"acyclic": True},  # leveled networks: forward-only CDG
    )


def _edges_of_walk(net: Network, walk) -> list[int]:
    edges = []
    for u, v in zip(walk[:-1], walk[1:]):
        edges.append(net.edge_between(int(u), int(v)))
    return edges


def _gen_chain(rng: np.random.Generator) -> FuzzCase:
    from ..network.random_networks import chain_bundle

    chains = int(rng.integers(2, 5))
    depth = int(rng.integers(3, 9))
    messages = int(rng.integers(2, 7))
    net, walks = chain_bundle(chains, depth, messages)
    paths = [_edges_of_walk(net, w) for w in walks]
    return FuzzCase(
        family="chain",
        network=net,
        paths=paths,
        message_length=int(rng.integers(4, 13)),
        priority=str(rng.choice(["random", "age"])),
        sim_seed=int(rng.integers(0, 2**31)),
        channels=(1, 2, 4),
        extra={"acyclic": True},
    )


def _gen_gadget(rng: np.random.Generator) -> FuzzCase:
    from ..core.lower_bound import (
        build_hard_instance,
        hard_instance_lower_bound,
    )

    B = int(rng.choice([1, 2]))
    C = (B + 1) * int(rng.integers(2, 4))
    D = int(rng.integers(max(7, B + 2), 12))
    inst = build_hard_instance(C=C, D=D, B=B)
    L = inst.recommended_length(float(rng.uniform(1.5, 2.5)))
    bound = hard_instance_lower_bound(inst, L)
    return FuzzCase(
        family="gadget",
        network=inst.network,
        paths=[list(p) for p in inst.paths],
        message_length=L,
        priority=str(rng.choice(["random", "age"])),
        sim_seed=int(rng.integers(0, 2**31)),
        channels=(B,),
        extra={
            "built_B": B,
            "dilation": inst.dilation,
            "acyclic": True,
        },
    )


def _gen_ring(rng: np.random.Generator) -> FuzzCase:
    n = int(rng.integers(3, 7))
    hops = int(rng.integers(2, n + 1))
    B = int(rng.choice([1, 2, 3]))
    L = hops + B + int(rng.integers(1, 4))  # L > B: worms can wrap shut
    net = Network(name=f"fuzz-ring({n})")
    nodes = net.add_nodes(range(n))
    ring = [net.add_edge(nodes[i], nodes[(i + 1) % n]) for i in range(n)]
    paths = [[ring[(s + j) % n] for j in range(hops)] for s in range(n)]
    return FuzzCase(
        family="ring",
        network=net,
        paths=paths,
        message_length=L,
        priority="index",
        sim_seed=int(rng.integers(0, 2**31)),
        channels=(B,),
        extra={"hops": hops, "expect_deadlock": B < hops},
    )


def _gen_continuous(rng: np.random.Generator) -> FuzzCase:
    from ..network.random_networks import layered_network

    width = int(rng.integers(4, 7))
    depth = int(rng.integers(3, 5))
    net = layered_network(width, depth, int(rng.integers(2, 4)), rng)
    horizon = int(rng.integers(150, 301))
    shape = str(rng.choice(["constant", "burst"]))
    if shape == "burst":
        period = int(rng.integers(40, 90))
        burst = int(rng.integers(10, period // 2 + 1))
        t = np.arange(horizon)
        trace = np.where(
            (t % period) < burst, float(rng.uniform(0.3, 0.7)), 0.02
        )
    else:
        trace = np.full(horizon, float(rng.uniform(0.05, 0.4)))
    return FuzzCase(
        family="continuous",
        network=net,
        paths=[],
        message_length=int(rng.integers(3, 9)),
        priority="random",
        sim_seed=int(rng.integers(0, 2**31)),
        channels=(int(rng.choice([1, 2, 4])),),
        extra={
            "width": width,
            "depth": depth,
            "horizon": horizon,
            "rate_trace": [round(float(r), 6) for r in trace],
        },
    )


_GENERATORS = {
    "layered": _gen_layered,
    "chain": _gen_chain,
    "gadget": _gen_gadget,
    "ring": _gen_ring,
    "continuous": _gen_continuous,
}


def generate_case(
    root_seed: int, round_index: int, families: tuple[str, ...] = FAMILIES
) -> FuzzCase:
    """The case for ``(root_seed, round_index)`` — stable by construction.

    Each round gets its own :class:`numpy.random.SeedSequence` spawn, so
    inserting new draw sites in one generator never perturbs any other
    round.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=root_seed, spawn_key=(round_index,))
    )
    if families == FAMILIES:
        weights = np.asarray(_FAMILY_WEIGHTS)
    else:
        weights = np.ones(len(families)) / len(families)
    family = str(rng.choice(list(families), p=weights / weights.sum()))
    return _GENERATORS[family](rng)


# ----------------------------------------------------------------------
# Checking one case
# ----------------------------------------------------------------------


def _run_model(case: FuzzCase, model: str, B: int, telemetry=None):
    from ..facade import simulate

    return simulate(
        (case.network, case.paths),
        model=model,
        B=B,
        message_length=case.message_length,
        seed=case.sim_seed,
        priority=case.priority,
        telemetry=telemetry,
        max_steps=200_000,
    )


def _envelope_check(
    case: FuzzCase, model: str, B: int, res: Any, C: int
) -> Violation | None:
    """Clean run inside the ``repro.analysis.estimate`` envelope.

    Skips deadlocked / step-capped runs: the upper budget is
    conditioned on clean delivery (a stalled run's makespan measures
    the stall, not the routing).
    """
    if res.deadlocked or res.hit_step_cap:
        return None
    from ..analysis.estimate import estimate_paths

    env = estimate_paths(
        model,
        message_length=case.message_length,
        B=B,
        path_lengths=[len(p) for p in case.paths],
        congestion=C,
    )
    return inv.check_estimate_envelope(
        int(res.makespan), lower=env.lower, upper=env.upper, model=model
    )


def _check_routed(case: FuzzCase, telemetry=None) -> list[Violation]:
    """The wormhole-family oracles on one routed case."""
    C, D = _stats(case.paths)
    lengths = [len(p) for p in case.paths]
    L = case.message_length
    out: list[Violation] = []

    worm_makespans: dict[int, int] = {}
    for B in case.channels:
        res = _run_model(case, "wormhole", B, telemetry=telemetry)
        f_deadlocked = bool(res.deadlocked)
        f_cap = bool(res.hit_step_cap)
        out.extend(
            v
            for v in (
                inv.check_delivery(
                    delivered=int(res.num_delivered),
                    messages=int(res.num_messages),
                    deadlocked=f_deadlocked,
                    hit_step_cap=f_cap,
                ),
                None
                if (f_deadlocked or f_cap)
                else inv.check_unobstructed(
                    int(res.makespan),
                    message_length=L,
                    path_lengths=lengths,
                    B=B,
                ),
                None
                if (f_deadlocked or f_cap)
                else inv.check_congestion_bound(
                    int(res.makespan),
                    message_length=L,
                    congestion=C,
                    B=B,
                ),
                _envelope_check(case, "wormhole", B, res, C),
                inv.check_deadlock_consistency(
                    f_deadlocked,
                    cdg_acyclic=bool(case.extra.get("acyclic", False)),
                ),
            )
            if v is not None
        )
        if case.extra.get("expect_deadlock") is not None:
            want = B < int(case.extra["hops"])
            if f_deadlocked != want:
                out.append(
                    Violation(
                        "ring-deadlock-determinism",
                        f"ring case with hops={case.extra['hops']}, B={B}, "
                        f"L={L}: expected deadlocked={want}, "
                        f"observed {f_deadlocked}",
                        observed=f_deadlocked,
                        bound=want,
                    )
                )
        if not (f_deadlocked or f_cap):
            worm_makespans[B] = int(res.makespan)
        if case.extra.get("built_B") == B and not (f_deadlocked or f_cap):
            bound = (L - int(case.extra["dilation"])) * len(case.paths) / B
            got = inv.check_gadget_bound(int(res.makespan), lower_bound=bound)
            if got is not None:
                out.append(got)
    out.extend(inv.check_b_monotonicity(worm_makespans, model="wormhole"))

    if case.family in ("layered", "chain"):
        out.extend(_check_dominance_and_schedule(case, C, D, worm_makespans))
    return out


def _check_dominance_and_schedule(
    case: FuzzCase, C: int, D: int, worm_makespans: dict[int, int]
) -> list[Violation]:
    from ..core.scheduler import run_lll_schedule

    L = case.message_length
    lengths = [len(p) for p in case.paths]
    out: list[Violation] = []

    # Store-and-forward: monotone in bandwidth + asymptotic envelope.
    sf_makespans: dict[int, int] = {}
    for B in case.channels:
        res = _run_model(case, "store_forward", B)
        if res.deadlocked or res.hit_step_cap:
            continue
        sf_makespans[B] = int(res.makespan)
        got = _envelope_check(case, "store_forward", B, res, C)
        if got is not None:
            out.append(got)
        got = inv.check_unobstructed(
            int(res.makespan),
            message_length=L,
            path_lengths=lengths,
            B=B,
            model="store_forward",
        )
        if got is not None:
            out.append(got)
        if B == 1:
            got = inv.check_store_forward_envelope(
                int(res.makespan), message_length=L, congestion=C, dilation=D
            )
            if got is not None:
                out.append(got)
    out.extend(
        inv.check_b_monotonicity(sf_makespans, model="store_forward")
    )

    # Section 1.4: full B=C multiplexing dominates the restricted model.
    B_low = case.channels[0]
    if C >= 1 and B_low in worm_makespans:
        restricted = _run_model(case, "restricted", B_low)
        full = _run_model(case, "wormhole", max(C, 1))
        if not (
            restricted.deadlocked
            or restricted.hit_step_cap
            or full.deadlocked
            or full.hit_step_cap
        ):
            got = inv.check_full_vs_restricted(
                int(full.makespan),
                int(restricted.makespan),
                B=B_low,
                congestion=C,
            )
            if got is not None:
                out.append(got)
            got = _envelope_check(case, "restricted", B_low, restricted, C)
            if got is not None:
                out.append(got)

    # Theorem 2.1.6: build + execute an LLL schedule at each B.
    for B in case.channels:
        build, res = run_lll_schedule(
            case.network,
            case.paths,
            L,
            B,
            rng=np.random.default_rng(case.sim_seed),
            seed=case.sim_seed,
            require_unblocked=False,
        )
        got = inv.check_schedule_bound(
            int(res.makespan), length_bound=int(build.length_bound)
        )
        if got is not None:
            out.append(got)
        got = inv.check_delivery(
            delivered=int(res.num_delivered),
            messages=int(res.num_messages),
            deadlocked=bool(res.deadlocked),
            hit_step_cap=bool(res.hit_step_cap),
            model="schedule",
        )
        if got is not None:
            out.append(got)

    # Batched lockstep == serial, at the lowest channel count.
    out.extend(_check_batch_serial(case, B_low))
    return out


def _check_batch_serial(case: FuzzCase, B: int) -> list[Violation]:
    """Lockstep batch == serial replay, for *every* batched model.

    The path-based models run on the case's own network and routes,
    each under an arbitration discipline it accepts (cut-through has no
    age priority; restricted and adaptive take none).  The adaptive
    router needs a mesh, so it runs on a small permutation mesh derived
    from the case seed — the invariant still exercises all five kernels
    every round.
    """
    from ..facade import simulate
    from ..network.mesh import KAryNCube
    from ..sim.sweep import _result_metrics

    seeds = [case.sim_seed, case.sim_seed + 1, case.sim_seed + 2]
    routed = (case.network, case.paths)
    ct_priority = case.priority if case.priority in ("random", "index") else "random"
    cube = KAryNCube(4, 2, wrap=False)
    perm = np.random.default_rng(case.sim_seed).permutation(cube.num_nodes)
    demands = [(i, int(d)) for i, d in enumerate(perm) if i != int(d)]
    jobs: list[tuple[str, Any, int, dict[str, Any]]] = [
        ("wormhole", routed, case.message_length, {"priority": case.priority}),
        ("cut_through", routed, case.message_length, {"priority": ct_priority}),
        ("store_forward", routed, case.message_length, {}),
        ("restricted", routed, case.message_length, {}),
        ("adaptive", (cube, demands), min(case.message_length, 6), {}),
    ]
    out: list[Violation] = []
    for model, problem, L, kw in jobs:
        batch = simulate(
            problem, model=model, B=B, batch=seeds, message_length=L, **kw
        )
        serial = [
            simulate(problem, model=model, B=B, seed=s, message_length=L, **kw)
            for s in seeds
        ]
        got = inv.check_batch_matches_serial(
            [_result_metrics(r) for r in batch],
            [_result_metrics(r) for r in serial],
            model=model,
        )
        if got is not None:
            out.append(got)
    return out


def _check_continuous(case: FuzzCase) -> list[Violation]:
    from ..facade import simulate

    width = int(case.extra["width"])
    depth = int(case.extra["depth"])
    net = case.network
    rate = np.asarray(case.extra["rate_trace"], dtype=np.float64)

    def path_of(source: int, prng: np.random.Generator) -> list[int]:
        node = int(source)
        edges: list[int] = []
        for _ in range(depth):
            out = net.out_edges(node)
            e = out[int(prng.integers(len(out)))]
            edges.append(e)
            node = net.head(e)
        return edges

    res = simulate(
        (net, width, path_of),
        model="continuous",
        B=case.channels[0],
        message_length=case.message_length,
        seed=case.sim_seed,
        rate=rate,
        horizon=int(case.extra["horizon"]),
    )
    got = inv.check_conservation(
        generated=int(res.generated),
        delivered=int(res.delivered),
        backlog=int(res.final_backlog),
    )
    return [got] if got is not None else []


#: Dispatch table for :func:`run_case`.  Module-level on purpose: tests
#: monkeypatch entries here to prove a sabotaged invariant is caught,
#: shrunk, and serialized without touching any simulator.
CASE_CHECKERS: dict[str, Any] = {
    "layered": _check_routed,
    "chain": _check_routed,
    "gadget": _check_routed,
    "ring": _check_routed,
    "continuous": lambda case, telemetry=None: _check_continuous(case),
}


def run_case(case: FuzzCase, telemetry: Any = None) -> list[Violation]:
    """All applicable invariant checks for one case (empty == clean)."""
    return CASE_CHECKERS[case.family](case, telemetry=telemetry)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------


def _still_fails(case: FuzzCase, invariant: str) -> bool:
    try:
        return any(v.invariant == invariant for v in run_case(case))
    except NetworkError:
        return False  # a shrink that breaks preconditions is not smaller


def _with(case: FuzzCase, *, paths=None, L=None) -> FuzzCase:
    return FuzzCase(
        family=case.family,
        network=case.network,
        paths=case.paths if paths is None else paths,
        message_length=case.message_length if L is None else L,
        priority=case.priority,
        sim_seed=case.sim_seed,
        channels=case.channels,
        extra=dict(case.extra),
    )


def shrink_case(case: FuzzCase, invariant: str, max_probes: int = 80) -> FuzzCase:
    """Greedy delta-debugging: smallest case still violating ``invariant``.

    Alternates dropping path chunks (halves, then quarters, then single
    paths) with reducing ``L``.  Gadget and ring cases keep their path
    sets intact — a strict subset of the hard instance no longer
    satisfies "every ``B + 1`` messages share a primary edge" (the
    recomputed bound would be unsound), and a partial ring breaks the
    deadlock-determinism rule — so those families shrink ``L`` only.
    """
    probes = 0
    structural = case.family in ("layered", "chain")

    def fails(c: FuzzCase) -> bool:
        nonlocal probes
        if probes >= max_probes:
            return False
        probes += 1
        return _still_fails(c, invariant)

    best = case
    if structural:
        chunk = max(len(best.paths) // 2, 1)
        while chunk >= 1 and len(best.paths) > 1:
            i, shrunk = 0, False
            while i < len(best.paths):
                trial_paths = best.paths[:i] + best.paths[i + chunk :]
                if trial_paths:
                    cand = _with(best, paths=trial_paths)
                    if fails(cand):
                        best = cand
                        shrunk = True
                        continue  # same i: next chunk slid into place
                i += chunk
            if not shrunk:
                chunk //= 2

    # Reduce L (gadget keeps L > D so the bound stays applicable).
    L_floor = 1
    if case.family == "gadget":
        L_floor = int(case.extra.get("dilation", 0)) + 1
    L = best.message_length
    while L > L_floor:
        step = max((L - L_floor) // 2, 1)
        cand = _with(best, L=L - step)
        if fails(cand):
            best = cand
            L = best.message_length
        elif step == 1:
            break
        else:
            L = L - step + step // 2 + 1  # probe a gentler cut next loop
            if L >= best.message_length:
                break
    return best


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------


def case_to_artifact(
    case: FuzzCase,
    violations: list[Violation],
    *,
    root_seed: int,
    round_index: int,
) -> dict[str, Any]:
    net = case.network
    return {
        "version": ARTIFACT_VERSION,
        "family": case.family,
        "violations": [v.to_json() for v in violations],
        "network": {
            "name": net.name,
            "num_nodes": net.num_nodes,
            "edges": [
                [int(net.tail(e)), int(net.head(e))]
                for e in range(net.num_edges)
            ],
        },
        "paths": [[int(e) for e in p] for p in case.paths],
        "message_length": int(case.message_length),
        "priority": case.priority,
        "sim_seed": int(case.sim_seed),
        "channels": [int(b) for b in case.channels],
        "extra": case.extra,
        "fuzz": {"root_seed": int(root_seed), "round": int(round_index)},
    }


def case_from_artifact(payload: dict[str, Any]) -> FuzzCase:
    meta = payload["network"]
    net = Network(name=meta.get("name") or "replayed")
    for i in range(int(meta["num_nodes"])):
        net.add_node(i)
    for tail, head in meta["edges"]:
        net.add_edge(int(tail), int(head))
    return FuzzCase(
        family=payload["family"],
        network=net,
        paths=[[int(e) for e in p] for p in payload["paths"]],
        message_length=int(payload["message_length"]),
        priority=payload["priority"],
        sim_seed=int(payload["sim_seed"]),
        channels=tuple(int(b) for b in payload["channels"]),
        extra=dict(payload.get("extra") or {}),
    )


def replay_artifact(path: str) -> list[Violation]:
    """Re-run the exact case stored in a repro artifact."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != ARTIFACT_VERSION:
        raise NetworkError(
            f"unsupported artifact version {payload.get('version')!r}"
        )
    return run_case(case_from_artifact(payload))


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


def run_fuzz(
    rounds: int,
    seed: int = 0,
    *,
    families: tuple[str, ...] | None = None,
    artifact_dir: str = "fuzz-artifacts",
    telemetry: Any = None,
    progress: Any = None,
) -> FuzzReport:
    """Fuzz ``rounds`` cases from ``seed``; shrink + serialize failures.

    ``telemetry`` (a :mod:`repro.telemetry` probe set) attaches to every
    wormhole run of the routed families, so ``repro profile``-style
    collectors see fuzz traffic unchanged.  ``progress`` is an optional
    ``fn(round_index, case, violations)`` hook for live reporting.
    """
    fams = FAMILIES if families is None else tuple(families)
    unknown = set(fams) - set(FAMILIES)
    if unknown:
        raise NetworkError(
            f"unknown fuzz families: {', '.join(sorted(unknown))}; "
            f"known: {', '.join(FAMILIES)}"
        )
    by_family = dict.fromkeys(fams, 0)
    failures: list[dict[str, Any]] = []
    artifact_paths: list[str] = []
    checks = 0

    for i in range(int(rounds)):
        case = generate_case(int(seed), i, fams)
        by_family[case.family] += 1
        violations = run_case(case, telemetry=telemetry)
        checks += 1
        if progress is not None:
            progress(i, case, violations)
        if not violations:
            continue
        shrunk = shrink_case(case, violations[0].invariant)
        final = run_case(shrunk)
        if not final:  # shrink landed on a flake boundary: keep original
            shrunk, final = case, violations
        payload = case_to_artifact(
            shrunk, final, root_seed=int(seed), round_index=i
        )
        os.makedirs(artifact_dir, exist_ok=True)
        out_path = os.path.join(
            artifact_dir, f"fuzz-{seed}-round{i}-{final[0].invariant}.json"
        )
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        failures.append(payload)
        artifact_paths.append(out_path)

    return FuzzReport(
        rounds=int(rounds),
        seed=int(seed),
        cases_by_family=by_family,
        checks_run=checks,
        failures=failures,
        artifact_paths=artifact_paths,
    )
