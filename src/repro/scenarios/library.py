"""The curated scenarios: the paper's hard cases as registry entries.

Families and the results they stress:

``lower-bound``
    ``lower-bound-gadget`` and ``gadget-hotspot`` — the Theorem 2.2.1
    construction (every ``B+1`` messages share a primary edge), plain
    and with a hot-spotted replica skew; routed runs must take at least
    ``(L - D) M / B`` flit steps.
``contention``
    ``chain-contention`` — :func:`~repro.network.random_networks.chain_bundle`
    bundles with exactly dialed ``C`` and ``D``, checked against the
    unobstructed time and the ``ceil(L C / B)`` edge-capacity bound;
    ``hypercube-valiant`` — one phase of Aiello et al.'s two-phase
    hypercube permutation routing (Section 1.3.4).
``schedule``
    ``layered-walks`` — random leveled workloads, the Theorem 2.1.6
    substrate, under the greedy models; ``lll-schedule`` — the same
    workload released on its LLL schedule, which must run unblocked
    within the schedule's length bound; ``online-delays`` — the same
    workload released on the [13]-style random initial delays;
    ``benes-permutation`` — Waksman batches on a Benes network, a
    schedule held to ``(q - 1)(L + 1) + L + 2 log n - 1`` exactly.
``deadlock``
    ``ring-deadlock`` and ``ring-dateline`` — ring traffic whose channel
    dependency graph is cyclic (deadlocks whenever ``B < hops``) and the
    Dally-Seitz dateline escape that provably breaks the cycle;
    ``hotspot-mesh`` — hot-spot traffic under the adaptive mesh router.
``arrival``
    ``bursty-arrivals`` and ``heavy-tail-arrivals`` — open-loop traces
    (square-wave bursts, Pareto-modulated rates) drawn at build time
    into a wormhole workload whose releases are the arrivals, each
    source one injection queue; judged like any routed trial.

Every builder reads its instance from the registered
:data:`~repro.sim.sweep.WORKLOADS` builder where one exists and states
the facts it knows about it on ``Workload.facts``; every run is judged
by the rows of :mod:`repro.fuzz.expectations` those facts and the run
select — the table and the rule the fuzzer judges its generated cases
by — so a scenario failure and a fuzzer failure mean the same thing.
"""

from __future__ import annotations

import math

import numpy as np

from ..network.graph import Network, NetworkError
from ..network.random_networks import random_walk_route
from ..sim.batch import LOCKSTEP_MODELS
from ..sim.continuous import draw_arrivals
from ..sim.kernels import exact_count
from ..sim.sweep import WORKLOADS, Workload
from .base import register_scenario

__all__: list[str] = []  # scenarios are reached through the registry


# ----------------------------------------------------------------------
# lower-bound family (Theorem 2.2.1)
# ----------------------------------------------------------------------


def _gadget(wl: Workload, B, length_factor) -> Workload:
    """A hard-instance workload at ``L = ceil(length_factor * D)``, with
    the facts of the ``(L - D) M / B`` bound."""
    D = wl.info["dilation"]
    wl.default_length = math.ceil(float(length_factor) * D)
    # Every message visits its primary edges in one global
    # (lexicographic) order, so the dependency graph is acyclic.
    wl.facts = {"built_B": int(B), "dilation": D, "acyclic": True}
    return wl


@register_scenario(
    "lower-bound-gadget",
    family="lower-bound",
    theorem="Theorem 2.2.1",
    models=("wormhole", "cut_through", "store_forward", "restricted"),
)
def _build_lower_bound_gadget(
    B: int = 1, C: int = 8, D: int = 15, length_factor: float = 2.0
) -> Workload:
    """The paper's hard instance, built *for* the requested ``B``: every
    ``B+1`` messages share a primary edge, so at most ``B`` make progress
    per flit step and routing needs ``(L-D)M/B`` steps."""
    wl = WORKLOADS["hard-instance"](C=int(C), D=int(D), B=int(B))
    return _gadget(wl, B, length_factor)


@register_scenario(
    "gadget-hotspot",
    family="lower-bound",
    theorem="Theorem 2.2.1",
    models=("wormhole", "cut_through", "store_forward", "restricted"),
)
def _build_gadget_hotspot(
    B: int = 1,
    C: int = 8,
    D: int = 15,
    hotspot_extra: int = 6,
    length_factor: float = 2.0,
) -> Workload:
    """The hard instance with a hot-spotted replica skew: ``hotspot_extra``
    extra copies of base message 0.  The progress argument survives — any
    ``B+1`` concurrently progressing messages either span ``B+1`` distinct
    bases (they share that subset's primary edge) or repeat a base (the
    copies share *all* of its primary edges) — so the ``(L-D)M/B`` bound
    holds with the inflated ``M``."""
    wl = WORKLOADS["hard-instance"](C=int(C), D=int(D), B=int(B))
    # Path 0 is a replica of base message 0; replicas share their path.
    wl.paths = [*wl.paths, *(list(wl.paths[0]) for _ in range(int(hotspot_extra)))]
    wl.info = {
        "congestion": wl.info["congestion"] + int(hotspot_extra),
        "dilation": wl.info["dilation"],
        "messages": len(wl.paths),
    }
    return _gadget(wl, B, length_factor)


# ----------------------------------------------------------------------
# contention family
# ----------------------------------------------------------------------


@register_scenario(
    "chain-contention",
    family="contention",
    theorem="Theorem 2.1.2 / Section 1.1",
    models=("wormhole", "cut_through", "store_forward", "restricted"),
)
def _build_chain_contention(
    chains: int = 4, depth: int = 12, messages: int = 8
) -> Workload:
    """Disjoint chains with ``messages`` worms each: congestion is exactly
    ``messages`` and dilation exactly ``depth``, the cleanest instance for
    the ``ceil(L C / B)`` capacity bound and the unobstructed time."""
    wl = WORKLOADS["chain-bundle"](chains=chains, depth=depth, messages=messages)
    wl.facts = {"acyclic": True}  # disjoint chains
    return wl


# ----------------------------------------------------------------------
# schedule family (Theorem 2.1.6)
# ----------------------------------------------------------------------


def _layered_walks(width, depth, out_degree, messages, seed) -> Workload:
    wl = WORKLOADS["layered"](
        width=width, depth=depth, out_degree=out_degree, messages=messages, seed=seed
    )
    wl.default_length = int(depth)
    # Leveled: every edge goes one level down, so no dependency cycle.
    wl.facts = {"acyclic": True}
    return wl


@register_scenario(
    "layered-walks",
    family="schedule",
    theorem="Theorem 2.1.6",
    models=("wormhole", "cut_through", "store_forward"),
)
def _build_layered_walks(
    width: int = 8,
    depth: int = 6,
    out_degree: int = 3,
    messages: int = 60,
    seed: int = 0,
) -> Workload:
    """A random leveled workload — random-walk routes down a leveled
    network, the Theorem 2.1.6 substrate — at ``L = depth``, routed
    greedily by each model."""
    return _layered_walks(width, depth, out_degree, messages, seed)


@register_scenario(
    "lll-schedule",
    family="schedule",
    theorem="Theorem 2.1.6",
    models=("wormhole",),
)
def _build_lll_schedule(
    B: int = 1,
    width: int = 8,
    depth: int = 6,
    out_degree: int = 3,
    messages: int = 60,
    seed: int = 0,
    length: int | None = None,
    schedule_seed: int = 0,
) -> Workload:
    """``layered-walks`` released on its LLL schedule for ``B``
    (:func:`~repro.core.scheduler.schedule_workload`, colouring drawn
    from ``schedule_seed``) at ``L = length`` (``None`` is ``depth``):
    the wormhole trial must deliver everything, unblocked, within the
    schedule's ``num_classes * (L + D - 1)`` bound."""
    from ..core.scheduler import schedule_workload

    wl = _layered_walks(width, depth, out_degree, messages, seed)
    if length is not None:
        wl.default_length = length
    return schedule_workload(wl, B, rng=np.random.default_rng(schedule_seed))


@register_scenario(
    "online-delays",
    family="schedule",
    theorem="Cypher et al. [13] (Section 1.3.1 contrast)",
    models=("wormhole",),
)
def _build_online_delays(
    B: int = 1,
    width: int = 8,
    depth: int = 6,
    out_degree: int = 3,
    messages: int = 60,
    seed: int = 0,
    delay_seed: int = 0,
) -> Workload:
    """``layered-walks`` under the online random-delay protocol: each
    message waits a uniform number of ``L``-slots drawn from
    ``delay_seed`` in a window of ``online_window(C, D, B)`` slots
    (:func:`~repro.core.leveled.random_delay_release`), then injects
    greedily, with no further coordination."""
    from ..core.leveled import random_delay_release
    from ..core.online_routing import online_window

    wl = _layered_walks(width, depth, out_degree, messages, seed)
    C, D = wl.info["congestion"], wl.info["dilation"]
    window = online_window(max(C, 1), max(D, 1), exact_count(B, "B", 1))
    wl.release_times = random_delay_release(
        len(wl.paths), wl.default_length, window, np.random.default_rng(delay_seed)
    )
    return wl


@register_scenario(
    "benes-permutation",
    family="schedule",
    theorem="Section 1.3.3 (Waksman [48])",
    models=("wormhole",),
)
def _build_benes_permutation(
    B: int = 1, n: int = 16, q: int = 1, seed: int = 0, length: int = 8
) -> Workload:
    """``q`` random permutations of ``n`` inputs drawn from ``seed``,
    each a Waksman batch on a Benes network, released ``L + 1`` apart at
    ``L = length`` (:func:`~repro.core.scheduler.waksman_workload`): the
    wormhole trial must finish unblocked within
    ``(q - 1)(L + 1) + L + 2 log n - 1`` steps, which is also its
    unobstructed time."""
    from ..core.scheduler import waksman_workload

    rng = np.random.default_rng(seed)
    n = exact_count(n, "n", 2)
    perms = [rng.permutation(n) for _ in range(exact_count(q, "q", 1))]
    return waksman_workload(perms, length, B)


# ----------------------------------------------------------------------
# Section 1.3.4: two-phase hypercube routing
# ----------------------------------------------------------------------


@register_scenario(
    "hypercube-valiant",
    family="contention",
    theorem="Section 1.3.4 (Aiello et al. [1])",
    models=("wormhole",),
)
def _build_hypercube_valiant(
    n: int = 16, seed: int = 0, mid_seed: int = 0, phase: int = 1
) -> Workload:
    """Phase ``phase`` (1 or 2) of routing a random permutation of an
    ``n``-node hypercube (drawn from ``seed``) by bit-fixing through
    random intermediates (drawn from ``mid_seed``), at ``L = 8``
    (:func:`~repro.core.online_routing.valiant_phase_workloads`)."""
    from ..core.online_routing import valiant_phase_workloads
    from ..network.hypercube import Hypercube
    from ..routing.problems import random_permutation

    if phase not in (1, 2):
        raise NetworkError(f"phase must be 1 or 2, got {phase!r}")
    cube = Hypercube(exact_count(n, "n", 2))
    inst = random_permutation(cube.n, np.random.default_rng(seed))
    phases = valiant_phase_workloads(cube, inst, 8, np.random.default_rng(mid_seed))
    return phases[phase - 1]


# ----------------------------------------------------------------------
# deadlock family (Dally-Seitz, repro.sim.deadlock)
# ----------------------------------------------------------------------


def _ring(B, n, hops, *, dateline: bool) -> Workload:
    """Ring network, one message per node, each covering ``hops`` edges,
    at ``L = hops + B + 1`` (``L > B``, so worms can wrap the cycle shut).

    With ``dateline`` and ``B >= 2`` the classic dateline assignment
    (switch to VC 1 after crossing edge ``n-1``) is applied and the
    channel dependency graph is re-checked under it.
    """
    from ..routing.paths import Path
    from ..sim.deadlock import is_deadlock_free

    B, n, hops = int(B), int(n), int(hops)
    net = Network(name=f"ring(n={n})")
    nodes = net.add_nodes(range(n))
    edges = [net.add_edge(nodes[i], nodes[(i + 1) % n]) for i in range(n)]
    raw = [[edges[(s + j) % n] for j in range(hops)] for s in range(n)]
    paths = [Path.from_edges(net, p) for p in raw]

    vc_ids = vc_of = None
    if dateline and B >= 2:
        vc_ids = []
        for p in raw:
            vcs, crossed = [], False
            for e in p:
                vcs.append(1 if crossed else 0)
                if e == n - 1:
                    crossed = True
            vc_ids.append(vcs)
        index_of = {tuple(p): i for i, p in enumerate(raw)}

        def vc_of(path, hop):
            return vc_ids[index_of[tuple(path.edges)]][hop]

    facts = {"acyclic": is_deadlock_free(paths, vc_of)}
    if not dateline:
        verdict = B < hops
        facts["why"] = f"B={B} {'<' if verdict else '>='} hops={hops}"
        facts["expect_deadlock"] = verdict
    elif vc_ids is not None:  # at B = 1 it is the plain ring: nothing declared
        facts["why"] = f"dateline VC classes break the cycle at B={B}"
        facts["expect_deadlock"] = False
    return Workload(
        net=net,
        paths=paths,
        default_length=hops + B + 1,
        info={"n": n, "hops": hops, "messages": len(paths)},
        vc_ids=vc_ids,
        arbitration="index",
        facts=facts,
    )


@register_scenario(
    "ring-deadlock",
    family="deadlock",
    theorem="Section 1.2 / Dally-Seitz",
    models=("wormhole",),
)
def _build_ring_deadlock(B: int = 1, n: int = 6, hops: int = 6) -> Workload:
    """A ring whose channel dependency graph is a single cycle: with one
    worm per node each spanning ``hops`` edges and ``L > B``, the run
    deadlocks exactly when ``B < hops`` — the failure mode virtual
    channels exist to prevent."""
    return _ring(B, n, hops, dateline=False)


@register_scenario(
    "ring-dateline",
    family="deadlock",
    theorem="Dally-Seitz dateline construction",
    models=("wormhole",),
)
def _build_ring_dateline(B: int = 2, n: int = 6, hops: int = 6) -> Workload:
    """The same cyclic ring traffic with the dateline escape: messages
    switch to VC class 1 after crossing the wrap edge, the CDG becomes
    acyclic, and the run must deliver (needs ``B >= 2``; at ``B = 1``
    the scenario degrades to the deadlocking configuration)."""
    return _ring(B, n, hops, dateline=True)


@register_scenario(
    "hotspot-mesh",
    family="deadlock",
    theorem="Section 1.2 (adaptive routing)",
    models=("adaptive",),
)
def _build_hotspot_mesh(
    k: int = 6,
    messages_per_node: int = 1,
    fraction: float = 0.3,
    hotspot: int = 0,
    policy: str = "west-first",
    seed: int = 7,
) -> Workload:
    """Hot-spot traffic on a ``k x k`` mesh under the adaptive router:
    a ``fraction`` of all messages converge on one node.  West-first
    turn routing must stay deadlock-free; ``policy="fully-adaptive"``
    gives the deadlock-prone variant."""
    from ..network.mesh import KAryNCube
    from ..routing.traffic import hotspot_traffic

    policy, choices = str(policy), LOCKSTEP_MODELS["adaptive"].choices
    if policy not in choices:
        raise NetworkError(f"policy must be one of {choices}, got {policy!r}")
    cube = KAryNCube(int(k), 2, wrap=False)
    rng = np.random.default_rng(int(seed))
    demands = [
        (s, d)
        for s, d in hotspot_traffic(
            cube, int(messages_per_node), int(hotspot), float(fraction), rng
        )
        if s != d
    ]
    return Workload(
        net=cube.network,
        demands=demands,
        cube=cube,
        default_length=2 * int(k),
        info={"k": int(k), "messages": len(demands)},
        arbitration=policy,
    )


# ----------------------------------------------------------------------
# arrival family (open-loop traces / service load profiles)
# ----------------------------------------------------------------------


def _arrivals(
    width, depth, out_degree, net_seed, rate: np.ndarray, message_length
) -> Workload:
    """An open-loop trace as a wormhole trial: one injection queue per
    level-0 node of a random leveled network, arrivals following the
    per-step ``rate`` trace, every message on a fresh random walk to the
    last level.  Network, arrivals and routes all come from ``net_seed``,
    drawn by :func:`~repro.sim.continuous.draw_arrivals`."""
    from ..network.random_networks import layered_network

    width, depth = int(width), int(depth)
    rng = np.random.default_rng(int(net_seed))
    net = layered_network(width, depth, int(out_degree), rng)
    release, sources, paths = draw_arrivals(
        rate, width, random_walk_route(net, depth), rng, rng
    )
    return Workload(
        net=net,
        paths=paths,
        default_length=int(message_length),
        info={"width": width, "depth": depth, "messages": len(paths)},
        release_times=release,
        sources=sources,
        # Leveled: every edge goes one level down.
        facts={"acyclic": True, "width": width, "depth": depth},
    )


@register_scenario(
    "bursty-arrivals",
    family="arrival",
    theorem="Scheideler-Vocking [43] (continuous regime)",
)
def _build_bursty_arrivals(
    width: int = 6,
    depth: int = 5,
    out_degree: int = 2,
    burst_rate: float = 0.6,
    idle_rate: float = 0.02,
    burst_len: int = 40,
    period: int = 120,
    horizon: int = 600,
    message_length: int = 6,
    net_seed: int = 3,
) -> Workload:
    """A square-wave arrival trace: ``burst_len`` steps at ``burst_rate``
    then quiet at ``idle_rate``, repeating every ``period`` steps — the
    open-loop analogue of batch bursts, for backlog-drain behaviour."""
    t = np.arange(int(horizon))
    rate = np.where(
        (t % int(period)) < int(burst_len), float(burst_rate), float(idle_rate)
    )
    return _arrivals(width, depth, out_degree, net_seed, rate, message_length)


@register_scenario(
    "heavy-tail-arrivals",
    family="arrival",
    theorem="Scheideler-Vocking [43] (continuous regime)",
)
def _build_heavy_tail_arrivals(
    width: int = 6,
    depth: int = 5,
    out_degree: int = 2,
    base_rate: float = 0.05,
    alpha: float = 1.5,
    cap: float = 0.9,
    horizon: int = 600,
    message_length: int = 6,
    net_seed: int = 3,
    trace_seed: int = 11,
) -> Workload:
    """A Pareto-modulated arrival trace (``alpha < 2``: infinite-variance
    bursts), seeded and deterministic — heavy-tailed load the uniform
    Bernoulli model never produces."""
    rng = np.random.default_rng(int(trace_seed))
    rate = np.clip(
        float(base_rate) * (1.0 + rng.pareto(float(alpha), int(horizon))),
        0.0,
        float(cap),
    )
    return _arrivals(width, depth, out_degree, net_seed, rate, message_length)
