"""Seeded golden cases for the engine-refactor equivalence suite.

Each case routes a fixed seeded workload through one of the five
routers (wormhole, cut-through, store-and-forward, restricted, adaptive)
and reduces the outcome — completion times, makespan, blocked counts,
deadlock flags, and (where probes are attached) a digest of the full
telemetry event stream — to a JSON-serializable dict.

``golden.json`` was generated by running this module against the
pre-engine simulators (commit ``4e3e585``), so
``test_golden_equivalence.py`` asserts that the engine-based rewrites
are *bit-exact* with the originals: same arbitration outcomes, same RNG
consumption, same probe event streams, same deadlock declarations.

Regenerate (only when intentionally changing simulator semantics) with::

    PYTHONPATH=src:tests python -m sim.golden_cases --write
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro import simulate
from repro.sim.batch import run_store_forward_batch
from repro.sim.spec import Workload

GOLDEN_PATH = Path(__file__).parent / "golden.json"


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=np.int64))
        h.update(a.shape.__repr__().encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _summarize(result, *, trace=None) -> dict:
    out = {
        "completion": np.asarray(result.completion_times).tolist(),
        "makespan": int(result.makespan),
        "steps": int(result.steps_executed),
        "blocked": np.asarray(result.blocked_steps).tolist(),
        "deadlocked": bool(result.deadlocked),
        "hit_step_cap": bool(result.hit_step_cap),
    }
    if trace is not None:
        tr = trace.to_trace()
        parts = []
        for ev in ("grant", "block", "release", "complete", "deadlock"):
            parts.extend(tr.events[ev])
        out["trace_digest"] = _digest(*parts)
        out["trace_steps"] = tr.steps
    return out


def _chain_workload():
    from repro.network.random_networks import chain_bundle
    from repro.routing.paths import paths_from_node_walks

    net, walks = chain_bundle(num_chains=4, depth=12, messages_per_chain=8)
    return net, paths_from_node_walks(net, walks)


def _layered_workload():
    from repro.network.random_networks import layered_network, random_walk_paths
    from repro.routing.paths import paths_from_node_walks

    rng = np.random.default_rng(12345)
    net = layered_network(width=8, depth=6, out_degree=2, rng=rng)
    walks = random_walk_paths(net, 8, 6, 60, rng)
    return net, paths_from_node_walks(net, walks)


def _ring(k):
    from repro.network.graph import Network

    net = Network()
    nodes = net.add_nodes(range(k))
    edges = [net.add_edge(nodes[i], nodes[(i + 1) % k]) for i in range(k)]
    paths = [[edges[(s + j) % k] for j in range(k)] for s in range(k)]
    return net, edges, paths


def _line(num_edges):
    """A directed line of ``num_edges`` edges: ``(net, edges)``."""
    from repro.network.graph import Network

    net = Network()
    nodes = net.add_nodes(range(num_edges + 1))
    return net, [net.add_edge(a, b) for a, b in zip(nodes[:-1], nodes[1:])]


def fifo_release(sources, release):
    """``release`` raised to be non-decreasing along each injection
    queue in message-index order, as a FIFO queue requires."""
    out = np.asarray(release, dtype=np.int64).copy()
    latest: dict = {}
    for m, queue in enumerate(sources):
        out[m] = latest[queue] = max(int(out[m]), latest.get(queue, 0))
    return out


def _stagger(m, period=7):
    """Deterministic staggered releases with an idle gap mid-run."""
    release = (np.arange(m, dtype=np.int64) % 3) * period
    release[m // 2 :] += 40  # a gap the step loop must skip over
    return release


# ----------------------------------------------------------------------
# Case functions: name -> dict.
# ----------------------------------------------------------------------


def wormhole_priorities():

    net, paths = _layered_workload()
    out = {}
    for priority in ("random", "age", "index", "rank"):
        for B in (1, 2, 4):
            res = simulate(
                (net, paths), B=B, message_length=8, priority=priority, seed=9
            )
            out[f"{priority}/B{B}"] = _summarize(res)
    return out


def wormhole_staggered():

    net, paths = _layered_workload()
    release = _stagger(len(paths))
    out = {}
    for B in (1, 2):
        res = simulate(
            Workload(net=net, paths=paths, release_times=release),
            B=B, message_length=6, priority="random", seed=4,
        )
        out[f"B{B}"] = _summarize(res)
    return out


def wormhole_probes():
    from repro.telemetry import TraceRecorder, standard_collectors

    net, paths = _chain_workload()
    recorder = TraceRecorder()
    probes = standard_collectors() + [recorder]
    res = simulate(
        (net, paths), B=2, message_length=24, priority="random", seed=1,
        telemetry=probes,
    )
    out = _summarize(res, trace=recorder)
    util = probes[0]
    out["flits_crossed_digest"] = _digest(util.flits_crossed)
    return out


def wormhole_legacy_kwargs():
    """The arrays the retired ``record_trace`` / ``record_contention``
    kwargs used to put in ``result.extra``, now read off collectors (the
    golden entry predates the removal and is unchanged): the per-edge
    denial counts are the stall collector's, laid out densely."""
    from repro.telemetry import StallAttributionCollector, TraceSnapshotCollector

    net, paths = _chain_workload()
    snapshots, stall = TraceSnapshotCollector(), StallAttributionCollector()
    res = simulate(
        (net, paths), B=2, message_length=12, priority="random", seed=1,
        telemetry=[snapshots, stall],
    )
    denied = np.zeros(net.num_edges, dtype=np.int64)
    for edge, count in stall.blocked_at_edge.items():
        denied[edge] = count
    extra = {"trace": snapshots.matrix, "edge_contention": denied}
    out = _summarize(res)
    out["extra_keys"] = sorted(extra)
    out["trace_matrix_digest"] = _digest(extra["trace"])
    out["contention_digest"] = _digest(extra["edge_contention"])
    return out


def wormhole_vc_classes():

    k = 6
    net, edges, paths = _ring(k)
    dateline = []
    for path in paths:
        vcs, crossed = [], False
        for e in path:
            vcs.append(1 if crossed else 0)
            if e == k - 1:
                crossed = True
        dateline.append(vcs)
    out = {}
    res = simulate(
        Workload(net=net, paths=paths, vc_ids=dateline),
        B=2, message_length=4, priority="index",
    )
    out["dateline"] = _summarize(res)
    res = simulate((net, paths), B=2, message_length=4, priority="index")
    out["interchangeable"] = _summarize(res)
    return out


def wormhole_deadlock():
    from repro.telemetry import TraceRecorder

    net, edges, paths = _ring(4)
    recorder = TraceRecorder()
    res = simulate(
        (net, paths), message_length=3, priority="index", telemetry=recorder
    )
    return _summarize(res, trace=recorder)


def cut_through_suite():

    net, paths = _chain_workload()
    out = {}
    for priority in ("random", "index"):
        for buf in (1, 2, 4):
            res = simulate(
                (net, paths), model="cut_through", B=buf, message_length=24,
                priority=priority, seed=5,
            )
            out[f"{priority}/buf{buf}"] = _summarize(res)
    release = _stagger(len(paths))
    res = simulate(
        Workload(net=net, paths=paths, release_times=release),
        model="cut_through", B=2, message_length=10, priority="random", seed=5,
    )
    out["staggered"] = _summarize(res)
    return out


def cut_through_probes():
    from repro.telemetry import TraceRecorder

    net, paths = _chain_workload()
    recorder = TraceRecorder()
    res = simulate(
        (net, paths), model="cut_through", B=2, message_length=16,
        priority="random", seed=5, telemetry=recorder,
    )
    return _summarize(res, trace=recorder)


def store_forward_suite():

    net, paths = _chain_workload()
    out = {}
    for priority in ("random", "age", "farthest"):
        for B in (1, 2):
            res = simulate(
                (net, paths), model="store_forward", B=B, message_length=24,
                priority=priority, seed=6,
            )
            summary = _summarize(res)
            summary["max_queue"] = int(res.extra["max_queue"])
            out[f"{priority}/B{B}"] = summary
    # Random injection delays are a store-and-forward driver option.
    res = run_store_forward_batch(
        net, paths, 24, seeds=[6], bandwidth_flits_per_step=2,
        priority="random", delay_range=3,
    )[0]
    out["delayed"] = _summarize(res)
    release = _stagger(len(paths))
    res = simulate(
        Workload(net=net, paths=paths, release_times=release),
        model="store_forward", message_length=8, priority="farthest", seed=6,
    )
    out["staggered"] = _summarize(res)
    return out


def store_forward_probes():
    from repro.telemetry import TraceRecorder

    net, paths = _chain_workload()
    recorder = TraceRecorder()
    res = simulate(
        (net, paths), model="store_forward", B=2, message_length=16,
        priority="random", seed=6, telemetry=recorder,
    )
    return _summarize(res, trace=recorder)


def restricted_suite():
    from repro.network.random_networks import chain_bundle
    from repro.routing.paths import paths_from_node_walks

    net, walks = chain_bundle(num_chains=2, depth=6, messages_per_chain=4)
    paths = paths_from_node_walks(net, walks)
    out = {}
    for B in (1, 2, 4):
        res = simulate(
            (net, paths), model="restricted", B=B, message_length=6, seed=8
        )
        out[f"B{B}"] = _summarize(res)
    release = _stagger(len(paths))
    res = simulate(
        Workload(net=net, paths=paths, release_times=release),
        model="restricted", B=2, message_length=5, seed=8,
    )
    out["staggered"] = _summarize(res)
    return out


def adaptive_suite():
    from repro.network.mesh import KAryNCube
    from repro.sim.batch import run_adaptive_batch

    cube = KAryNCube(6, 2, wrap=False)
    n = cube.num_nodes
    rng = np.random.default_rng(77)
    perm = rng.permutation(n)
    demands = [(int(s), int(perm[s])) for s in range(n)]
    out = {}
    for policy in ("dimension", "west-first", "fully-adaptive"):
        for B in (1, 2):
            # The driver, not simulate: the digest needs the taken paths.
            (run,) = run_adaptive_batch(
                cube, demands, 5, seeds=[11], num_virtual_channels=B,
                policy=policy,
            )
            summary = _summarize(run.result)
            summary["taken_digest"] = _digest(
                np.concatenate(
                    [np.asarray(p + [-1], dtype=np.int64) for p in run.taken_paths]
                )
            )
            out[f"{policy}/B{B}"] = summary
    release = _stagger(len(demands))
    res = simulate(
        Workload(net=cube.network, cube=cube, demands=demands, release_times=release),
        model="adaptive", B=2, message_length=4, policy="west-first", seed=11,
    )
    out["staggered"] = _summarize(res)
    return out


def adaptive_probes():
    from repro.network.mesh import KAryNCube
    from repro.sim.batch import run_adaptive_batch
    from repro.telemetry import TraceRecorder

    cube = KAryNCube(5, 2, wrap=False)
    n = cube.num_nodes
    rng = np.random.default_rng(3)
    perm = rng.permutation(n)
    demands = [(int(s), int(perm[s])) for s in range(n)]
    recorder = TraceRecorder()
    res = simulate(
        (cube, demands), model="adaptive", B=2, message_length=4,
        policy="west-first", seed=2, telemetry=recorder,
    )
    return _summarize(res, trace=recorder)


CASES = {
    "wormhole_priorities": wormhole_priorities,
    "wormhole_staggered": wormhole_staggered,
    "wormhole_probes": wormhole_probes,
    "wormhole_legacy_kwargs": wormhole_legacy_kwargs,
    "wormhole_vc_classes": wormhole_vc_classes,
    "wormhole_deadlock": wormhole_deadlock,
    "cut_through_suite": cut_through_suite,
    "cut_through_probes": cut_through_probes,
    "store_forward_suite": store_forward_suite,
    "store_forward_probes": store_forward_probes,
    "restricted_suite": restricted_suite,
    "adaptive_suite": adaptive_suite,
    "adaptive_probes": adaptive_probes,
}


def compute_all() -> dict:
    return {name: fn() for name, fn in CASES.items()}


if __name__ == "__main__":
    import sys

    data = compute_all()
    if "--write" in sys.argv:
        GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(json.dumps(data, indent=1, sort_keys=True))
