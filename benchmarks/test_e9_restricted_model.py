"""E9 — Section 1.4 Remarks: the restricted model (buffering only).

Each edge buffers ``B`` flits (one per message) but forwards only one
flit per step.  The Remarks claim (a) the main algorithms emulate this
model with slowdown ``<= B``, and (b) increasing *buffering alone*
(bandwidth fixed) still buys about a ``D^(1-1/B)`` reduction — possibly
superlinear in ``B``.  We measure both on the Theorem 2.2.1 hard
instance and on chain workloads.
"""

import numpy as np

from repro import Table, build_hard_instance
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.sim.batch import run_restricted_batch, run_wormhole_batch


def test_e9_buffering_alone_helps(benchmark, save_table):
    """Sweep B on the hard instance in both models."""
    inst = build_hard_instance(C=9, D=15, B=2)
    L = inst.recommended_length()

    def measure():
        # One lockstep call per model covers the B block; each trial
        # keeps its seed-0 stream.
        Bs = [1, 2, 3]
        fulls = run_wormhole_batch(
            inst.network, inst.paths, L, seeds=[0] * 3, num_virtual_channels=Bs
        )
        restricteds = run_restricted_batch(
            inst.network, inst.paths, L, seeds=[0] * 3, num_buffers=Bs
        )
        rows = []
        for B, full, restricted in zip(Bs, fulls, restricteds):
            assert full.all_delivered and restricted.all_delivered
            rows.append(
                {
                    "B": B,
                    "full model": int(full.makespan),
                    "restricted model": int(restricted.makespan),
                    "slowdown": restricted.makespan / full.makespan,
                }
            )
        return rows

    rows = benchmark.pedantic(measure, iterations=1, rounds=1)
    table = Table(
        f"E9: full vs restricted model on the hard instance "
        f"(C={inst.congestion}, D={inst.dilation}, L={L})",
        ["B", "full model", "restricted model", "slowdown"],
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e9_restricted", table)

    restricted = {r["B"]: r["restricted model"] for r in rows}
    full = {r["B"]: r["full model"] for r in rows}
    # (a) The Remarks' emulation claim: slowdown of the restricted model
    # over the full model is at most ~B.
    for r in rows:
        assert r["full model"] <= r["restricted model"] * 1.05
        assert r["slowdown"] <= r["B"] + 0.3
    # Buffers never hurt; on this instance the restricted time is pinned
    # near the bandwidth floor C*L per primary edge (each edge must push
    # C*L flits at 1 flit/step), so the gain is small — see E9c for the
    # head-of-line regime where buffering alone pays off.
    vals = [restricted[b] for b in (1, 2, 3)]
    assert vals == sorted(vals, reverse=True)
    floor = inst.congestion * L
    assert restricted[3] >= floor
    # At B = 1 the models coincide up to arbitration noise.
    assert abs(restricted[1] - full[1]) / full[1] < 0.25


def test_e9_bandwidth_vs_buffering_decomposition(benchmark, save_table):
    """Chain workload: going from (1 buf, 1 flit/step) to (B buf,
    B flits/step) decomposes into a buffering gain (restricted model)
    times a bandwidth gain (~B)."""
    net, walks = chain_bundle(2, 8, 8)
    paths = paths_from_node_walks(net, walks)
    L = 12

    def measure():
        Bs = [1, 2, 4]
        fulls = run_wormhole_batch(
            net, paths, L, seeds=[0] * 3, num_virtual_channels=Bs
        )
        restricteds = run_restricted_batch(net, paths, L, seeds=[0] * 3, num_buffers=Bs)
        out = {}
        for B, full, restricted in zip(Bs, fulls, restricteds):
            out[("full", B)] = full.makespan
            out[("restricted", B)] = restricted.makespan
        return out

    data = benchmark.pedantic(measure, iterations=1, rounds=1)
    table = Table(
        "E9b: chain workload (C=8, D=8, L=12), buffering vs bandwidth",
        ["B", "restricted (buffers only)", "full (buffers + bandwidth)",
         "buffering gain", "total gain"],
    )
    base = data[("restricted", 1)]
    for B in (1, 2, 4):
        table.add_row(
            [
                B,
                data[("restricted", B)],
                data[("full", B)],
                base / data[("restricted", B)],
                base / data[("full", B)],
            ]
        )
    save_table("e9b_decomposition", table)

    for B in (2, 4):
        assert data[("full", B)] <= data[("restricted", B)]
        assert data[("restricted", B)] <= data[("restricted", 1)]


def test_e9c_buffers_relieve_head_of_line_blocking(benchmark, save_table):
    """Where buffering *alone* pays: a parked worm consumes no bandwidth,
    so a second buffer slot lets crossing traffic stream past it.

    Trunk worm blocks mid-route behind a long blocker; per-edge crossing
    worms want the trunk edges it occupies.  At one buffer they wait out
    the blockage; at two they share the (idle) link immediately.
    """
    from repro.network.graph import Network

    net = Network()
    T, L = 10, 8
    nodes = net.add_nodes(range(T + 1))
    trunk = [net.add_edge(nodes[i], nodes[i + 1]) for i in range(T)]
    blk_src = net.add_node("blk")
    e_blk = net.add_edge(blk_src, nodes[T - 1])
    paths = [[e_blk, trunk[T - 1]], trunk] + [[e] for e in trunk[: T - 2]]
    lengths = np.full(len(paths), L, dtype=np.int64)
    lengths[0] = 4 * L  # the blocker parks the trunk worm for a long time
    release = np.zeros(len(paths), dtype=np.int64)
    release[2:] = T + L  # crossers arrive once the trunk worm is parked

    def measure():
        out = {}
        runs = run_restricted_batch(
            net, paths, lengths, seeds=[0] * 3, num_buffers=[1, 2, 3],
            release_times=release,
        )
        for B, res in zip((1, 2, 3), runs):
            assert res.all_delivered
            cross = res.completion_times[2:]
            out[B] = (float(np.mean(cross)), int((res.blocked_steps[2:] > 0).sum()))
        return out

    data = benchmark.pedantic(measure, iterations=1, rounds=1)
    table = Table(
        f"E9c: crossing worms vs parked trunk worm (restricted model, "
        f"T={T}, L={L})",
        ["buffers B", "crosser mean completion", "crossers ever blocked"],
    )
    for B, (mean_t, blocked) in data.items():
        table.add_row([B, mean_t, blocked])
    save_table("e9c_head_of_line", table)

    # More buffers -> crossers stop being blocked by the parked worm.
    assert data[2][1] <= data[1][1]
    assert data[2][0] <= data[1][0]
