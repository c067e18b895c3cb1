#!/usr/bin/env python
"""Scenario: a Cray-T3D-style torus interconnect with dateline VCs.

The paper's introduction motivates wormhole routing with the machines of
the era — iWarp (4 virtual channels per link), the J-Machine (2), the
Cray T3D torus.  This example builds an 8x8 torus, routes random traffic
with dimension-order (e-cube) routing, and demonstrates the *original*
reason virtual channels exist (Dally-Seitz):

1. the torus rings make the channel dependency graph cyclic, and a
   greedy single-channel wormhole run can actually deadlock;
2. the dateline virtual-channel assignment provably breaks the cycles
   (we check the CDG is acyclic);
3. with 2+ virtual channels the same traffic routes deadlock-free, and
   extra channels keep cutting latency.

Run:  python examples/multiprocessor_interconnect.py
"""

import numpy as np

from repro import (
    KAryNCube,
    Table,
    dateline_vc_assignment,
    dimension_order_path,
    is_deadlock_free,
    simulate,
)
from repro.routing.paths import congestion, dilation, paths_from_node_walks
from repro.sim.stats import summarize_latencies

K, DIMS = 8, 2
MESSAGES = 200
L = 12


def main() -> None:
    rng = np.random.default_rng(7)
    cube = KAryNCube(k=K, n=DIMS, wrap=True)
    net = cube.network

    demands = [
        (int(rng.integers(cube.num_nodes)), int(rng.integers(cube.num_nodes)))
        for _ in range(MESSAGES)
    ]
    walks = [dimension_order_path(cube, s, d) for s, d in demands]
    paths = paths_from_node_walks(net, walks)
    print(
        f"{MESSAGES} messages on an {K}x{K} torus: congestion C = "
        f"{congestion(paths)}, dilation D = {dilation(paths)}, L = {L}"
    )

    # 1-2. Deadlock analysis a la Dally-Seitz.
    print()
    print("Channel dependency graph (Dally-Seitz):")
    print(f"  single channel : deadlock-free = {is_deadlock_free(paths)}")
    vc_of = dateline_vc_assignment(cube)
    print(f"  dateline VCs   : deadlock-free = {is_deadlock_free(paths, vc_of)}")

    # 3. Simulate with increasing numbers of virtual channels.
    table = Table(
        "Greedy wormhole routing on the torus",
        ["B", "deadlocked", "delivered", "makespan", "mean latency", "p95 latency"],
    )
    for B in (1, 2, 4):
        res = simulate((net, paths), B=B, message_length=L, seed=1)
        stats = summarize_latencies(res.latencies())
        table.add_row(
            [
                B,
                res.deadlocked,
                f"{res.num_delivered}/{MESSAGES}",
                res.makespan,
                stats["mean"],
                stats["p95"],
            ]
        )
    print()
    print(table.render())
    print()
    print(
        "The iWarp shipped with 4 virtual channels per link and the "
        "J-Machine with 2 — the rows above show why the designers paid "
        "for them."
    )


if __name__ == "__main__":
    main()
