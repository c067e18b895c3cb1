"""E16 — offline (Thm 2.1.6) vs online ([13]-style) vs global (Waksman).

The paper positions its offline network-independent algorithm against
the online algorithm of Cypher et al. [13] and, on permutations, against
Waksman's globally-coordinated Benes routing [48].  We run all three
coordination levels on matched workloads:

* offline LLL schedule (global knowledge, block-free guarantee);
* online random delays (local, randomized; [13]-shaped window) — our
  documented stand-in for the [13] protocol;
* greedy (no coordination at all);
* Waksman on a Benes network (global switch setting; permutations only).
"""

import numpy as np

from repro import Table, lll_schedule
from repro.core.benes_routing import route_permutation_benes
from repro.core.online_routing import route_online_random_delays
from repro.network.random_networks import layered_network, random_walk_paths
from repro.routing.paths import congestion, dilation, paths_from_node_walks
from repro.sim.batch import run_wormhole_batch


def test_e16_coordination_ladder(benchmark, save_table, run_schedule):
    rng = np.random.default_rng(21)
    net = layered_network(12, 12, 3, rng)
    walks = random_walk_paths(net, 12, 12, 180, rng)
    paths = paths_from_node_walks(net, walks)
    C, D = congestion(paths), dilation(paths)
    L = 12

    def measure():
        rows = []
        Bs = (1, 2)
        # Greedy is one lockstep call over both B, each trial at seed 0.
        greedies = run_wormhole_batch(
            net, paths, L, seeds=[0] * len(Bs), num_virtual_channels=Bs
        )
        for B, greedy in zip(Bs, greedies):
            online = route_online_random_delays(
                net, paths, L, B=B, rng=np.random.default_rng(1), seed=0
            )
            build = lll_schedule(
                paths, L, B=B, rng=np.random.default_rng(2), mode="direct"
            )
            offline = run_schedule(net, paths, build, B)
            rows.append(
                {
                    "B": B,
                    "greedy makespan": int(greedy.makespan),
                    "greedy blocked": int(greedy.total_blocked_steps),
                    "online makespan": int(online.makespan),
                    "online blocked": int(online.total_blocked_steps),
                    "offline makespan": int(offline.makespan),
                    "offline blocked": int(offline.total_blocked_steps),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, iterations=1, rounds=1)
    table = Table(
        f"E16: coordination ladder (C={C}, D={D}, L={L}, 180 messages)",
        list(rows[0].keys()),
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e16_coordination", table)

    for r in rows:
        # Blocking falls monotonically with coordination.
        assert r["offline blocked"] == 0
        assert r["online blocked"] < r["greedy blocked"]


def test_e16_waksman_is_optimal_for_permutations(benchmark, save_table):
    """On a Benes network Waksman's globally-set switches reach the
    absolute floor L + D - 1 that no online algorithm can beat."""
    n, L = 32, 10
    rng = np.random.default_rng(4)
    perm = rng.permutation(n)

    def measure():
        res = route_permutation_benes(perm, message_length=L)
        return int(res.makespan)

    span = benchmark.pedantic(measure, iterations=1, rounds=1)
    log_n = n.bit_length() - 1
    table = Table(
        f"E16b: Waksman permutation routing on Benes(n={n}), L={L}",
        ["quantity", "value"],
    )
    table.add_row(["makespan", span])
    table.add_row(["floor L + D - 1", L + 2 * log_n - 1])
    save_table("e16b_waksman", table)
    assert span == L + 2 * log_n - 1
