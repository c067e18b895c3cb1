"""E13 — leveled networks: the O(LCD) bound of Ranade et al. [41].

Greedy wormhole routing on leveled networks finishes in ``O(L C D)``
flit steps at ``B = 1`` (Section 1.3.1) — and that bound is tight for
some instances (their lower-bound construction, generalized by the
paper's Theorem 2.2.1).  We sweep congestion on random leveled
workloads, verify the measured time stays under ``L C D`` while growing
with C, and show the random-delay smoothing trick cutting blocking.
"""

import numpy as np

from repro import Table, simulate
from repro.core.leveled import leveled_bound, random_delay_release
from repro.network.random_networks import layered_network, random_walk_paths
from repro.routing.paths import congestion, dilation, paths_from_node_walks
from repro.sim.spec import Workload

WIDTH, DEPTH, L = 10, 10, 12


def build(messages, seed):
    rng = np.random.default_rng(seed)
    net = layered_network(WIDTH, DEPTH, 3, rng)
    walks = random_walk_paths(net, WIDTH, DEPTH, messages, rng)
    # Leveledness is what the O(LCD) bound and deadlock freedom rest on.
    assert net.is_leveled()
    return net, paths_from_node_walks(net, walks)


def test_e13_lcd_bound(benchmark, save_table):
    def sweep():
        rows = []
        for messages in (40, 120, 360):
            net, paths = build(messages, seed=2)
            C, D = congestion(paths), dilation(paths)
            res = simulate((net, paths), message_length=L)
            assert res.all_delivered
            rows.append(
                {
                    "messages": messages,
                    "C": C,
                    "D": D,
                    "measured": int(res.makespan),
                    "LCD bound": leveled_bound(L, C, D),
                    "ratio": res.makespan / leveled_bound(L, C, D),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        f"E13: greedy wormhole on leveled networks (L={L}, B=1)",
        list(rows[0].keys()),
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e13_leveled", table)

    for r in rows:
        assert r["measured"] <= r["LCD bound"]
    measured = [r["measured"] for r in rows]
    assert measured == sorted(measured)  # grows with congestion


def test_e13_random_delay_smoothing(benchmark, save_table):
    net, paths = build(240, seed=3)
    C = congestion(paths)

    def measure():
        plain = simulate((net, paths), message_length=L)
        rel = random_delay_release(len(paths), L, C, np.random.default_rng(1))
        smoothed = simulate(Workload(net, paths, release_times=rel), message_length=L)
        return plain, smoothed

    plain, smoothed = benchmark.pedantic(measure, iterations=1, rounds=1)
    table = Table(
        "E13b: random-delay smoothing ([26, 27] trick) at B = 1",
        ["variant", "makespan", "total blocked steps"],
    )
    table.add_row(["greedy", plain.makespan, plain.total_blocked_steps])
    table.add_row(
        ["greedy + random delays", smoothed.makespan, smoothed.total_blocked_steps]
    )
    save_table("e13b_smoothing", table)

    assert smoothed.total_blocked_steps < plain.total_blocked_steps
