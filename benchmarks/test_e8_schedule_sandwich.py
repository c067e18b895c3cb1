"""E8 — the paper's "sandwich": lower bound <= LLL schedule <= naive.

On a shared workload, stack the Theorem 2.2.1 form ``L C D^(1/B) / B``,
the measured/naive footnote-5 schedule ``O((L+D) C D)``, and the
Theorem 2.1.6 schedule — showing the construction sits between the
theoretical floor and the naive ceiling, and that only the ``B``-aware
construction reaps the virtual-channel gain.
"""

import numpy as np

from repro import (
    Table,
    bounds,
    lll_schedule,
    naive_coloring_schedule,
)
from repro.network.random_networks import layered_network, random_walk_paths
from repro.routing.paths import congestion, dilation, paths_from_node_walks


def test_e8_sandwich(benchmark, save_table, run_schedule):
    rng = np.random.default_rng(11)
    net = layered_network(width=12, depth=14, out_degree=3, rng=rng)
    walks = random_walk_paths(net, 12, 14, 200, rng)
    paths = paths_from_node_walks(net, walks)
    C, D = congestion(paths), dilation(paths)
    L = D

    def measure():
        rows = []
        naive = naive_coloring_schedule(paths, L)
        naive_span = run_schedule(net, paths, naive, 1).makespan
        for B in (1, 2, 4):
            build = lll_schedule(
                paths, L, B=B, rng=np.random.default_rng(B), mode="direct"
            )
            span = run_schedule(net, paths, build, B).makespan
            rows.append(
                {
                    "B": B,
                    "omega form LCD^(1/B)/B": bounds.general_lower_bound(L, C, D, B),
                    "LLL schedule (measured)": int(span),
                    "naive schedule (measured, B=1)": int(naive_span),
                    "naive bound (L+D)CD": bounds.naive_coloring_bound(L, C, D),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, iterations=1, rounds=1)
    table = Table(
        f"E8: schedule sandwich (C={C}, D={D}, L={L}, 200 messages)",
        list(rows[0].keys()),
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e8_sandwich", table)

    for r in rows:
        # The LLL schedule always beats the naive *bound*; with B >= 2 it
        # beats the naive schedule's measured makespan too.
        assert r["LLL schedule (measured)"] < r["naive bound (L+D)CD"]
        if r["B"] >= 2:
            assert r["LLL schedule (measured)"] < r["naive schedule (measured, B=1)"]
    spans = [r["LLL schedule (measured)"] for r in rows]
    assert spans == sorted(spans, reverse=True)
