"""E18 — the Dally-Seitz construction [14] at flit level (Section 1).

The paper opens with *why* virtual channels exist: Dally and Seitz used
them to make wormhole routing deadlock-free by restricting which virtual
channel a worm may occupy so the channel dependency graph is acyclic.
We reproduce the full story on a torus:

* at B = 1, dimension-order routing on a torus deadlocks (ring cycles);
* at B = 2 with *interchangeable* slots — the paper's Section 1.1 model —
  adversarial ring traffic can still deadlock (all slots fill);
* at B = 2 with *dateline classes* — Dally-Seitz proper — the CDG is
  acyclic and every run delivers.
"""

import numpy as np

from repro import Table, dateline_vc_assignment, dimension_order_path
from repro.network.mesh import KAryNCube
from repro.routing.paths import paths_from_node_walks
from repro.routing.traffic import tornado_traffic
from repro.sim.batch import run_wormhole_batch


def build_torus_workload(k):
    cube = KAryNCube(k=k, n=2, wrap=True)
    demands = tornado_traffic(cube)  # everyone turns the same way: rings fill
    walks = [dimension_order_path(cube, s, d) for s, d in demands]
    paths = paths_from_node_walks(cube.network, walks)
    vc_of = dateline_vc_assignment(cube)
    vcs = [[vc_of(p, h) for h in range(p.length)] for p in paths]
    return cube, paths, vcs


def test_e18_dateline_story(benchmark, save_table):
    k, L = 4, 8
    cube, paths, vcs = build_torus_workload(k)

    def sweep():
        rows = []
        for name, B, use_classes in [
            ("B=1", 1, False),
            ("B=2 interchangeable", 2, False),
            ("B=2 dateline classes", 2, True),
        ]:
            deadlocks, delivered, spans = 0, 0, []
            # One lockstep call per configuration: trial i is seed i.
            for res in run_wormhole_batch(
                cube.network,
                paths,
                L,
                seeds=range(10),
                num_virtual_channels=B,
                vc_ids=vcs if use_classes else None,
            ):
                deadlocks += int(res.deadlocked)
                delivered += int(res.all_delivered)
                if res.all_delivered:
                    spans.append(res.makespan)
            rows.append(
                {
                    "configuration": name,
                    "deadlocks/10": deadlocks,
                    "full deliveries/10": delivered,
                    "mean makespan (successes)": (
                        float(np.mean(spans)) if spans else float("nan")
                    ),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        f"E18: tornado traffic on a {k}x{k} torus, dimension-order routes "
        f"(L={L}, 10 seeds)",
        list(rows[0].keys()),
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e18_dally_seitz", table)

    by = {r["configuration"]: r for r in rows}
    assert by["B=1"]["deadlocks/10"] > 0
    assert by["B=2 dateline classes"]["deadlocks/10"] == 0
    assert by["B=2 dateline classes"]["full deliveries/10"] == 10
    # Dateline classes never do worse on deliveries than interchangeable.
    assert (
        by["B=2 dateline classes"]["full deliveries/10"]
        >= by["B=2 interchangeable"]["full deliveries/10"]
    )
