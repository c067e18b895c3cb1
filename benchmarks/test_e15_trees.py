"""E15 — trees: the O(L C + D) offline bound of Ranade et al. [41].

Section 1.3.4: on trees (and constant-dimension meshes) there are offline
wormhole schedules of length ``O(L C + D)`` — optimal, since some edge
must carry ``L C`` flits and some message travels ``D`` hops.  We route
root-heavy leaf-to-leaf traffic on complete binary trees greedily
(farthest-first would need global state; random arbitration suffices)
and check the measured makespan stays within a small constant of
``L C + D`` while the naive ``L C D`` form is left far behind.
"""

import numpy as np

from repro import Table, simulate
from repro.network.tree import CompleteTree, tree_path
from repro.routing.paths import congestion, dilation, paths_from_node_walks


def leaf_shuffle_workload(tree, rng, num_messages):
    leaves = list(tree.leaves())
    walks = []
    for _ in range(num_messages):
        s, d = rng.choice(len(leaves), size=2, replace=False)
        walks.append(tree_path(tree, leaves[s], leaves[d]))
    return paths_from_node_walks(tree.network, walks)


def test_e15_tree_lc_plus_d(benchmark, save_table):
    L = 8

    def sweep():
        rows = []
        for height, messages in ((3, 24), (4, 60), (5, 140)):
            tree = CompleteTree(arity=2, height=height)
            rng = np.random.default_rng(height)
            paths = leaf_shuffle_workload(tree, rng, messages)
            C, D = congestion(paths), dilation(paths)
            res = simulate((tree.network, paths), message_length=L)
            assert res.all_delivered
            assert not res.deadlocked
            rows.append(
                {
                    "height": height,
                    "messages": messages,
                    "C": C,
                    "D": D,
                    "measured": int(res.makespan),
                    "LC + D": L * C + D,
                    "ratio": res.makespan / (L * C + D),
                    "LCD form": L * C * D,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        f"E15: greedy wormhole on binary trees, leaf shuffle (L={L}, B=1)",
        list(rows[0].keys()),
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e15_trees", table)

    for r in rows:
        # Within a small constant of the optimal LC + D form, far from LCD.
        assert r["measured"] <= 4 * r["LC + D"]
        assert r["measured"] < r["LCD form"] / 2
    ratios = [r["ratio"] for r in rows]
    assert max(ratios) / min(ratios) < 3.0
