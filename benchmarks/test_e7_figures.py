"""E7 — Figures 1 and 2: structural reproductions.

Fig. 1 is the eight-input butterfly; Fig. 2 shows a message routed in two
passes through the butterfly via a random intermediate node.  We rebuild
both as ASCII artifacts and assert the structural facts the figures
depict (node/level counts, straight+cross wiring, and the two-pass route
touching level log n in the middle).
"""

import numpy as np

from repro import Butterfly, Table
from repro.analysis.render import render_butterfly


def test_e7_fig1_butterfly_structure(benchmark, save_table, results_dir):
    bf = Butterfly(8)

    art = benchmark.pedantic(render_butterfly, args=(bf,), iterations=1, rounds=1)
    (results_dir / "e7_fig1_butterfly.txt").write_text(art + "\n")

    # Section 1.2's facts about Fig. 1.
    assert bf.num_nodes == 8 * (3 + 1)
    assert bf.num_levels == 4
    net = bf.to_network()
    # Every non-output node has exactly one straight and one cross edge.
    for level in range(3):
        for w in range(8):
            succ = sorted(
                net.label(net.head(e))[0]
                for e in net.out_edges(bf.node(w, level))
            )
            assert len(succ) == 2
            assert w in succ
            assert (w ^ (1 << bf.cross_bit(level))) in succ
    # Inputs at level 0, outputs at level log n.
    assert [net.label(v) for v in bf.inputs()] == [(w, 0) for w in range(8)]
    assert [net.label(v) for v in bf.outputs()] == [(w, 3) for w in range(8)]


def test_e7_fig2_two_pass_route(benchmark, save_table):
    """Reproduce Fig. 2: source input -> random level-log n node ->
    destination output, as one worm path through the 2-pass cascade."""
    n = 8
    bf = Butterfly(n, passes=2)
    rng = np.random.default_rng(42)
    src, dst = 5, 2
    mid = int(rng.integers(n))

    def build():
        return bf.two_pass_path_edges_batch(
            np.array([src]), np.array([mid]), np.array([dst])
        )[0]

    edges = benchmark.pedantic(build, iterations=1, rounds=1)
    table = Table(
        f"E7: Fig. 2 two-pass route, input {src} -> intermediate {mid} "
        f"-> output {dst} (n={n})",
        ["hop", "level", "from column", "to column", "edge kind"],
    )
    for hop, e in enumerate(edges):
        tail, head = bf.edge_endpoints(int(e))
        kind = "straight" if bf.column_of(tail) == bf.column_of(head) else "cross"
        table.add_row(
            [hop, bf.level_of(tail), bf.column_of(tail), bf.column_of(head), kind]
        )
    save_table("e7_fig2_route", table)

    # The route's defining structure.
    assert len(edges) == 2 * bf.log_n
    tail0, _ = bf.edge_endpoints(int(edges[0]))
    assert bf.column_of(tail0) == src and bf.level_of(tail0) == 0
    _, mid_node = bf.edge_endpoints(int(edges[bf.log_n - 1]))
    assert bf.column_of(mid_node) == mid  # pass 1 ends at the intermediate
    assert bf.level_of(mid_node) == bf.log_n
    _, final = bf.edge_endpoints(int(edges[-1]))
    assert bf.column_of(final) == dst and bf.level_of(final) == 2 * bf.log_n
