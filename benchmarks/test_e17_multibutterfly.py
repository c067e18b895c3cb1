"""E17 — multibutterflies: O(L + log n) via path diversity ([3]).

Arora-Leighton-Maggs route input-to-output permutations on an n-input
multibutterfly in O(L + log n) flit steps online.  We compare the
multibutterfly's adaptive router against the plain butterfly's unique
greedy paths on the same adversarial permutation, sweeping the
multiplicity d — showing the diversity (not just extra wires) is what
buys the bound.
"""

import numpy as np

from repro import Butterfly, Table, simulate
from repro.network.multibutterfly import Multibutterfly
from repro.routing.problems import transpose_permutation


def route(mbf, inst, L):
    """``inst``'s demands through the adaptive router at B = 1, seed 0."""
    demands = np.stack([inst.sources, inst.dests], axis=1)
    return simulate(
        (mbf, demands), model="adaptive", policy="fully-adaptive",
        message_length=L, seed=0,
    )


def test_e17_diversity_vs_unique_paths(benchmark, save_table):
    n, L = 64, 8
    inst = transpose_permutation(n)  # sqrt(n) congestion on the butterfly

    def measure():
        rows = []
        bf = Butterfly(n)
        edges = bf.path_edges_batch(inst.sources, inst.dests)
        res = simulate((bf, [list(r) for r in edges]), message_length=L)
        rows.append(
            {
                "network": "butterfly (unique paths)",
                "makespan": int(res.makespan),
                "blocked steps": int(res.total_blocked_steps),
            }
        )
        for d in (1, 2, 3):
            mbf = Multibutterfly(n, d=d, rng=np.random.default_rng(7))
            out = route(mbf, inst, L)
            assert out.all_delivered
            rows.append(
                {
                    "network": f"multibutterfly d={d}",
                    "makespan": int(out.makespan),
                    "blocked steps": int(out.total_blocked_steps),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, iterations=1, rounds=1)
    table = Table(
        f"E17: transpose permutation, n={n}, L={L}, B=1",
        list(rows[0].keys()),
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e17_multibutterfly", table)

    by = {r["network"]: r["makespan"] for r in rows}
    assert by["multibutterfly d=2"] < by["butterfly (unique paths)"]
    assert by["multibutterfly d=3"] <= by["multibutterfly d=1"]


def test_e17_l_plus_logn_scaling(benchmark, save_table):
    L = 8

    def sweep():
        rows = []
        from repro.routing.problems import random_permutation

        for n in (16, 64, 256, 1024):
            mbf = Multibutterfly(n, d=2, rng=np.random.default_rng(n))
            inst = random_permutation(n, np.random.default_rng(n + 1))
            res = route(mbf, inst, L)
            assert res.all_delivered
            rows.append(
                {
                    "n": n,
                    "log n": mbf.log_n,
                    "makespan": int(res.makespan),
                    "L + log n": L + mbf.log_n,
                    "ratio": res.makespan / (L + mbf.log_n),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        f"E17b: multibutterfly random permutations (d=2, B=1, L={L})",
        list(rows[0].keys()),
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e17b_scaling", table)

    ratios = [r["ratio"] for r in rows]
    assert max(ratios) < 6.0  # O(L + log n): bounded constant across n
    assert max(ratios) / min(ratios) < 3.0
