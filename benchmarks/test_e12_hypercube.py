"""E12 — hypercube permutation routing in O(L + log n) ([1], Section 1.3.4).

Aiello et al. route any permutation on an n-node hypercube in
``O(L + log n)`` flit steps with a small constant number of virtual
channels.  We run the two-phase randomized scheme across n and L and
check the additive shape: time/(L + 2 log n) stays in a constant band,
and growing L by dL grows time by about dL (not dL * log n).
"""

import numpy as np

from repro import Table
from repro.core.hypercube_routing import route_hypercube_permutation
from repro.network.hypercube import Hypercube
from repro.routing.problems import random_permutation


def test_e12_additive_shape(benchmark, save_table):
    def sweep():
        rows = []
        for n in (16, 64, 256):
            cube = Hypercube(n)
            for L in (4, 16, 64):
                inst = random_permutation(n, np.random.default_rng(n + L))
                out = route_hypercube_permutation(cube, inst, L, B=2, seed=0)
                assert out.all_delivered
                floor = L + 2 * cube.dimension
                rows.append(
                    {
                        "n": n,
                        "L": L,
                        "flit steps": out.total_flit_steps,
                        "L + 2 log n": floor,
                        "ratio": out.total_flit_steps / floor,
                        "max phase congestion": max(
                            out.congestion_phase1, out.congestion_phase2
                        ),
                    }
                )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        "E12: two-phase hypercube permutation routing (B=2)",
        list(rows[0].keys()),
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e12_hypercube", table)

    ratios = [r["ratio"] for r in rows]
    assert max(ratios) < 6.0
    assert max(ratios) / min(ratios) < 4.0
    # Additivity in L: at n = 256, going L: 4 -> 64 adds ~O(dL), far less
    # than dL * log n.
    by = {(r["n"], r["L"]): r["flit steps"] for r in rows}
    dt = by[(256, 64)] - by[(256, 4)]
    assert dt < 0.8 * 60 * 8  # clearly below dL * log n growth


def test_e12_virtual_channels_tame_congestion(benchmark, save_table):
    """At B = 1 phases serialize on conflicts; a couple of channels
    recover the additive behaviour — [1]'s 'small constant' claim."""
    n, L = 128, 16
    cube = Hypercube(n)
    inst = random_permutation(n, np.random.default_rng(5))

    def sweep():
        return {
            B: route_hypercube_permutation(cube, inst, L, B=B, seed=0).total_flit_steps
            for B in (1, 2, 3, 4)
        }

    data = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        f"E12b: hypercube routing time vs B (n={n}, L={L})",
        ["B", "flit steps", "vs floor L + 2 log n"],
    )
    floor = L + 2 * cube.dimension
    for B, t in data.items():
        table.add_row([B, t, t / floor])
    save_table("e12b_channels", table)
    vals = list(data.values())
    assert vals == sorted(vals, reverse=True)
    assert data[4] < 3 * floor
