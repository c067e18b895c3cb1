"""E12 — hypercube permutation routing in O(L + log n) ([1], Section 1.3.4).

Aiello et al. route any permutation on an n-node hypercube in
``O(L + log n)`` flit steps with a small constant number of virtual
channels.  We run the two-phase randomized scheme across n and L and
check the additive shape: time/(L + 2 log n) stays in a constant band,
and growing L by dL grows time by about dL (not dL * log n).
"""

import numpy as np

from repro import Table, simulate
from repro.network.hypercube import Hypercube
from repro.scenarios import get_scenario


def two_phase(n, seed, L, B):
    """Both phases of ``scenario:hypercube-valiant`` (the permutation
    drawn from ``seed``, the intermediates and the arbitration each from
    seed 0) at ``L`` flits, the second phase continuing the first's
    arbitration stream: ``(total flit steps, max phase congestion)``."""
    build = get_scenario("hypercube-valiant").build_case
    phases = [build(n=n, seed=seed, phase=phase) for phase in (1, 2)]
    arbitration = np.random.default_rng(0)
    runs = [
        simulate(wl, B=B, message_length=L, seed=arbitration) for wl in phases
    ]
    assert all(res.all_delivered for res in runs)
    total = sum(max(int(res.makespan), 0) for res in runs)
    return total, max(wl.info["congestion"] for wl in phases)


def test_e12_additive_shape(benchmark, save_table):
    def sweep():
        rows = []
        for n in (16, 64, 256):
            log_n = Hypercube(n).dimension
            for L in (4, 16, 64):
                total, phase_congestion = two_phase(n, n + L, L, B=2)
                floor = L + 2 * log_n
                rows.append(
                    {
                        "n": n,
                        "L": L,
                        "flit steps": total,
                        "L + 2 log n": floor,
                        "ratio": total / floor,
                        "max phase congestion": phase_congestion,
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

    def sweep():
        return {B: two_phase(n, 5, L, B)[0] for B in (1, 2, 3, 4)}

    data = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        f"E12b: hypercube routing time vs B (n={n}, L={L})",
        ["B", "flit steps", "vs floor L + 2 log n"],
    )
    floor = L + 2 * Hypercube(n).dimension
    for B, t in data.items():
        table.add_row([B, t, t / floor])
    save_table("e12b_channels", table)
    vals = list(data.values())
    assert vals == sorted(vals, reverse=True)
    assert data[4] < 3 * floor
