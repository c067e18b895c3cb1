"""E4 — Section 3.2: collisions and the one-pass lower bound.

Three reproductions:

* **Lemma 3.2.3** (balls in bins): empirical ``Pr[no bin > B]`` against
  the closed form, falling as the ball count grows.
* **Theorem 3.2.5** (collisions): the probability that a random
  ``s``-subset of a random routing problem's messages collides rises to
  1 as ``s`` grows toward the theorem's ``s`` value.
* **Theorem 3.2.1 shape**: a greedy one-pass algorithm's measured time
  meets the phase-counting floor ``n q L / s`` and responds to ``B`` the
  way ``l^(1/B)/B`` predicts.
"""

import numpy as np

from repro import Table, bounds, one_pass_workload, random_destinations, simulate, subset_collision_rate, truncated_paths
from repro.analysis.balls_bins import lemma_3_2_3_bound, prob_no_bin_exceeds


def test_e4_balls_in_bins(benchmark, save_table):
    n, B = 64, 1
    ms = (8, 16, 32, 64)

    def measure():
        rng = np.random.default_rng(0)
        return [prob_no_bin_exceeds(m, n, B, 3000, rng) for m in ms]

    probs = benchmark.pedantic(measure, iterations=1, rounds=1)
    table = Table(
        f"E4a: Lemma 3.2.3 balls-in-bins (n={n} bins, B={B})",
        ["m", "Pr[max load <= B] (measured)", "closed-form bound (alpha=0.05)"],
    )
    for m, p in zip(ms, probs):
        table.add_row([m, p, lemma_3_2_3_bound(m, n, B, 0.05, statement_exponent=False)])
    save_table("e4a_balls_bins", table)
    assert probs == sorted(probs, reverse=True)
    for m, p in zip(ms, probs):
        assert p <= lemma_3_2_3_bound(m, n, B, 0.05, statement_exponent=False)


def test_e4_collision_probability(benchmark, save_table):
    n, q, L, B = 64, 4, 8, 1
    inst = random_destinations(n, q, np.random.default_rng(2))
    _, edges = truncated_paths(n, inst, L)
    sizes = (4, 16, 48, 128)

    def measure():
        rng = np.random.default_rng(3)
        return [
            subset_collision_rate(edges, s, B, trials=80, rng=rng) for s in sizes
        ]

    rates = benchmark.pedantic(measure, iterations=1, rounds=1)
    table = Table(
        f"E4b: Theorem 3.2.5 collision rates (n={n}, q={q}, L={L}, B={B}; "
        f"paper s = {bounds.butterfly_subset_size(n, q, L, B):.0f})",
        ["subset size s", "Pr[collides]"],
    )
    for s, r in zip(sizes, rates):
        table.add_row([s, r])
    save_table("e4b_collisions", table)
    assert rates[-1] == 1.0  # large subsets always collide
    assert all(a <= b + 0.05 for a, b in zip(rates[:-1], rates[1:]))


def test_e4_strip_decomposition(benchmark, save_table):
    """Lemma 3.2.4: collisions per strip of the truncated butterfly.

    The proof cuts the truncation into strips of log m levels and counts
    collisions inside each strip's disjoint subbutterflies; empirically
    every strip catches collisions once the load passes a few messages
    per input, and involvement grows with q.
    """
    from repro.core.butterfly_lower_bound import (
        strip_collision_counts,
        strip_decomposition,
    )

    n, L, B = 64, 8, 1

    def sweep():
        rows = []
        for q in (1, 2, 4, 8):
            inst = random_destinations(n, q, np.random.default_rng(q))
            bf, edges = truncated_paths(n, inst, L)
            counts = strip_collision_counts(bf, edges, B)
            rows.append(
                {
                    "q": q,
                    "messages": n * q,
                    "strips": len(strip_decomposition(bf)),
                    "involved per strip": str(counts),
                    "total involved": sum(counts),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        f"E4d: Lemma 3.2.4 strip collisions (n={n}, l=min(L, log n), B={B})",
        list(rows[0].keys()),
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e4d_strips", table)

    totals = [r["total involved"] for r in rows]
    assert totals == sorted(totals)  # involvement grows with load
    assert rows[-1]["total involved"] > rows[0]["total involved"]


def test_e4_one_pass_floor(benchmark, save_table):
    n, q, L = 64, 6, 12

    def measure():
        rows = []
        for B in (1, 2, 3):
            inst = random_destinations(n, q, np.random.default_rng(4))
            res = simulate(one_pass_workload(n, inst, L), B=B, seed=0)
            assert res.all_delivered
            s = bounds.butterfly_subset_size(n, q, L, B)
            rows.append(
                {
                    "B": B,
                    "measured": res.makespan,
                    "phase floor nqL/s": n * q * L / max(s, 1.0),
                    "theorem form": bounds.butterfly_lower_bound(L, q, n, B),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, iterations=1, rounds=1)
    table = Table(
        f"E4c: greedy one-pass routing (n={n}, q={q}, L={L})",
        ["B", "measured", "phase floor nqL/s", "theorem form"],
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e4c_one_pass", table)
    measured = [r["measured"] for r in rows]
    assert measured == sorted(measured, reverse=True)  # B helps
    # The B=1 run must respect the unobstructed floor by a wide margin
    # (heavy congestion), demonstrating the lower bound's bite.
    assert measured[0] > 3 * (L + rows[0]["B"])
