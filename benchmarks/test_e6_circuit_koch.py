"""E6 — Koch [22]: circuit-switched butterfly throughput
``Theta(n / log^(1/B) n)`` (Section 1.3.3).

The direct ancestor of the paper's superlinear claim: raising per-edge
circuit capacity from 1 to B multiplies throughput by about
``log^(1 - 1/B) n`` — more than the constant-factor hardware cost.
We sweep n and B with random destinations, reporting mean survivors
against the closed form.
"""

import numpy as np

from repro import Butterfly, Table, bounds, circuit_switch_butterfly

NS = (64, 256, 1024)
BS = (1, 2, 3, 4)
TRIALS = 12


def mean_survivors(n, B, seed):
    bf = Butterfly(n)
    rng = np.random.default_rng(seed)
    vals = [
        circuit_switch_butterfly(bf, rng.integers(0, n, n), B, rng).num_survivors
        for _ in range(TRIALS)
    ]
    return float(np.mean(vals))


def test_e6_koch_throughput(benchmark, save_table):
    from repro.analysis.circuit_recursion import expected_survivors

    def sweep():
        return {
            (n, B): mean_survivors(n, B, seed=n + B) for n in NS for B in BS
        }

    data = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        f"E6: circuit-switched butterfly survivors (random dests, "
        f"{TRIALS} trials)",
        ["n", "B", "survivors", "KS/Koch recursion", "n/log^(1/B) n", "ratio"],
    )
    for (n, B), s in data.items():
        k = bounds.koch_circuit_throughput(n, B)
        table.add_row([n, B, s, expected_survivors(n, B), k, s / k])
    save_table("e6_koch", table)

    # The analytic recursion tracks the simulation within a few percent.
    for (n, B), s in data.items():
        assert abs(s - expected_survivors(n, B)) / s < 0.08

    for n in NS:
        col = [data[(n, B)] for B in BS]
        assert col == sorted(col)  # monotone in B
    # Superlinear benefit: B=2 recovers far more than 2x the *loss* at B=1.
    for n in NS:
        lost_b1 = n - data[(n, 1)]
        lost_b2 = n - data[(n, 2)]
        assert lost_b2 < lost_b1 / 3
    # Theta shape: survivors / (n / log^(1/B) n) stays in a narrow band
    # across n for each B.
    for B in BS:
        ratios = [
            data[(n, B)] / bounds.koch_circuit_throughput(n, B) for n in NS
        ]
        assert max(ratios) / min(ratios) < 2.0


def test_e6_fraction_decays_as_log(benchmark, save_table):
    """At B = 1 the surviving fraction ~ c / log n: fraction * log n is
    nearly constant across two octaves of n."""

    def sweep():
        return {n: mean_survivors(n, 1, seed=9) for n in (64, 256, 1024, 4096)}

    data = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        "E6b: B = 1 surviving fraction vs 1/log n",
        ["n", "fraction", "fraction * log2 n"],
    )
    products = []
    for n, s in data.items():
        frac = s / n
        products.append(frac * np.log2(n))
        table.add_row([n, frac, products[-1]])
    save_table("e6b_kruskal_snir", table)
    assert max(products) / min(products) < 1.5
