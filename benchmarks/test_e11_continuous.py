"""E11 — continuous routing (Scheideler-Vocking [43], Section 1.3.1).

The paper's batch bounds have a steady-state sibling: the maximum
injection rate a wormhole network can sustain carries the same
``D^(1/B)`` factor.  We inject Bernoulli traffic (random destinations)
into a butterfly at increasing per-input rates, classify each rate as
stable/unstable by the backlog trend, and report the measured knee per
``B``.  Shape checks: the knee rises monotonically with ``B``, and the
relative gain from B=1 to B=2 exceeds the gain from B=2 to B=4
(diminishing returns, consistent with the ``log^(1/B)``-type factor).
"""

import numpy as np

from repro import Butterfly, Table
from repro.sim.batch import run_model
from repro.sim.continuous import ContinuousResult, draw_arrivals, open_loop_streams
from repro.sim.spec import Workload

N = 32
L = 6
HORIZON = 2500
RATES = (0.01, 0.02, 0.04, 0.08, 0.16, 0.32)


def path_gen(bf):
    def path_of(source, rng):
        return list(bf.path_edges(source, int(rng.integers(bf.n))))

    return path_of


def open_loop(bf, Bs, rate, horizon, seed):
    """One arrival trace at ``rate``, run at every ``B`` of ``Bs`` in one
    lockstep call: the rate report of each trial, in ``Bs`` order."""
    arrivals, routes, arbitration = open_loop_streams(seed)
    release, sources, paths = draw_arrivals(
        np.full(horizon, rate), bf.n, path_gen(bf), arrivals, routes
    )
    wl = Workload(
        net=bf, paths=paths, default_length=L, release_times=release, sources=sources
    )
    runs = run_model(
        "wormhole", wl, L, seeds=[arbitration] * len(Bs), B=Bs, max_steps=horizon
    )
    return [
        ContinuousResult.of(release, run.completion_times, horizon, sample_every=100)
        for run in runs
    ]


def is_stable(res):
    """Backlog shows no growth trend (queueing fluctuation is fine)."""
    return res.backlog_slope() < 0.05


def stability_knees(bf, Bs):
    """Largest tested rate that is still stable, per ``B``: rate-major,
    a ``B`` leaving the search at its first unstable rate."""
    best = dict.fromkeys(Bs, 0.0)
    for rate in RATES:
        stable = [
            B
            for B, res in zip(Bs, open_loop(bf, Bs, rate, HORIZON, seed=17))
            if is_stable(res)
        ]
        best.update(dict.fromkeys(stable, rate))
        Bs = stable
        if not Bs:
            break
    return best


def test_e11_stability_knee(benchmark, save_table):
    bf = Butterfly(N)

    def sweep():
        return stability_knees(bf, [1, 2, 4])

    knees = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        f"E11: max stable injection rate (n={N} butterfly, L={L}, "
        f"random destinations, horizon={HORIZON})",
        ["B", "max stable rate (per input per flit step)"],
    )
    for B, r in knees.items():
        table.add_row([B, r])
    save_table("e11_stability", table)

    assert knees[1] < knees[2] <= knees[4]


def test_e11_latency_vs_rate(benchmark, save_table):
    """Below the knee, latency stays near L + D - 1 and rises with load;
    past it, latency and backlog blow up."""
    bf = Butterfly(N)

    def sweep():
        Bs, rates = [1, 2], (0.02, 0.08, 0.32)
        cells = {rate: open_loop(bf, Bs, rate, 1500, seed=23) for rate in rates}
        rows = []
        for i, B in enumerate(Bs):
            for rate in rates:
                res = cells[rate][i]
                rows.append(
                    {
                        "B": B,
                        "rate": rate,
                        "throughput": res.throughput,
                        "mean latency": res.mean_latency,
                        "backlog slope": res.backlog_slope(),
                    }
                )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table("E11b: latency and backlog vs injection rate", list(rows[0].keys()))
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e11b_latency", table)

    floor = L + bf.log_n - 1
    for r in rows:
        assert r["mean latency"] >= floor - 1e-9
    # At the same overloaded rate, B = 2 sustains more throughput.
    over1 = [r for r in rows if r["B"] == 1 and r["rate"] == 0.32][0]
    over2 = [r for r in rows if r["B"] == 2 and r["rate"] == 0.32][0]
    assert over2["throughput"] > over1["throughput"]