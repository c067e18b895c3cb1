#!/usr/bin/env python
"""Scenario: a butterfly fabric under continuous load.

Batch bounds tell you how fast a burst clears; operators care about the
*sustained* rate a fabric holds without queues growing.  This example
injects Bernoulli traffic (random destinations) into a butterfly at
increasing per-input rates and shows where the network saturates for
each virtual-channel count — the steady-state face of the paper's
``D^(1/B)`` factor (Scheideler-Vocking studied exactly this regime).

Each cell is one :class:`repro.ContinuousWormholeSimulator` run: the
arrivals and routes are drawn up front and routed as one wormhole
trial, then reported as throughput, latency and backlog.

Run:  python examples/steady_state_traffic.py
"""

from repro import Butterfly, ContinuousWormholeSimulator, Table

N, L, HORIZON = 32, 6, 2000


def main() -> None:
    bf = Butterfly(N)

    def path_of(source, rng):
        return list(bf.path_edges(source, int(rng.integers(N))))

    table = Table(
        f"n={N} butterfly, L={L}, Bernoulli arrivals, {HORIZON} flit steps",
        ["B", "rate", "throughput (msgs/step)", "mean latency", "backlog trend"],
    )
    for B in (1, 2, 4):
        for rate in (0.04, 0.16, 0.32):
            sim = ContinuousWormholeSimulator(bf, N, B, seed=11)
            res = sim.run(rate, L, path_of, horizon=HORIZON, sample_every=100)
            trend = "stable" if res.backlog_slope() < 0.05 else "GROWING"
            table.add_row([B, rate, res.throughput, res.mean_latency, trend])
    print(table.render())
    print()
    print(
        "Each doubling of B pushes the saturation knee out; past the "
        "knee, latency explodes and the backlog grows without bound."
    )


if __name__ == "__main__":
    main()
