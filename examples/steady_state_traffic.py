#!/usr/bin/env python
"""Scenario: a butterfly fabric under continuous load.

Batch bounds tell you how fast a burst clears; operators care about the
*sustained* rate a fabric holds without queues growing.  This example
injects Bernoulli traffic (random destinations) into a butterfly at
increasing per-input rates and shows where the network saturates for
each virtual-channel count — the steady-state face of the paper's
``D^(1/B)`` factor (Scheideler-Vocking studied exactly this regime).

Per rate, one arrival trace is drawn up front into a wormhole workload
and routed at every virtual-channel count in one lockstep call; each
trial is then reported as throughput, latency and backlog.

Run:  python examples/steady_state_traffic.py
"""

import numpy as np

from repro import Butterfly, ContinuousResult, Table
from repro.sim import run_model
from repro.sim.continuous import draw_arrivals, open_loop_streams
from repro.sim.spec import Workload

N, L, HORIZON = 32, 6, 2000
CHANNELS, RATES = (1, 2, 4), (0.04, 0.16, 0.32)


def main() -> None:
    bf = Butterfly(N)

    def path_of(source, rng):
        return list(bf.path_edges(source, int(rng.integers(N))))

    reports = {}
    for rate in RATES:
        arrivals, routes, arbitration = open_loop_streams(11)
        release, sources, paths = draw_arrivals(
            np.full(HORIZON, rate), N, path_of, arrivals, routes
        )
        wl = Workload(
            net=bf, paths=paths, default_length=L,
            release_times=release, sources=sources,
        )
        runs = run_model(
            "wormhole", wl, L, seeds=[arbitration] * len(CHANNELS),
            B=list(CHANNELS), max_steps=HORIZON,
        )
        for B, run in zip(CHANNELS, runs):
            reports[B, rate] = ContinuousResult.of(
                release, run.completion_times, HORIZON, sample_every=100
            )

    table = Table(
        f"n={N} butterfly, L={L}, Bernoulli arrivals, {HORIZON} flit steps",
        ["B", "rate", "throughput (msgs/step)", "mean latency", "backlog trend"],
    )
    for B in CHANNELS:
        for rate in RATES:
            res = reports[B, rate]
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
