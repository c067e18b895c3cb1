#!/usr/bin/env python
"""Scenario: many-to-many traffic on a butterfly fabric (Section 3.1).

A multistage interconnection network serving a q-relation — every input
sends q messages, every output receives q — is the canonical workload
for butterfly fabrics (Section 1.2).  This example runs the paper's
randomized two-pass algorithm across virtual-channel counts and sets it
against two reference points:

* a greedy one-pass wormhole router (the class the Section 3.2 lower
  bound covers), and
* circuit switching with per-edge capacity B (the Kruskal-Snir / Koch
  regime), which drops messages instead of buffering them.

Run:  python examples/butterfly_qrelation.py
"""

import numpy as np

from repro import (
    Butterfly,
    ButterflyRouter,
    Table,
    bounds,
    circuit_switch_butterfly,
    one_pass_workload,
    random_q_relation,
    simulate,
)

N, Q, L = 256, 8, 16


def main() -> None:
    rng = np.random.default_rng(0)
    inst = random_q_relation(N, Q, rng)
    print(f"q-relation on an {N}-input butterfly: q = {Q}, L = {L} flits")

    table = Table(
        "Section 3.1 randomized two-pass algorithm",
        ["B", "rounds", "colors/round", "flit steps", "Thm 3.1.1 bound", "all delivered"],
    )
    for B in (1, 2, 3):
        router = ButterflyRouter(N, B=B, message_length=L, seed=1)
        out = router.route(inst)
        table.add_row(
            [
                B,
                out.num_rounds_used,
                out.rounds[0].num_colors,
                out.total_flit_steps,
                bounds.butterfly_upper_bound(L, Q, N, B),
                out.all_delivered,
            ]
        )
    print()
    print(table.render())

    table2 = Table(
        "Reference points at B = 2",
        ["system", "outcome"],
    )
    one = simulate(one_pass_workload(N, inst, L), B=2, seed=0)
    table2.add_row(
        ["greedy one-pass wormhole", f"{one.makespan} flit steps (all delivered)"]
    )
    bf = Butterfly(N)
    circuit = circuit_switch_butterfly(
        bf, inst.dests[: N], capacity=2, rng=np.random.default_rng(2)
    )
    table2.add_row(
        [
            "circuit switching (capacity 2)",
            f"{circuit.num_survivors}/{N} circuits locked down, rest dropped",
        ]
    )
    print()
    print(table2.render())
    print()
    print(
        "Wormhole routing with virtual channels delivers everything; "
        "circuit switching at the same capacity must drop a "
        "Theta(1/log^(1/B) n) fraction (Koch)."
    )


if __name__ == "__main__":
    main()
