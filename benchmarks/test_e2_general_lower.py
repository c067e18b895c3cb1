"""E2 — Theorem 2.2.1: the hard instance needs Omega(L C D^(1/B) / B).

Builds the primary/secondary-edge construction for each ``B``, routes it
greedily on the exact flit-level model, and compares the measured time
with the proof's explicit bound ``(L - D) M / B``.  Shape checks: the
measured time always meets the bound, stays within a small constant of
it, and running the ``B = 1`` instance with extra virtual channels yields
the paper's *superlinear* speedup (> B).
"""

from repro import (
    Table,
    bounds,
    build_hard_instance,
    hard_instance_lower_bound,
)
from repro.sim.sweep import TrialSpec, run_sweep, sweep_grid

CASES = [
    # (B, C, D)
    (1, 6, 15),
    (1, 12, 15),
    (2, 6, 19),
    (2, 12, 19),
    (3, 8, 19),
]


def test_e2_measured_vs_omega_bound(benchmark, save_table):
    # The greedy router keeps its historical seed=0 so the measured
    # makespans match the pre-sweep tables exactly.
    prepared = []
    for B, C, D in CASES:
        inst = build_hard_instance(C=C, D=D, B=B)
        L = inst.recommended_length()
        spec = TrialSpec.make(
            "hard-instance",
            "wormhole",
            B=B,
            workload_params={"C": C, "D": D, "B": B},
            sim_params={"seed": 0},
            message_length=L,
        )
        prepared.append((spec, inst, L))

    def sweep():
        out = run_sweep([spec for spec, _, _ in prepared])
        rows = []
        for trial, (_, inst, L) in zip(out, prepared):
            m = trial.metrics
            assert m["delivered"] == m["messages"]
            lb = hard_instance_lower_bound(inst, L)
            rows.append(
                {
                    "B": trial.spec.B,
                    "C": m["workload_congestion"],
                    "D": m["workload_dilation"],
                    "L": L,
                    "M": m["workload_messages"],
                    "measured": m["makespan"],
                    "omega": lb,
                    "ratio": m["makespan"] / lb,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        "E2: Theorem 2.2.1 hard instances, greedy routing vs (L-D)M/B",
        ["B", "C", "D", "L", "M", "measured", "omega", "ratio"],
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e2_lower_bound", table)

    for r in rows:
        assert r["measured"] >= r["omega"]  # the bound holds
        assert r["ratio"] < 6  # and is nearly tight for greedy routing


def test_e2_superlinear_speedup(benchmark, save_table):
    """Route the B=1 hard instance with B' = 1..4 channels: the paper's
    headline — speedup beyond B' itself, approaching B' D^(1-1/B')."""
    inst = build_hard_instance(C=12, D=21, B=1)
    L = inst.recommended_length()
    specs = sweep_grid(
        "hard-instance",
        "wormhole",
        (1, 2, 3, 4),
        workload_params={"C": 12, "D": 21, "B": 1},
        sim_params={"seed": 0},
        message_length=L,
    )

    def sweep():
        return {
            t.spec.B: t.metrics["makespan"] for t in run_sweep(specs)
        }

    spans = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        f"E2b: B=1 hard instance (C={inst.congestion}, D={inst.dilation}, "
        f"L={L}) routed with extra channels",
        ["B'", "measured", "speedup vs B'=1", "paper shape B' D^(1-1/B')"],
    )
    for Bp, t in spans.items():
        table.add_row(
            [
                Bp,
                t,
                spans[1] / t,
                bounds.virtual_channel_speedup(inst.dilation, Bp),
            ]
        )
    save_table("e2b_superlinear", table)

    assert spans[1] / spans[2] > 2.0  # superlinear at B' = 2
    assert spans[1] / spans[3] > 3.0  # and at B' = 3
    values = list(spans.values())
    assert values == sorted(values, reverse=True)
