"""E14 — adaptive wormhole routing on meshes (Section 1.3.4's category).

The paper's survey distinguishes deterministic, adaptive, and
fully-adaptive minimal deadlock-free algorithms.  We measure the
Glass-Ni west-first turn model against deterministic XY routing on a 2-D
mesh, and demonstrate the deadlock landscape: fully-adaptive B=1 can
deadlock on a 4-worm cycle; a turn model or a second virtual channel
fixes it — virtual channels buying *correctness*, not just speed.
"""

import numpy as np

from repro import Table
from repro.network.mesh import KAryNCube
from repro.sim.batch import run_adaptive_batch

K = 6
L = 6


def row_concentrated_demands(mesh):
    return [
        (mesh.node((x, 0)), mesh.node((min(K - 1, x + 2), K - 1)))
        for x in range(K - 1)
        for _ in range(4)
    ]


def square_cycle(mesh):
    a, b = mesh.node((0, 0)), mesh.node((1, 0))
    c, d = mesh.node((1, 1)), mesh.node((0, 1))
    return [(a, c), (b, d), (c, a), (d, b)]


def test_e14_turn_model_vs_xy(benchmark, save_table):
    mesh = KAryNCube(k=K, n=2, wrap=False)
    demands = row_concentrated_demands(mesh)

    def sweep():
        rows = []
        for policy in ("dimension", "west-first", "fully-adaptive"):
            spans, blocked = [], []
            # One lockstep call per policy: trial i is seed i.
            for out in run_adaptive_batch(
                mesh, demands, L, seeds=range(6), policy=policy
            ):
                assert out.all_delivered
                spans.append(out.result.makespan)
                blocked.append(out.result.total_blocked_steps)
            rows.append(
                {
                    "policy": policy,
                    "mean makespan": float(np.mean(spans)),
                    "mean blocked steps": float(np.mean(blocked)),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        f"E14: adaptive routing on a {K}x{K} mesh, row-concentrated load "
        f"(L={L}, B=1, 6 seeds)",
        list(rows[0].keys()),
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e14_adaptive", table)

    by = {r["policy"]: r["mean makespan"] for r in rows}
    assert by["west-first"] < 0.8 * by["dimension"]


def test_e14_deadlock_landscape(benchmark, save_table):
    mesh = KAryNCube(k=K, n=2, wrap=False)
    demands = square_cycle(mesh)

    def sweep():
        rows = []
        for policy, B in [
            ("fully-adaptive", 1),
            ("fully-adaptive", 2),
            ("west-first", 1),
            ("dimension", 1),
        ]:
            deadlocks = 0
            for out in run_adaptive_batch(
                mesh, demands, 4, seeds=range(30), num_virtual_channels=B,
                policy=policy,
            ):
                deadlocks += int(out.result.deadlocked)
            rows.append(
                {"policy": policy, "B": B, "deadlocks/30 runs": deadlocks}
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        "E14b: deadlocks on the 4-worm square cycle",
        list(rows[0].keys()),
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e14b_deadlocks", table)

    by = {(r["policy"], r["B"]): r["deadlocks/30 runs"] for r in rows}
    assert by[("fully-adaptive", 1)] > 0  # unrestricted adaptivity deadlocks
    assert by[("fully-adaptive", 2)] == 0  # a second VC rescues it
    assert by[("west-first", 1)] == 0  # the turn model rescues it
    assert by[("dimension", 1)] == 0
