"""E1 — Theorem 2.1.6: offline LLL schedules on general networks.

Regenerates the upper-bound claim: any workload with congestion ``C`` and
dilation ``D`` is schedulable in ``O((L+D) C (D log D)^(1/B) / B)`` flit
steps.  We build random layered workloads, construct and *execute* the
schedule for each ``B``, and report measured makespan against the bound
formula.  Shape checks: makespan falls monotonically with ``B``, every
run is block-free, and the measured/bound ratio stays within a constant
band across the sweep.
"""

import numpy as np
import pytest

from repro import Table, bounds, lll_schedule
from repro.network.random_networks import layered_network, random_walk_paths
from repro.routing.paths import congestion, dilation, paths_from_node_walks
from repro.sim.sweep import TrialSpec, run_sweep

BS = (1, 2, 3, 4)


def build_workload(width, depth, messages, seed):
    rng = np.random.default_rng(seed)
    net = layered_network(width, depth, 3, rng)
    walks = random_walk_paths(net, width, depth, messages, rng)
    return net, paths_from_node_walks(net, walks)


def schedule_specs(width, depth, messages, L):
    """The E1 grid as sweep trials: each ``B`` is a wormhole trial of the
    ``lll-schedule`` scenario, its workload released on the LLL
    schedule built for that ``B``.

    ``schedule_seed=B`` reproduces the historical per-``B`` loop
    exactly (a block-free run never consults arbitration), so the
    recorded tables are unchanged.
    """
    return [
        TrialSpec.make(
            "scenario:lll-schedule",
            "wormhole",
            B=B,
            workload_params={
                "width": width,
                "depth": depth,
                "messages": messages,
                "seed": 7,
                "length": L,
                "B": B,
                "schedule_seed": B,
            },
            message_length=L,
        )
        for B in BS
    ]


def sweep_rows(specs, L):
    rows = []
    for trial in run_sweep(specs):
        m = trial.metrics
        bound = bounds.general_upper_bound(
            L, m["workload_congestion"], m["workload_dilation"], trial.spec.B
        )
        rows.append(
            {
                "B": trial.spec.B,
                "classes": m["workload_classes"],
                "makespan": m["makespan"],
                "bound": bound,
                "ratio": m["makespan"] / bound,
                "blocked": m["blocked"],
            }
        )
    return rows


@pytest.mark.parametrize(
    "width,depth,messages",
    [(12, 12, 150), (16, 24, 320)],
    ids=["mid", "deep"],
)
def test_e1_schedule_length_vs_b(benchmark, save_table, width, depth, messages):
    net, paths = build_workload(width, depth, messages, seed=7)
    C, D = congestion(paths), dilation(paths)
    L = D  # the L = Theta(D) regime of the lower bound
    specs = schedule_specs(width, depth, messages, L)

    rows = benchmark.pedantic(
        sweep_rows, args=(specs, L), iterations=1, rounds=1
    )

    table = Table(
        f"E1: Theorem 2.1.6 schedules (C={C}, D={D}, L={L}, "
        f"{messages} messages, width={width})",
        ["B", "classes", "makespan", "bound", "ratio", "blocked"],
    )
    for r in rows:
        table.add_row([r["B"], r["classes"], r["makespan"], r["bound"], r["ratio"], r["blocked"]])
    save_table(f"e1_w{width}_d{depth}", table)

    makespans = [r["makespan"] for r in rows]
    assert makespans == sorted(makespans, reverse=True)
    assert all(r["blocked"] == 0 for r in rows)
    # Every measured schedule sits under the theorem's formula with a
    # small constant (random instances sit well under the worst case,
    # especially at B = 1 where the bound carries the full D log D).
    assert all(r["ratio"] <= 1.5 for r in rows)


def test_e1c_verbatim_construction(benchmark, save_table, run_schedule):
    """The paper's construction with its *verbatim* stage parameters
    (3e, 32e, 15 ln^3): class counts stay within the theorem's
    C (D log D)^(1/B) / B form, and the executed schedule still verifies
    block-free."""
    from repro import bounds as bnd

    net, paths = build_workload(10, 8, 110, seed=13)
    C, D = congestion(paths), dilation(paths)
    L = D

    def sweep():
        rows = []
        for B in (2, 3):  # B=1 verbatim r is in the thousands; skip
            build = lll_schedule(
                paths, L, B=B, rng=np.random.default_rng(B), mode="theory"
            )
            res = run_schedule(net, paths, build, B)
            kappa_bound = bnd.color_classes_bound(C, D, B)
            rows.append(
                {
                    "B": B,
                    "classes (verbatim + merge)": build.num_classes,
                    "kappa bound C(DlogD)^(1/B)/B": kappa_bound,
                    "makespan": int(res.makespan),
                    "blocked": int(res.total_blocked_steps),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        f"E1c: Theorem 2.1.6 verbatim construction (C={C}, D={D}, L={L})",
        list(rows[0].keys()),
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e1c_verbatim", table)

    for r in rows:
        assert r["blocked"] == 0
        assert r["classes (verbatim + merge)"] <= 3 * r["kappa bound C(DlogD)^(1/B)/B"]


def test_e1_speedup_scaling_with_depth(benchmark, save_table, run_schedule):
    """The B = 1 -> 2 speedup grows with D on congested workloads —
    the D^(1-1/B) flavor of the theorem's gap."""

    def measure():
        out = []
        for depth in (6, 24):
            net, paths = build_workload(10, depth, 40 * depth // 3, seed=3)
            L = dilation(paths)
            spans = {}
            for B in (1, 2):
                build = lll_schedule(
                    paths, L, B=B, rng=np.random.default_rng(0), mode="direct"
                )
                spans[B] = run_schedule(net, paths, build, B).makespan
            out.append(
                {
                    "depth": depth,
                    "C": congestion(paths),
                    "t(B=1)": spans[1],
                    "t(B=2)": spans[2],
                    "speedup": spans[1] / spans[2],
                }
            )
        return out

    rows = benchmark.pedantic(measure, iterations=1, rounds=1)
    table = Table(
        "E1b: measured speedup B=1 -> B=2 vs depth",
        ["depth", "C", "t(B=1)", "t(B=2)", "speedup"],
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e1b_speedup_vs_depth", table)
    assert all(r["speedup"] > 1.2 for r in rows)
