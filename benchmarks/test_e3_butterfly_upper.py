"""E3 — Theorem 3.1.1: the randomized butterfly q-relation algorithm.

Runs the Section 3.1 router across ``n``, ``q`` and ``B`` and compares
total flit steps against ``L (q + log n) (log^(1/B) n) log log(nq) / B``.
Shape checks: everything is delivered w.h.p., time falls monotonically
with ``B`` (the virtual-channel benefit), and measured/bound ratios stay
in a constant band across the whole sweep.
"""

import numpy as np

from repro import ButterflyRouter, Table, bounds, random_q_relation

L = 16


def run_cell(n, q, B, seed):
    inst = random_q_relation(n, q, np.random.default_rng(seed))
    router = ButterflyRouter(n, B=B, message_length=L, seed=seed)
    out = router.route(inst)
    return out


def test_e3_time_vs_bound(benchmark, save_table):
    cells = [
        (n, q, B)
        for n in (16, 64, 256)
        for q in (1, max(1, n.bit_length() - 1))
        for B in (1, 2, 3)
    ]

    def sweep():
        rows = []
        for n, q, B in cells:
            out = run_cell(n, q, B, seed=5)
            bound = bounds.butterfly_upper_bound(L, q, n, B)
            rows.append(
                {
                    "n": n,
                    "q": q,
                    "B": B,
                    "delivered": out.all_delivered,
                    "rounds": out.num_rounds_used,
                    "flit steps": out.total_flit_steps,
                    "bound": bound,
                    "ratio": out.total_flit_steps / bound,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        f"E3: Theorem 3.1.1 butterfly q-relations (L={L})",
        ["n", "q", "B", "delivered", "rounds", "flit steps", "bound", "ratio"],
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e3_butterfly_upper", table)

    assert all(r["delivered"] for r in rows)
    # Monotone in B within each (n, q) cell.
    by_cell = {}
    for r in rows:
        by_cell.setdefault((r["n"], r["q"]), []).append(r["flit steps"])
    for steps in by_cell.values():
        assert steps == sorted(steps, reverse=True)
    ratios = [r["ratio"] for r in rows]
    assert max(ratios) / min(ratios) < 20  # constant-band shape


def test_e3_scaling_in_n(benchmark, save_table):
    """Fix q = log n, B = 2: measured time tracks the bound's growth."""

    def sweep():
        rows = []
        for n in (16, 64, 256, 1024):
            q = n.bit_length() - 1
            out = run_cell(n, q, 2, seed=1)
            bound = bounds.butterfly_upper_bound(L, q, n, 2)
            rows.append((n, q, out.total_flit_steps, bound, out.total_flit_steps / bound))
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    table = Table(
        "E3b: scaling with n at q = log n, B = 2",
        ["n", "q", "flit steps", "bound", "ratio"],
    )
    for r in rows:
        table.add_row(list(r))
    save_table("e3b_scaling", table)
    steps = [r[2] for r in rows]
    assert steps == sorted(steps)  # time grows with n
    ratios = [r[4] for r in rows]
    assert max(ratios) / min(ratios) < 8  # but only as fast as the bound
