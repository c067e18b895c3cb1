"""E5 — Section 1.4: wormhole + virtual channels vs virtual cut-through
vs store-and-forward at a fixed buffer budget.

The paper's comparison: per edge, a wormhole router stores one flit from
each of ``B`` messages; a cut-through router stores ``B`` flits of one
message; a store-and-forward router must buffer whole messages (here it
also gets ``B`` flits/step of bandwidth so its budget is comparable).
Claims reproduced:

* cut-through's speedup in ``B`` is at most linear (it behaves like a
  wormhole router with messages of length ``L/B``);
* wormhole + VC speedup is superlinear on deep workloads;
* store-and-forward wins when ``C >> D`` (Section 1.3.2's observation),
  wormhole wins on latency when paths are long and conflicts few.
"""

import numpy as np

from repro import Table, build_hard_instance, simulate
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.sim.batch import run_cut_through_batch
from repro.sim.spec import Workload
from repro.sim.sweep import run_sweep, sweep_grid


def test_e5_fixed_buffer_budget(benchmark, save_table):
    """Same workload, same per-edge buffer budget B across the routers.

    All three routers keep their historical ``seed=0`` (and each its
    constructor-default priority) so the measured makespans match the
    pre-sweep tables exactly.
    """
    BS = (1, 2, 4)
    specs = sweep_grid(
        "chain-bundle",
        ["wormhole", "cut_through", "store_forward"],
        BS,
        workload_params={"chains": 4, "depth": 12, "messages": 8},
        sim_params={"seed": 0},
        message_length=24,
    )

    def measure():
        out = run_sweep(specs)
        spans = {
            (t.spec.simulator, t.spec.B): t.metrics["makespan"] for t in out
        }
        return [
            {
                "B": B,
                "wormhole+VC": spans[("wormhole", B)],
                "cut-through": spans[("cut_through", B)],
                "store&fwd": spans[("store_forward", B)],
            }
            for B in BS
        ]

    rows = benchmark.pedantic(measure, iterations=1, rounds=1)
    table = Table(
        "E5: makespan by router at equal buffer budget (C=8, D=12, L=24)",
        ["B", "wormhole+VC", "cut-through", "store&fwd"],
    )
    for r in rows:
        table.add_row(list(r.values()))
    save_table("e5_router_comparison", table)

    wh = {r["B"]: r["wormhole+VC"] for r in rows}
    ct = {r["B"]: r["cut-through"] for r in rows}
    # Wormhole+VC improves with B at least as fast as cut-through.
    assert wh[4] < wh[1] and ct[4] <= ct[1]
    assert wh[1] / wh[4] >= ct[1] / ct[4] * 0.9
    # Cut-through's gain is at most ~linear in B.
    assert ct[1] / ct[4] <= 4.5
    # At B=1 the two coincide on this workload shape (1-flit buffers).
    assert abs(wh[1] - ct[1]) / wh[1] < 0.35


def test_e5_store_forward_crossover(benchmark, save_table):
    """C >> D: store-and-forward (L(C+D)) beats B=1 wormhole (~LCD);
    long paths with few conflicts: wormhole wins on latency."""

    def measure():
        # Regime 1: hard instance with C >> D.
        inst = build_hard_instance(C=8, D=7, B=1)
        L1 = inst.recommended_length(3.0)
        hard = (inst.network, inst.paths)
        wh1 = simulate(hard, message_length=L1).makespan
        sf1 = simulate(hard, model="store_forward", message_length=L1).makespan
        # Regime 2: one long quiet path.
        net, walks = chain_bundle(1, 16, 1)
        p2 = paths_from_node_walks(net, walks)
        L2 = 32
        wh2 = simulate((net, p2), message_length=L2).makespan
        sf2 = simulate((net, p2), model="store_forward", message_length=L2).makespan
        return {
            "congested (C=8, D=7)": (wh1, sf1),
            "quiet long path": (wh2, sf2),
        }

    data = benchmark.pedantic(measure, iterations=1, rounds=1)
    table = Table(
        "E5b: wormhole vs store-and-forward crossover (B = 1)",
        ["regime", "wormhole", "store&fwd", "winner"],
    )
    for regime, (wh, sf) in data.items():
        table.add_row([regime, wh, sf, "store&fwd" if sf < wh else "wormhole"])
    save_table("e5b_crossover", table)

    wh1, sf1 = data["congested (C=8, D=7)"]
    wh2, sf2 = data["quiet long path"]
    assert sf1 < wh1  # Section 1.3.2: SF wins under heavy congestion
    assert wh2 < sf2  # wormhole's D + L - 1 vs L * D latency win


def _crossing_workload():
    """A trunk worm that blocks mid-route plus per-edge crossing worms.

    The blocked trunk worm's body is the interesting object: in a
    wormhole router it spans ~L edges (every crossing worm behind it
    waits); a cut-through router with B-flit buffers compresses it into
    ~L/B edges — the paper's 'behaves like a worm of length L/B'.
    """
    from repro.network.graph import Network

    net = Network()
    T, L = 12, 8
    nodes = net.add_nodes(range(T + 1))
    trunk = [net.add_edge(nodes[i], nodes[i + 1]) for i in range(T)]
    blk_src = net.add_node("blk")
    e_blk = net.add_edge(blk_src, nodes[T - 1])
    blocker = [e_blk, trunk[T - 1]]
    trunk_worm = trunk[: T - 1]  # blocks wanting trunk[T-1]...
    # Trunk worm takes the whole trunk; it will stall on the last edge.
    trunk_worm = trunk
    crossers = [[e] for e in trunk[: T - 2]]
    paths = [blocker, trunk_worm] + crossers
    release = np.zeros(len(paths), dtype=np.int64)
    release[2:] = T + L  # crossers wake once the trunk worm is parked
    lengths = np.full(len(paths), L, dtype=np.int64)
    lengths[0] = 3 * L  # long blocker keeps the trunk worm stalled
    return net, paths, release, lengths, L


def test_e5c_cut_through_compression(benchmark, save_table):
    """Crossing traffic behind a blocked worm: cut-through's B-flit
    buffers shrink the blocked worm's footprint roughly like L -> L/B."""
    net, paths, release, lengths, L = _crossing_workload()

    def measure():
        # Wormhole B=1: per-message lengths supported directly.
        wh = simulate(
            Workload(net=net, paths=paths, release_times=release),
            message_length=lengths, priority="index",
        )
        bufs = [1, 2, 4, 8]
        cts = run_cut_through_batch(
            net, [list(p) for p in paths], lengths, seeds=[0] * len(bufs),
            buffer_flits=bufs, priority="index", release_times=release,
        )
        return {
            "wormhole B=1": wh,
            **{f"cut-through buf={b}": ct for b, ct in zip(bufs, cts)},
        }

    results = benchmark.pedantic(measure, iterations=1, rounds=1)
    table = Table(
        "E5c: crossing worms behind a blocked trunk worm (T=12, L=8)",
        ["router", "crosser mean completion", "crossers blocked >0 steps"],
    )
    rows = {}
    for name, res in results.items():
        cross_times = res.completion_times[2:]
        blocked = int((res.blocked_steps[2:] > 0).sum())
        rows[name] = (float(np.mean(cross_times)), blocked)
        table.add_row([name, rows[name][0], blocked])
    save_table("e5c_compression", table)

    # The blocked worm's footprint is ceil(L/buf) edges; the crossers on
    # those edges (minus the head's) are exactly the stuck ones.
    for buf in (1, 2, 4, 8):
        footprint = -(-L // buf)
        assert rows[f"cut-through buf={buf}"][1] == footprint - 1
    # buf = 1 cut-through coincides with B = 1 wormhole here.
    assert rows["cut-through buf=1"] == rows["wormhole B=1"]
