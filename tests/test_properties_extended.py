"""Extended property-based tests for the newer subsystems."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import simulate
from repro.network.mesh import KAryNCube
from repro.network.multibutterfly import Multibutterfly
from repro.routing.decompose import decompose_q_relation
from repro.routing.problems import RoutingInstance, random_q_relation
from repro.sim.spec import Workload


# ---------------------------------------------------------------------------
# adaptive mesh routing
# ---------------------------------------------------------------------------


@given(
    st.sampled_from(["dimension", "west-first"]),
    st.integers(3, 6),  # k
    st.integers(1, 20),  # demands
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_restricted_adaptive_policies_always_deliver(policy, k, n_dem, seed):
    """Turn-model / XY routing never deadlocks, whatever the workload."""
    mesh = KAryNCube(k=k, n=2, wrap=False)
    rng = np.random.default_rng(seed)
    N = mesh.num_nodes
    demands = [(int(rng.integers(N)), int(rng.integers(N))) for _ in range(n_dem)]
    out = simulate(
        (mesh, demands), model="adaptive", message_length=4, policy=policy,
        seed=seed,
    )
    assert out.all_delivered
    assert not out.result.deadlocked


@given(st.integers(3, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_adaptive_latency_floor(k, seed):
    """No adaptive route beats the Manhattan-distance floor."""
    mesh = KAryNCube(k=k, n=2, wrap=False)
    rng = np.random.default_rng(seed)
    N = mesh.num_nodes
    L = 3
    demands = [(int(rng.integers(N)), int(rng.integers(N))) for _ in range(8)]
    out = simulate(
        (mesh, demands), model="adaptive", B=2, message_length=L,
        policy="west-first", seed=seed,
    )
    for (s, d), t in zip(demands, out.result.completion_times):
        cs, cd = mesh.coords(s), mesh.coords(d)
        dist = sum(abs(a - b) for a, b in zip(cs, cd))
        floor = L + dist - 1 if dist else 0
        assert t >= floor


# ---------------------------------------------------------------------------
# q-relation decomposition
# ---------------------------------------------------------------------------


@given(
    st.sampled_from([4, 8, 16]),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_decompose_regular_relations(n, q, seed):
    inst = random_q_relation(n, q, np.random.default_rng(seed))
    batches = decompose_q_relation(inst)
    assert len(batches) == q
    # Every batch is a permutation and the union covers the demands.
    for perm in batches:
        assert np.array_equal(np.sort(perm), np.arange(n))
    want: dict = {}
    for s, d in zip(inst.sources, inst.dests):
        want[(int(s), int(d))] = want.get((int(s), int(d)), 0) + 1
    got: dict = {}
    for perm in batches:
        for s in range(n):
            key = (s, int(perm[s]))
            if key in want and got.get(key, 0) < want[key]:
                got[key] = got.get(key, 0) + 1
    assert got == want


@given(st.integers(2, 8), st.integers(5, 30), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_decompose_irregular_relations(n, m, seed):
    """Arbitrary demand multisets decompose within 2q+4 batches."""
    rng = np.random.default_rng(seed)
    inst = RoutingInstance(
        n,
        rng.integers(0, n, size=m).astype(np.int64),
        rng.integers(0, n, size=m).astype(np.int64),
    )
    q = max(inst.max_per_source(), inst.max_per_dest())
    batches = decompose_q_relation(inst)
    assert len(batches) <= 2 * q + 4


# ---------------------------------------------------------------------------
# multibutterfly candidates
# ---------------------------------------------------------------------------


@given(
    st.sampled_from([8, 16, 32]),
    st.integers(1, 3),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_multibutterfly_any_candidate_walk_reaches_dest(n, d, seed):
    mbf = Multibutterfly(n, d=d, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for _ in range(5):
        src = int(rng.integers(n))
        dst = int(rng.integers(n))
        node = src
        for _lvl in range(mbf.log_n):
            edges = mbf.candidate_edges(node, dst)
            assert len(edges) == d
            node = mbf.network.head(edges[int(rng.integers(d))])
        assert node == mbf.output_of(dst)


# ---------------------------------------------------------------------------
# VC classes
# ---------------------------------------------------------------------------


@given(st.sampled_from([3, 4, 5, 6]), st.integers(2, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_dateline_ring_always_delivers(k, L, seed):
    """Around-the-ring worms with dateline classes: never deadlock."""
    from repro.network.graph import Network

    net = Network()
    nodes = net.add_nodes(range(k))
    edges = [net.add_edge(nodes[i], nodes[(i + 1) % k]) for i in range(k)]
    paths = [[edges[(s + j) % k] for j in range(k)] for s in range(k)]
    vcs = []
    for path in paths:
        crossed = False
        row = []
        for e in path:
            row.append(1 if crossed else 0)
            if e == k - 1:
                crossed = True
        vcs.append(row)
    res = simulate(
        Workload(net=net, paths=paths, vc_ids=vcs),
        B=2, message_length=L, seed=seed,
    )
    assert res.all_delivered
    assert not res.deadlocked
