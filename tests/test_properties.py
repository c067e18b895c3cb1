"""Property-based tests (hypothesis) on the package's core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    general_lower_bound,
    general_upper_bound,
    virtual_channel_speedup,
)
from repro.core.coloring import (
    MessageEdgeIncidence,
    multiplex_size,
    reduce_multiplex_size,
)
from repro import simulate
from repro.core.lower_bound import max_m_prime
from repro.network.benes import Benes, looping_assignment, waksman_paths
from repro.network.butterfly import Butterfly
from repro.network.hypercube import bit_fixing_path
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

power_of_two = st.sampled_from([2, 4, 8, 16, 32])


@st.composite
def permutation(draw, n=None):
    if n is None:
        n = draw(power_of_two)
    seed = draw(st.integers(0, 2**31 - 1))
    return np.random.default_rng(seed).permutation(n)


# ---------------------------------------------------------------------------
# butterfly path properties
# ---------------------------------------------------------------------------


@given(power_of_two, st.data())
@settings(max_examples=40, deadline=None)
def test_butterfly_greedy_path_reaches_destination(n, data):
    bf = Butterfly(n)
    src = data.draw(st.integers(0, n - 1))
    dst = data.draw(st.integers(0, n - 1))
    cols = bf.path_columns(src, dst)
    assert cols[0] == src
    assert cols[-1] == dst
    # Each step changes at most the level's cross bit.
    for lvl in range(bf.depth):
        diff = int(cols[lvl]) ^ int(cols[lvl + 1])
        assert diff in (0, 1 << bf.cross_bit(lvl))


@given(power_of_two, st.data())
@settings(max_examples=30, deadline=None)
def test_butterfly_edge_ids_invertible(n, data):
    bf = Butterfly(n)
    col = data.draw(st.integers(0, n - 1))
    lvl = data.draw(st.integers(0, bf.depth - 1))
    cross = data.draw(st.booleans())
    e = bf.edge(col, lvl, cross)
    tail, head = bf.edge_endpoints(e)
    assert bf.column_of(tail) == col
    assert bf.level_of(tail) == lvl
    assert bf.level_of(head) == lvl + 1


# ---------------------------------------------------------------------------
# Waksman / looping properties
# ---------------------------------------------------------------------------


@given(permutation())
@settings(max_examples=40, deadline=None)
def test_waksman_paths_always_edge_disjoint(perm):
    n = perm.size
    cols = waksman_paths(perm)
    assert np.array_equal(cols[:, -1], perm)
    edges = Benes(n).columns_to_edges(cols)
    flat = edges.ravel()
    assert np.unique(flat).size == flat.size


@given(st.integers(1, 32).map(lambda k: 2 * k), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_looping_assignment_constraints(n, seed):
    perm = np.random.default_rng(seed).permutation(n)
    sub = looping_assignment(perm)
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    for i in range(0, n, 2):
        assert sub[i] != sub[i + 1]  # input switch
        assert sub[inv[i]] != sub[inv[i + 1]]  # output switch


# ---------------------------------------------------------------------------
# hypercube bit fixing
# ---------------------------------------------------------------------------


@given(st.integers(1, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_bit_fixing_length_is_hamming(dim, data):
    src = data.draw(st.integers(0, (1 << dim) - 1))
    dst = data.draw(st.integers(0, (1 << dim) - 1))
    nodes = bit_fixing_path(src, dst, dim)
    assert nodes[0] == src and nodes[-1] == dst
    assert len(nodes) - 1 == bin(src ^ dst).count("1")
    for a, b in zip(nodes[:-1], nodes[1:]):
        assert bin(a ^ b).count("1") == 1


# ---------------------------------------------------------------------------
# coloring invariants
# ---------------------------------------------------------------------------


@given(
    st.integers(1, 3),  # B
    st.integers(1, 3),  # chains
    st.integers(2, 6),  # depth
    st.integers(1, 8),  # per chain
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_refinement_always_reaches_b(B, chains, depth, per_chain, seed):
    net, walks = chain_bundle(chains, depth, per_chain)
    paths = paths_from_node_walks(net, walks)
    trace = reduce_multiplex_size(
        paths, B=B, rng=np.random.default_rng(seed), mode="direct"
    )
    inc = MessageEdgeIncidence.from_paths(paths)
    assert multiplex_size(inc, trace.colors) <= B
    # Colors are dense.
    assert trace.colors.max() + 1 == trace.num_color_classes


# ---------------------------------------------------------------------------
# wormhole simulator invariants
# ---------------------------------------------------------------------------


@given(
    st.integers(1, 3),  # B
    st.integers(1, 6),  # L
    st.integers(1, 4),  # per chain
    st.integers(2, 5),  # depth
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_wormhole_completion_bounds(B, L, per_chain, depth, seed):
    """Every delivered message takes at least L + D - 1 steps from release,
    and a leveled workload always delivers."""
    net, walks = chain_bundle(2, depth, per_chain)
    paths = paths_from_node_walks(net, walks)
    res = simulate((net, paths), B=B, message_length=L, seed=seed)
    assert res.all_delivered
    assert (res.completion_times >= L + depth - 1).all()
    # Serialization can not exceed full sequentialization.
    assert res.makespan <= len(paths) * (L + depth)


@given(st.integers(1, 4), st.integers(1, 8), st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_wormhole_unobstructed_exact(B, L, depth):
    net, walks = chain_bundle(1, depth, 1)
    paths = paths_from_node_walks(net, walks)
    res = simulate((net, paths), B=B, message_length=L)
    assert res.makespan == L + depth - 1


# ---------------------------------------------------------------------------
# bound function properties
# ---------------------------------------------------------------------------


@given(
    st.integers(1, 512),
    st.integers(1, 256),
    st.integers(1, 256),
    st.integers(1, 6),
)
@settings(max_examples=100, deadline=None)
def test_general_bounds_positive_and_ordered(L, C, D, B):
    up = general_upper_bound(L, C, D, B)
    lo = general_lower_bound(L, C, D, B)
    assert up > 0 and lo > 0
    assert up >= lo


@given(st.integers(2, 4096), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_speedup_at_least_linear(D, B):
    assert virtual_channel_speedup(D, B) >= B * 0.999


@given(st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_max_m_prime_feasible(B, data):
    import math

    D = data.draw(st.integers(B + 1, 500))
    m = max_m_prime(D, B)
    assert m >= B + 1
    assert 2 * math.comb(m - 1, B) - 1 <= D
    assert 2 * math.comb(m, B) - 1 > D
