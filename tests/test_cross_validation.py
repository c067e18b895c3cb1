"""Cross-simulator consistency: independent engines must agree where the
models coincide.

* Virtual cut-through with 1-flit buffers and the wormhole router at
  ``B = 1`` are the *same model* (exclusive edge ownership, lock-step
  pipeline, strict release) — their makespans must match exactly under
  deterministic arbitration.
* The restricted model at ``B = 1`` is also the same model for a single
  worm per edge, and equals the full model whenever no edge ever hosts
  two messages.
* The Section 3.1 arbitration fast path must agree with the flit-level
  simulator on survivor dynamics (already covered in integration tests;
  here we check the conservation laws of the continuous harness).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Butterfly, simulate
from repro.network.random_networks import chain_bundle, layered_network, random_walk_paths
from repro.routing.paths import paths_from_node_walks


@given(
    st.integers(1, 3),  # chains
    st.integers(1, 5),  # depth
    st.integers(1, 4),  # per chain
    st.integers(1, 7),  # L
)
@settings(max_examples=30, deadline=None)
def test_cut_through_buf1_equals_wormhole_b1(chains, depth, per_chain, L):
    """Same model, two engines: equality of completion times under
    index-priority arbitration on chain workloads."""
    net, walks = chain_bundle(chains, depth, per_chain)
    paths = paths_from_node_walks(net, walks)
    wh = simulate((net, paths), message_length=L, priority="index")
    ct = simulate(
        (net, paths), model="cut_through", message_length=L, priority="index",
    )
    assert np.array_equal(wh.completion_times, ct.completion_times)


def test_cut_through_buf1_equals_wormhole_b1_layered():
    rng = np.random.default_rng(5)
    net = layered_network(6, 5, 2, rng)
    walks = random_walk_paths(net, 6, 5, 40, rng)
    paths = paths_from_node_walks(net, walks)
    L = 6
    wh = simulate((net, paths), message_length=L, priority="index")
    ct = simulate(
        (net, paths), model="cut_through", message_length=L, priority="index",
    )
    assert wh.all_delivered and ct.all_delivered
    assert np.array_equal(wh.completion_times, ct.completion_times)


@given(st.integers(2, 6), st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_all_models_agree_unobstructed(depth, L):
    """A lone worm: every engine reports exactly L + D - 1."""
    net, walks = chain_bundle(1, depth, 1)
    paths = paths_from_node_walks(net, walks)
    expected = L + depth - 1
    for model, B in (("wormhole", 1), ("cut_through", 3), ("restricted", 2)):
        res = simulate((net, paths), model=model, B=B, message_length=L)
        assert res.makespan == expected, model


def test_restricted_b1_equals_full_b1_on_chains():
    """At B = 1 a shared chain serializes identically in both models
    (one message per edge; bandwidth restriction is then irrelevant)."""
    net, walks = chain_bundle(1, 4, 3)
    paths = paths_from_node_walks(net, walks)
    L = 5
    full = simulate((net, paths), message_length=L, priority="index")
    restricted = simulate((net, paths), model="restricted", message_length=L)
    assert full.makespan == restricted.makespan


class TestContinuousConservation:
    def test_message_conservation(self, open_loop):
        """generated == delivered + backlog at every horizon."""
        bf = Butterfly(16)

        def path_of(source, rng):
            return list(bf.path_edges(source, int(rng.integers(16))))

        for rate in (0.05, 0.4):
            (res,), _ = open_loop(bf, 16, [1], rate, 5, path_of, 800, 3)
            assert res.generated == res.delivered + res.final_backlog
            # The last sample (at the horizon) counts the same backlog.
            assert res.backlog_series[-1] == res.final_backlog

    def test_throughput_never_exceeds_generation_rate(self, open_loop):
        bf = Butterfly(16)

        def path_of(source, rng):
            return list(bf.path_edges(source, int(rng.integers(16))))

        (res,), _ = open_loop(bf, 16, [4], 0.1, 4, path_of, 1000, 4)
        assert res.throughput <= res.generated / res.horizon + 1e-12
