"""Batch-vs-serial bit-exactness for :func:`repro.sim.batch.run_wormhole_batch`.

The batch engine's contract is that trial ``i`` of a batch is
*bit-identical* to the same driver called with that trial alone — one
seed, the same ``(B, seed)`` — completion times, makespan, executed steps, blocked
counts, deadlock flags, and step-cap flags.  These tests pin that over
the golden-case shapes (priority disciplines, staggered releases,
deadlock rings, VC classes, mixed path lengths) and a randomized
hypothesis sweep over workloads, seeds, and batch compositions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_cases import _layered_workload, _ring, _stagger
from repro.network.graph import Network, NetworkError
from repro.sim.batch import run_wormhole_batch


def _serial(net, paths, L, *, B, seed, priority="random", **kw):
    (res,) = run_wormhole_batch(
        net, paths, L, seeds=[seed], num_virtual_channels=B, priority=priority,
        **kw,
    )
    return res


def _assert_equal(batch_res, serial_res, label=""):
    assert np.array_equal(
        batch_res.completion_times, serial_res.completion_times
    ), label
    assert batch_res.makespan == serial_res.makespan, label
    assert batch_res.steps_executed == serial_res.steps_executed, label
    assert np.array_equal(batch_res.blocked_steps, serial_res.blocked_steps), label
    assert batch_res.deadlocked == serial_res.deadlocked, label
    assert batch_res.hit_step_cap == serial_res.hit_step_cap, label


def _check_batch(net, paths, L, trials, priority="random", **kw):
    """Run one batch of (B, seed) trials and compare each against serial."""
    Bs = [B for B, _ in trials]
    seeds = [s for _, s in trials]
    batch = run_wormhole_batch(
        net, paths, L, seeds=seeds, num_virtual_channels=Bs,
        priority=priority, **kw,
    )
    assert len(batch) == len(trials)
    for res, (B, seed) in zip(batch, trials):
        serial = _serial(net, paths, L, B=B, seed=seed, priority=priority, **kw)
        _assert_equal(res, serial, f"B={B} seed={seed} priority={priority}")
    return batch


@pytest.fixture(scope="module")
def layered():
    return _layered_workload()


@pytest.mark.parametrize("priority", ["random", "age", "index", "rank"])
def test_priorities_mixed_B_and_seeds(layered, priority):
    net, paths = layered
    trials = [(B, seed) for B in (1, 2, 4) for seed in (9, 17)]
    _check_batch(net, paths, 8, trials, priority=priority)


def test_staggered_releases(layered):
    net, paths = layered
    release = _stagger(len(paths))
    _check_batch(
        net, paths, 6, [(1, 4), (2, 4), (2, 11)], release_times=release
    )


def test_deadlock_ring_mixed_with_live_trials():
    net, _, paths = _ring(4)
    batch = _check_batch(net, paths, 3, [(1, 0), (4, 0)], priority="index")
    # B < 4 on the 4-ring deadlocks (every worm wraps the whole cycle);
    # the co-batched B=4 trial must not be dragged down, nor keep the
    # dead trial alive.
    assert batch[0].deadlocked
    assert not batch[1].deadlocked and batch[1].all_delivered


def test_vc_classes_dateline_mixed_B():
    k = 6
    net, _, paths = _ring(k)
    dateline = []
    for path in paths:
        vcs, crossed = [], False
        for e in path:
            vcs.append(1 if crossed else 0)
            if e == k - 1:
                crossed = True
        dateline.append(vcs)
    batch = _check_batch(
        net, paths, 4, [(2, 0), (3, 0), (2, 5)],
        priority="index", vc_ids=dateline,
    )
    assert all(res.all_delivered for res in batch)


def test_mixed_path_lengths_and_trivial_messages():
    net = Network()
    nodes = net.add_nodes(range(6))
    edges = [net.add_edge(nodes[i], nodes[i + 1]) for i in range(5)]
    paths = [edges[:5], edges[:1], [], edges[1:4], edges[2:3]]
    L = np.array([4, 2, 3, 5, 1], dtype=np.int64)
    _check_batch(net, paths, L, [(1, 3), (2, 3), (1, 8)])


def test_step_cap_shared_across_batch():
    net, _, paths = _ring(5)
    batch = _check_batch(
        net, paths, 4, [(1, 2), (2, 2), (3, 2)], max_steps=4
    )
    assert any(res.hit_step_cap or res.deadlocked for res in batch)


def test_idle_trial_whose_release_exceeds_the_cap(layered):
    """Serial jumps the clock past the cap; the batch must finalize alike."""
    net, paths = layered
    release = np.full(len(paths), 100, dtype=np.int64)
    # One pathological trial alone, and one co-batched with live work.
    _check_batch(net, paths, 6, [(2, 1)], release_times=release, max_steps=50)
    _check_batch(
        net, paths, 6, [(2, 1), (1, 3)], release_times=release, max_steps=50
    )


def test_empty_workload(layered):
    net, _ = layered
    out = run_wormhole_batch(net, [], 8, seeds=[0, 1])
    assert len(out) == 2
    for res in out:
        assert res.num_messages == 0 and res.makespan == -1


def test_batch_of_one_and_repeatability(layered):
    net, paths = layered
    a = _check_batch(net, paths, 8, [(2, 42)])
    b = run_wormhole_batch(net, paths, 8, seeds=[42], num_virtual_channels=2)
    _assert_equal(a[0], b[0], "repeat determinism")


def test_validation_errors(layered):
    net, paths = layered
    with pytest.raises(NetworkError, match="virtual channel"):
        run_wormhole_batch(net, paths, 8, seeds=[0], num_virtual_channels=0)
    with pytest.raises(NetworkError, match="virtual channel"):
        run_wormhole_batch(net, paths, 8, seeds=[0, 1], num_virtual_channels=[2, -1])
    with pytest.raises(NetworkError, match="priority"):
        run_wormhole_batch(net, paths, 8, seeds=[0], priority="nope")
    with pytest.raises(NetworkError, match="length L"):
        run_wormhole_batch(net, paths, 0, seeds=[0])
    with pytest.raises(NetworkError, match="seeds"):
        run_wormhole_batch(net, paths, 8, seeds=[])
    with pytest.raises(NetworkError, match="one entry per trial"):
        run_wormhole_batch(
            net, paths, 8, seeds=[0, 1], num_virtual_channels=[1, 2, 3]
        )
    with pytest.raises(NetworkError, match="message_length"):
        run_wormhole_batch(
            net, paths, np.arange(1, len(paths) + 2), seeds=[0]
        )


def test_validation_errors_are_valueerrors(layered):
    """Up-front validation surfaces as ValueError (NetworkError subclasses
    it), never as a deep engine/numpy shape error."""
    net, paths = layered
    for kwargs in (
        dict(seeds=[]),
        dict(seeds=[0], num_virtual_channels=0),
        dict(seeds=[0, 1], num_virtual_channels=[1, 2, 3]),
    ):
        with pytest.raises(ValueError):
            run_wormhole_batch(net, paths, 8, **kwargs)


# ----------------------------------------------------------------------
# Randomized equivalence sweep
# ----------------------------------------------------------------------


def _line_net(num_edges):
    net = Network()
    nodes = net.add_nodes(range(num_edges + 1))
    edges = [
        net.add_edge(nodes[i], nodes[i + 1]) for i in range(num_edges)
    ]
    return net, edges


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_workloads_match_serial(data):
    num_edges = data.draw(st.integers(2, 8), label="edges")
    net, edges = _line_net(num_edges)
    M = data.draw(st.integers(1, 7), label="messages")
    paths = []
    for _ in range(M):
        a = data.draw(st.integers(0, num_edges - 1))
        b = data.draw(st.integers(a, num_edges))
        paths.append(edges[a:b])
    L = data.draw(st.integers(1, 6), label="L")
    T = data.draw(st.integers(1, 5), label="batch")
    trials = [
        (data.draw(st.integers(1, 3)), data.draw(st.integers(0, 999)))
        for _ in range(T)
    ]
    priority = data.draw(
        st.sampled_from(["random", "age", "index", "rank"]), label="priority"
    )
    release = np.array(
        [data.draw(st.integers(0, 12)) for _ in range(M)], dtype=np.int64
    )
    max_steps = data.draw(
        st.one_of(st.none(), st.integers(1, 30)), label="cap"
    )
    _check_batch(
        net, paths, L, trials,
        priority=priority, release_times=release, max_steps=max_steps,
    )
