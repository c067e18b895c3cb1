"""Forced rounds cost no body call (MODEL.md section 3, DESIGN decision 6).

A wormhole round in which every requester's slot is full grants nothing.
Until a drainer's window frees one of those slots, a drainer completes,
a message is released or a step cap falls due, every following round is
the same round again, so ``WormholeKernel.body`` applies the whole span
in one update and the loop advances its clock by it.

These tests pin that the coast happens and that it changes nothing:

* on perfbench's ``chain-bundle{4,12,8}`` at ``L = 24`` at most 55 % of
  the steps cost a body call, alone and in a 128-wide batch;
* the kernel equals the three references of ``tests/reference_simulator.py``
  — per-flit, per-message (random and rank priorities, VC classes, mixed
  ``B``) and queued (releases, injection queues) — on problems whose
  ``L`` is at least twice every path and longer than the run has
  completions, so every example coasts at least once (asserted), with
  one grant scan per round that had a contender, coasted rounds included;
* a batch whose span consumes more draws than ``_RandomBlock`` buffers
  still equals its single runs, which leave their generators exactly
  where per-round draws would;
* three ends of a span that random problems seldom reach are built by
  hand: a seat freed by the very step that would start it, a batch
  trial with contenders but no drainer (left to the deadlock rule), and
  a step cap inside it.
"""

import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_cases import _line
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.sim import fastpath, kernels
from repro.sim.batch import run_wormhole_batch
from repro.sim.kernels import WormholeKernel

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from reference_simulator import (  # noqa: E402
    reference_message_run,
    reference_queued_run,
    reference_run,
)


@contextmanager
def _recording():
    """``(body_calls, spans, scans)``: the steps ``body`` was called at,
    the length of every span a coast applied and the number of
    ``fastpath.segmented_grant`` calls, while the block runs."""
    calls, spans, scans = [], [], []
    body, coast = WormholeKernel.body, WormholeKernel._coast
    scan = fastpath.segmented_grant

    def counted(self, t, active):
        calls.append(t)
        return body(self, t, active)

    def spied(self, t, cp, ckeys):
        coast(self, t, cp, ckeys)
        if self.state.coasted:
            spans.append(self.state.coasted)

    def scanned(*args):
        scans.append(args[0].size)
        return scan(*args)

    WormholeKernel.body, WormholeKernel._coast = counted, spied
    fastpath.segmented_grant = scanned
    try:
        yield calls, spans, scans
    finally:
        WormholeKernel.body, WormholeKernel._coast = body, coast
        fastpath.segmented_grant = scan


@pytest.mark.parametrize("T", [1, 128])
@pytest.mark.parametrize("B", [1, 2, 4])
def test_forced_rounds_cost_no_body_call(B, T):
    net, walks = chain_bundle(4, 12, 8)
    paths = paths_from_node_walks(net, walks)
    with _recording() as (calls, spans, _):
        rows = run_wormhole_batch(
            net, paths, 24, seeds=range(T), num_virtual_channels=B
        )
    steps = max(row.steps_executed for row in rows)
    assert all(row.all_delivered for row in rows)
    assert len(calls) + sum(spans) == steps
    if T == 1:
        assert len(calls) <= 0.55 * steps
    else:
        assert len(calls) < steps


def _line_problem(draw, *, T=1, per_message_L=False):
    """Routes on a directed line (no deadlock), releases, and an ``L`` of
    at least twice the longest path and ``T * M + 2``: after the last
    grant the run holds at most ``T * M - 1`` other completions in the
    ``L - 2`` steps before the last drainer's, so some step coasts."""
    n = draw(st.integers(2, 5))
    net, edges = _line(n)
    M = draw(st.integers(1, 5))
    paths = []
    for _ in range(M):
        start = draw(st.integers(0, n - 1))
        length = draw(st.integers(1, n - start))
        paths.append(edges[start : start + length])
    least = max(2 * max(map(len, paths)), T * M + 2)
    size = M if per_message_L else None
    L = draw(st.lists(st.integers(least, least + 6), min_size=size or 1,
                      max_size=size or 1))
    L = np.asarray(L) if per_message_L else L[0]
    release = np.sort(draw(st.lists(st.integers(0, 8), min_size=M, max_size=M)))
    return net, paths, L, release


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coasting_kernel_matches_the_per_flit_reference(data):
    net, paths, L, release = _line_problem(data.draw)
    B = data.draw(st.integers(1, 3))
    with _recording() as (_, spans, _):
        (res,) = run_wormhole_batch(
            net, paths, L, seeds=[0], num_virtual_channels=B,
            priority="index", release_times=release,
        )
    assert spans, "no span coasted"
    ref = reference_run(paths, L, B, release, 2000)
    assert res.completion_times.tolist() == list(ref)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coasting_kernel_matches_the_message_reference(data):
    """Random and rank priorities, optional VC classes, a mixed-``B``
    batch: every row equals the per-message reference, and a lone
    trial's continuing generator ends where the reference's does."""
    T = data.draw(st.integers(1, 3))
    net, paths, L, release = _line_problem(data.draw, T=T, per_message_L=True)
    Bs = data.draw(st.lists(st.integers(1, 3), min_size=T, max_size=T))
    priority = data.draw(st.sampled_from(["random", "rank"]))
    vc_ids = None
    if data.draw(st.booleans()):
        vc_ids = [[(m + i) % min(Bs) for i in range(len(p))]
                  for m, p in enumerate(paths)]
    seeds = [data.draw(st.integers(0, 2**16)) + i for i in range(T)]
    streams = [np.random.default_rng(s) for s in seeds]
    kw = dict(priority=priority, release_times=release, vc_ids=vc_ids)
    with _recording() as (_, spans, scans):
        rows = run_wormhole_batch(
            net, paths, L, seeds=streams if T == 1 else seeds,
            num_virtual_channels=Bs, **kw,
        )
    assert spans, "no span coasted"
    rounds = set()
    for row, B, seed, stream in zip(rows, Bs, seeds, streams):
        rng = np.random.default_rng(seed)
        completion, blocked, timeline = reference_message_run(
            paths, L, B, release, rng, priority, vc_ids, max_steps=2000
        )
        assert row.completion_times.tolist() == completion
        assert row.blocked_steps.tolist() == blocked
        if T == 1:
            assert stream.bit_generator.state == rng.bit_generator.state
        rounds |= set(timeline)
    # One grant scan per step in which some trial had a contender,
    # coasted rounds included (perfbench's goldens pin this count).
    assert len(scans) == len(rounds)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coasting_kernel_matches_the_queued_reference(data):
    """Injection queues and releases: the queue gates are static inside
    a span, so queued runs coast too."""
    net, paths, L, release = _line_problem(data.draw)
    release += 1  # the reference's first arrivals are at step 1
    M = len(paths)
    sources = data.draw(st.lists(st.integers(0, 2), min_size=M, max_size=M))
    B = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**16))
    stream = np.random.default_rng(seed)
    with _recording() as (_, spans, _):
        (res,) = run_wormhole_batch(
            net, paths, L, seeds=[stream], num_virtual_channels=B,
            priority="random", release_times=release, sources=sources,
        )
    assert spans, "no span coasted"
    trace: dict = {}
    for m in range(M):  # releases are sorted: arrival order is index order
        trace.setdefault(int(release[m]), []).append((sources[m], paths[m]))
    rng = np.random.default_rng(seed)
    ref = reference_queued_run(
        net.num_edges, 3, B, L, lambda t: trace.get(t, []), res.makespan, rng
    )
    assert res.completion_times.tolist() == ref.completion.tolist()
    assert stream.bit_generator.state == rng.bit_generator.state


def test_a_span_beyond_the_random_block_stays_exact(monkeypatch):
    """Twenty worms queue for one edge at ``L = 200``: one span of a
    mixed-``B`` batch skips more draws than a trial's buffered block
    holds, and every row still equals its single run, whose generator
    ends exactly ``Σ path edges + blocked steps`` draws on."""
    skipped = []
    skip = kernels._RandomBlock.skip

    def spied(self, counts):
        skipped.append((int(counts.max()), self.block))
        skip(self, counts)

    monkeypatch.setattr(kernels._RandomBlock, "skip", spied)
    net, edges = _line(3)
    paths = [edges] * 20
    Bs, seeds = [1, 2, 3], [5, 6, 7]
    batch = run_wormhole_batch(
        net, paths, 200, seeds=seeds, num_virtual_channels=Bs
    )
    assert any(n > block for n, block in skipped), skipped
    for row, B, seed in zip(batch, Bs, seeds):
        stream = np.random.default_rng(seed)
        (alone,) = run_wormhole_batch(
            net, paths, 200, seeds=[stream], num_virtual_channels=B
        )
        assert row.completion_times.tolist() == alone.completion_times.tolist()
        assert row.blocked_steps.tolist() == alone.blocked_steps.tolist()
        assert row.steps_executed == alone.steps_executed
        rng = np.random.default_rng(seed)
        rng.random(3 * len(paths) + alone.total_blocked_steps)
        assert stream.bit_generator.state == rng.bit_generator.state


def test_a_seat_freed_by_the_step_itself_ends_the_span():
    """Step 7 grants nothing, and in it worm 0's tail leaves edge 0, the
    edge worm 1 waits for: worm 1 must be granted at step 8, so no span
    may start at step 7.  (A span that reaches step 7 ends there by the
    freeing rule; the grant at step 6 makes step 7 a body call.)"""
    net, edges = _line(4)
    paths = [edges[:3], edges[:1], edges[3:]]
    release = [0, 0, 5]
    with _recording() as (calls, _, _):
        (res,) = run_wormhole_batch(
            net, paths, 6, seeds=[0], priority="index", release_times=release
        )
    assert 7 in calls
    assert res.completion_times.tolist() == list(
        reference_run(paths, 6, 1, release)
    )
    assert res.completion_times[1] == 7 + 6


def _cycle_with_a_tail():
    """Four 2-hop worms around a 4-ring (a cyclic wait at B = 1) and
    worm 4 alone on a spur edge, which drains until step 5."""
    from repro.network.graph import Network

    net = Network()
    nodes = net.add_nodes(range(5))
    ring = [net.add_edge(nodes[i], nodes[(i + 1) % 4]) for i in range(4)]
    spur = net.add_edge(nodes[0], nodes[4])
    paths = [[ring[i], ring[(i + 1) % 4]] for i in range(4)] + [[spur]]
    return net, paths, np.array([10, 10, 10, 10, 5])


def test_a_trial_with_no_drainer_stops_the_span():
    """At B = 1 the ring worms wait on each other from step 2 while
    worm 4 drains, so the trial deadlocks at step 6, the step after
    worm 4 completes.  In a batch with a B = 2 trial, which is still
    draining then, step 6 grants nothing anywhere; the span must wait
    for the loop's deadlock rule, as the trial alone does."""
    net, paths, L = _cycle_with_a_tail()
    batch = run_wormhole_batch(
        net, paths, L, seeds=[0, 1], num_virtual_channels=[1, 2],
        priority="index",
    )
    for row, B, seed in zip(batch, [1, 2], [0, 1]):
        (alone,) = run_wormhole_batch(
            net, paths, L, seeds=[seed], num_virtual_channels=B,
            priority="index",
        )
        assert row.completion_times.tolist() == alone.completion_times.tolist()
        assert row.blocked_steps.tolist() == alone.blocked_steps.tolist()
        assert (row.steps_executed, row.deadlocked) == (
            alone.steps_executed, alone.deadlocked
        )
    stuck, clean = batch
    assert stuck.deadlocked and stuck.steps_executed == 6
    assert stuck.blocked_steps.tolist() == [5, 5, 5, 5, 0]
    assert not clean.deadlocked and clean.makespan == 11


@pytest.mark.parametrize("Bs", [[1], [1, 2]])
def test_a_step_cap_inside_a_span_ends_it_there(Bs):
    """Three long worms share two edges, so most steps are forced; at
    every cap the run stops exactly there, with the blocked counts and
    completions the per-message reference has after that many steps."""
    net, edges = _line(2)
    paths = [edges] * 3
    L, release = np.array([9, 9, 9]), np.zeros(3, dtype=np.int64)
    seeds = list(range(len(Bs)))
    full = run_wormhole_batch(net, paths, L, seeds=seeds, num_virtual_channels=Bs)
    for cap in range(1, max(row.steps_executed for row in full)):
        rows = run_wormhole_batch(
            net, paths, L, seeds=seeds, num_virtual_channels=Bs, max_steps=cap
        )
        for row, B, seed in zip(rows, Bs, seeds):
            completion, blocked, _ = reference_message_run(
                paths, L, B, release, np.random.default_rng(seed), "random",
                max_steps=cap,
            )
            assert row.completion_times.tolist() == completion, cap
            assert row.blocked_steps.tolist() == blocked, cap
            assert row.hit_step_cap == (min(completion) < 0), cap
            if row.hit_step_cap:
                assert row.steps_executed == cap
