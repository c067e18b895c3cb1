"""Forced rounds and quiet spans cost no body call (MODEL.md sections 3
and 8, DESIGN decision 6).

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

A cut-through step in which no header claims an edge and no message is
delivered only moves flits under fixed ownership, and so does every
step after it until a wanted edge is freed, a message is delivered, a
release or cap falls due or a trial stops moving;
``CutThroughKernel.body`` applies that span in one update too:

* on the same ``chain-bundle`` at most 55 % of the steps cost a body
  call, alone and in a 128-wide batch;
* the kernel equals ``reference_cut_through_run``, a per-flit simulator
  that shares no code with it, on line and ring problems whose ``L`` is
  at least twice every path, so every example coasts (asserted): index
  and random priorities, staggered releases, deadlocks, ``T = 1``, small
  mixed-``B`` batches and a 128-wide batch (``hi * M >= 512``);
* each end of a span is built by hand: a wanted edge freed inside it, a
  delivery, a release, a step cap, a trial that compresses into
  deadlock (at the step the probes-on run, which does not coast, finds)
  and a finalized trial below ``hi``, whose state stays frozen; and so
  is a span that no wanted edge ends, because its owner compresses
  below ``L`` or let it go before.
"""

import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_cases import _line, _ring
from repro.network.random_networks import chain_bundle
from repro.routing.paths import paths_from_node_walks
from repro.sim import fastpath, kernels
from repro.sim.batch import run_cut_through_batch, run_wormhole_batch
from repro.sim.kernels import CutThroughKernel, WormholeKernel
from repro.telemetry.probe import Probe

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from reference_simulator import (  # noqa: E402
    reference_cut_through_run,
    reference_message_run,
    reference_queued_run,
    reference_run,
)


@contextmanager
def _recording(kernel=WormholeKernel):
    """``(body_calls, spans, scans)``: the steps ``kernel.body`` was
    called at, the length of every span a coast applied and the number
    of ``fastpath.segmented_grant`` calls, while the block runs."""
    calls, spans, scans = [], [], []
    body, coast = kernel.body, kernel._coast
    scan = fastpath.segmented_grant

    def counted(self, t, active):
        calls.append(t)
        return body(self, t, active)

    def spied(self, t, *args):
        coast(self, t, *args)
        if self.state.coasted:
            spans.append(self.state.coasted)

    def scanned(*args):
        scans.append(args[0].size)
        return scan(*args)

    kernel.body, kernel._coast = counted, spied
    fastpath.segmented_grant = scanned
    try:
        yield calls, spans, scans
    finally:
        kernel.body, kernel._coast = body, coast
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


# ----------------------------------------------------------------------
# Cut-through: quiet spans (MODEL.md section 8)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("T", [1, 128])
@pytest.mark.parametrize("B", [1, 2, 4])
def test_quiet_cut_through_steps_cost_no_body_call(B, T):
    net, walks = chain_bundle(4, 12, 8)
    paths = paths_from_node_walks(net, walks)
    with _recording(CutThroughKernel) as (calls, spans, _):
        rows = run_cut_through_batch(
            net, paths, 24, seeds=range(T), buffer_flits=B
        )
    steps = max(row.steps_executed for row in rows)
    assert all(row.all_delivered for row in rows)
    assert len(calls) + sum(spans) == steps
    assert len(calls) <= 0.55 * steps


def _cut_through_problem(draw, *, T, min_M=1):
    """Line or ring routes and an ``L`` of at least twice the longest
    path and ``T * M + 2``: after the last claim the run holds at most
    ``T * M - 1`` other deliveries while the last claimer drains, so
    some step coasts.  A ring may deadlock, so its worms are released
    together and ``B >= 2`` lets them compress (and coast) first."""
    ring = draw(st.booleans())
    n = draw(st.integers(2, 5))
    net, edges = (_ring(n) if ring else _line(n))[:2]
    M = draw(st.integers(min_M, 5))
    paths = []
    for _ in range(M):
        start = draw(st.integers(0, n - 1))
        length = draw(st.integers(1, n if ring else n - start))
        paths.append([edges[(start + j) % n] for j in range(length)])
    least = max(2 * max(map(len, paths)), T * M + 2)
    L = np.asarray(
        draw(st.lists(st.integers(least, least + 6), min_size=M, max_size=M))
    )
    release = np.zeros(M, dtype=np.int64) if ring else np.sort(
        draw(st.lists(st.integers(0, 8), min_size=M, max_size=M))
    )
    Bs = draw(st.lists(st.integers(2 if ring else 1, 3), min_size=T, max_size=T))
    return net, paths, L, release, Bs


def _assert_reference(row, paths, L, B, release, seed, priority):
    completion, blocked, deadlocked = reference_cut_through_run(
        paths, L, B, release, np.random.default_rng(seed), priority,
        max_steps=2000,
    )
    assert row.completion_times.tolist() == completion
    assert row.blocked_steps.tolist() == blocked
    assert row.deadlocked == deadlocked


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coasting_cut_through_matches_the_per_flit_reference(data):
    T = data.draw(st.integers(1, 3))
    net, paths, L, release, Bs = _cut_through_problem(data.draw, T=T)
    priority = data.draw(st.sampled_from(["random", "index"]))
    seeds = [data.draw(st.integers(0, 2**16)) + i for i in range(T)]
    with _recording(CutThroughKernel) as (_, spans, _):
        rows = run_cut_through_batch(
            net, paths, L, seeds=seeds, buffer_flits=Bs, priority=priority,
            release_times=release,
        )
    assert spans, "no span coasted"
    for row, B, seed in zip(rows, Bs, seeds):
        _assert_reference(row, paths, L, B, release, seed, priority)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_a_wide_cut_through_batch_matches_the_reference(data):
    """128 trials of at least four messages: ``hi * M >= 512`` from the
    first step, so the body's and the coast's wide-batch scans run.
    Index priority makes trials of one ``B`` alike, so three ``B`` give
    three runs to check, and ``L`` is drawn for three trials."""
    net, paths, L, release, Bs = _cut_through_problem(data.draw, T=3, min_M=4)
    Bs = [Bs[i % 3] for i in range(128)]
    with _recording(CutThroughKernel) as (_, spans, _):
        rows = run_cut_through_batch(
            net, paths, L, seeds=range(128), buffer_flits=Bs,
            priority="index", release_times=release,
        )
    assert spans, "no span coasted"
    for i, (row, B) in enumerate(zip(rows, Bs)):
        if i < 3:
            _assert_reference(row, paths, L, B, release, i, "index")
        else:
            assert row.completion_times.tolist() == rows[i % 3].completion_times.tolist()
            assert row.blocked_steps.tolist() == rows[i % 3].blocked_steps.tolist()


def _cut_through_calls(paths, L, release, **kw):
    net = _line(3)[0]
    with _recording(CutThroughKernel) as (calls, spans, _):
        (res,) = run_cut_through_batch(
            net, paths, L, seeds=[0], priority="index", release_times=release,
            **kw,
        )
    _assert_reference(res, paths, L, kw.get("buffer_flits", 1), release, 0, "index")
    return res, calls, spans


def test_a_wanted_edge_freed_inside_a_span_ends_it():
    """Worm 1 waits for edge 0, which worm 0 frees at step 9, when its
    eighth flit crosses edge 1: the span that starts after step 4 (the
    first step with no claim) ends there, and worm 1 claims at step 10."""
    _, edges = _line(3)
    res, calls, spans = _cut_through_calls([edges, edges[:1]], 8, [0, 0])
    assert 4 in calls and not set(range(5, 10)) & set(calls)
    assert 10 in calls and spans[0] == 5
    assert res.completion_times.tolist() == [10, 17]


def test_a_delivery_ends_a_span():
    """Two one-edge worms: after the claims of step 1, nothing but
    flits moves until worm 0 is delivered at step 6."""
    _, edges = _line(3)
    res, calls, spans = _cut_through_calls([edges[:1], edges[1:2]], [6, 9], [0, 0])
    assert calls[:2] == [1, 2] and spans[0] == 4 and 7 in calls
    assert res.completion_times.tolist() == [6, 9]


def test_a_release_ends_a_span():
    """Worm 1 is released at step 5 and claims at step 6: the span
    after step 2 stops at step 5."""
    _, edges = _line(3)
    res, calls, spans = _cut_through_calls([edges[:1], edges[1:2]], 10, [0, 5])
    assert calls[:3] == [1, 2, 6] and spans[0] == 3
    assert res.completion_times.tolist() == [10, 15]


def test_edges_no_one_can_take_do_not_end_a_span():
    """Worm 0 drains edge 2 until step 40.  Worm 1 waits for it from
    step 3 at its fixed point: edge 0 was freed when its tail left
    (step 3), but edge 1 it can never free.  Worm 2 takes edge 0 at
    step 4, compresses below ``L`` waiting for edge 1, and so never
    frees edge 0, which worm 3 waits for.  From step 5 nothing can be
    claimed before worm 0's delivery: one span covers steps 6 to 40."""
    _, edges = _line(3)
    paths = [edges[2:], edges, edges[:2], edges[:1]]
    res, calls, spans = _cut_through_calls(
        paths, [40, 2, 4, 4], [0, 0, 0, 0], buffer_flits=2
    )
    assert calls[:6] == [1, 2, 3, 4, 5, 41] and spans[0] == 35
    assert res.completion_times.tolist() == [40, 42, 46, 50]


@pytest.mark.parametrize("Bs", [[1], [1, 2]])
def test_a_step_cap_inside_a_cut_through_span_ends_it_there(Bs):
    """Three long worms queue on a two-edge line: at every cap the run
    stops exactly there, with the reference's completions and blocked
    counts after that many steps."""
    net, edges = _line(2)
    paths, L, release = [edges] * 3, np.array([9, 9, 9]), np.zeros(3, dtype=int)
    seeds = list(range(len(Bs)))
    full = run_cut_through_batch(net, paths, L, seeds=seeds, buffer_flits=Bs)
    for cap in range(1, max(row.steps_executed for row in full)):
        rows = run_cut_through_batch(
            net, paths, L, seeds=seeds, buffer_flits=Bs, max_steps=cap
        )
        for row, B, seed in zip(rows, Bs, seeds):
            completion, blocked, _ = reference_cut_through_run(
                paths, L, B, release, np.random.default_rng(seed), "random",
                max_steps=cap,
            )
            assert row.completion_times.tolist() == completion, cap
            assert row.blocked_steps.tolist() == blocked, cap
            assert row.hit_step_cap == (min(completion) < 0), cap
            if row.hit_step_cap:
                assert row.steps_executed == cap


def _pinwheel():
    """Three four-hop worms on a 6-ring, each waiting for the first
    edge of the next after claiming two: a cyclic wait they compress
    into, unless ``B >= L`` lets a worm's last flit off its first edge."""
    net, edges = _ring(6)[:2]
    paths = [[edges[(2 * i + j) % 6] for j in range(4)] for i in range(3)]
    return net, paths


def test_a_trial_that_compresses_into_deadlock_stops_where_probes_see_it():
    """The worms compress for several steps after their last claim; the
    coasted run is declared deadlocked at the step the probes-on run
    (which never coasts) finds, with the same blocked counts."""
    net, paths = _pinwheel()
    with _recording(CutThroughKernel) as (_, spans, _):
        (res,) = run_cut_through_batch(
            net, paths, 12, seeds=[0], buffer_flits=3, priority="index"
        )
    assert spans and sum(spans) >= 3
    with _recording(CutThroughKernel) as (calls, probed, _):
        (seen,) = run_cut_through_batch(
            net, paths, 12, seeds=[0], buffer_flits=3, priority="index",
            telemetry=Probe(),
        )
    assert not probed and len(calls) == seen.steps_executed
    assert res.deadlocked and seen.deadlocked
    assert res.steps_executed == seen.steps_executed
    assert res.blocked_steps.tolist() == seen.blocked_steps.tolist()
    assert res.completion_times.tolist() == seen.completion_times.tolist()
    _assert_reference(res, paths, 12, 3, np.zeros(3, dtype=int), 0, "index")


def test_a_finalized_trial_below_hi_stays_frozen():
    """At ``B = 1`` the pinwheel deadlocks while its worms still own
    edges; at ``B = L`` in row 1 it drains.  Row 0 is finalized below
    ``hi``: the spans coasted after that leave its counts and its
    edges alone, and both rows equal their single runs."""
    net, paths = _pinwheel()
    frozen = []
    coast = CutThroughKernel._coast

    def spied(self, t, *args):
        before = (self.crossed[:, 0].copy(), self.owner[0].copy())
        coast(self, t, *args)
        if self.state.coasted and not self.state.live[0]:
            frozen.append(before)
            assert np.array_equal(self.crossed[:, 0], before[0])
            assert np.array_equal(self.owner[0], before[1])

    CutThroughKernel._coast = spied
    try:
        batch = run_cut_through_batch(
            net, paths, 8, seeds=[0, 1], buffer_flits=[1, 8], priority="index"
        )
    finally:
        CutThroughKernel._coast = coast
    assert frozen, "no span after row 0 was finalized"
    assert (frozen[0][1][:-1] >= 0).any(), "row 0 owned no edge"
    stuck, drained = batch
    assert stuck.deadlocked and drained.all_delivered
    for row, B, seed in zip(batch, [1, 8], [0, 1]):
        (alone,) = run_cut_through_batch(
            net, paths, 8, seeds=[seed], buffer_flits=B, priority="index"
        )
        assert row.completion_times.tolist() == alone.completion_times.tolist()
        assert row.blocked_steps.tolist() == alone.blocked_steps.tolist()
        assert row.steps_executed == alone.steps_executed

