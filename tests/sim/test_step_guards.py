"""The scalar guards a step now rests on (DESIGN decision 21).

Two pieces of per-step mask work were replaced by conditions on loop
state, and each must leave trial ``i`` of a batch bit-identical to the
same trial run alone:

* :class:`~repro.sim.kernels.CutThroughKernel` no longer masks flit
  movement with ``& active`` — ownership already implies it — except
  for trials the loop finalized early, under ``num_live < hi``;
* :class:`~repro.sim.engine.BatchStepLoop` switches, once the clock is
  past the last release, to ``active = ~done`` with no idle scan.

A third guard is on width: cut-through's running maximum runs slab by
slab when ``hi * M >= 512`` and as one ``accumulate`` below, so a batch
that crosses the threshold must still equal its trials run alone.
"""

import numpy as np
import pytest

from golden_cases import _line
from repro.network.mesh import KAryNCube
from repro.sim.batch import LOCKSTEP_MODELS, run_cut_through_batch
from repro.sim.engine import BatchStepLoop
from repro.sim.kernels import CutThroughKernel
from repro.sim.spec import WORKLOADS
from repro.telemetry.probe import Probe

MODEL_NAMES = list(LOCKSTEP_MODELS)


def _same(a, b, label):
    assert np.array_equal(a.completion_times, b.completion_times), label
    assert np.array_equal(a.blocked_steps, b.blocked_steps), label
    assert (a.makespan, a.steps_executed, a.deadlocked, a.hit_step_cap) == (
        b.makespan, b.steps_executed, b.deadlocked, b.hit_step_cap
    ), label


# ----------------------------------------------------------------------
# (a) a finalized trial below ``hi`` is frozen
# ----------------------------------------------------------------------


def test_capped_row_below_hi_is_frozen_while_the_batch_runs_on():
    """Row 0 hits its own small cap while it still owns edges; rows 1
    and 2 keep ``hi`` at 3, so only the ``num_live < hi`` mask stands
    between row 0's worms and further movement."""
    net, edges = _line(6)
    paths = [edges, edges, edges[2:]]
    L, B, seeds, caps = 5, np.array([1, 1, 2]), [3, 4, 5], [4, 200, 200]
    rngs = [np.random.default_rng(s) for s in seeds]
    packed = CutThroughKernel.pack(
        net, paths, L, None, B=B, option="random", rngs=rngs
    )
    loop = BatchStepLoop(3, len(paths), packed.release, np.array(caps))
    kernel = CutThroughKernel(loop, packed, B=B, option="random", rngs=rngs)
    frozen = {}

    def body(t, active):
        moved = kernel.body(t, active)
        if t == caps[0]:
            assert loop.live[0]  # finalized only after this body call
            assert kernel._owned[:, 0].any(), "row 0 must still own edges"
            frozen.update(
                crossed=kernel.crossed[:, 0].copy(),
                owner=kernel.owner[0].copy(),
                h=kernel._h[0].copy(),
            )
        elif t > caps[0]:
            assert not loop.live[0] and loop.hi == 3 and loop.num_live == 2
            assert np.array_equal(kernel.crossed[:, 0], frozen["crossed"])
            assert not moved[0]
        return moved

    results = loop.run(body)
    assert loop.t > caps[0] + 5, "the other rows must have run on"
    assert np.array_equal(kernel.crossed[:, 0], frozen["crossed"])
    assert np.array_equal(kernel.owner[0], frozen["owner"])
    assert np.array_equal(kernel._h[0], frozen["h"])
    assert results[0].hit_step_cap and results[0].steps_executed == caps[0]
    for i, res in enumerate(results):
        (alone,) = run_cut_through_batch(
            net, paths, L, seeds=[seeds[i]], buffer_flits=int(B[i]),
            max_steps=caps[i],
        )
        _same(res, alone, f"row {i}")
    assert results[1].all_delivered and results[2].all_delivered


# ----------------------------------------------------------------------
# (b) the all-released regime switch, every model
# ----------------------------------------------------------------------


class _Recorder(Probe):
    """Counts events: enough to put the T = 1 telemetry path on."""

    def __init__(self):
        super().__init__()
        self.steps = []

    def on_step(self, t, movers, k):
        self.steps.append(t)


def _problem(model):
    """Three messages contending from step 0 and one late message."""
    if LOCKSTEP_MODELS[model].kind == "mesh":
        cube = KAryNCube(4, 2, wrap=False)
        return cube, [(0, 15), (1, 15), (4, 15), (3, 12)], 4
    net, edges = _line(5)
    return net, [edges, edges, edges[1:], edges[:3]], 6


def _batch_equals_single(model, release, max_steps):
    spec = LOCKSTEP_MODELS[model]
    first, second, L = _problem(model)
    Bs, seeds = [1, 3, 2], [11, 12, 13]
    kw = dict(release_times=np.asarray(release), max_steps=max_steps)
    batch = spec.driver(first, second, L, seeds=seeds, **{spec.knob: Bs}, **kw)
    unwrap = (lambda run: run.result) if spec.kind == "mesh" else (lambda r: r)
    for i, (B, seed) in enumerate(zip(Bs, seeds)):
        probe = _Recorder() if spec.telemetry else None
        (alone,) = spec.driver(
            first, second, L, seeds=[seed], **{spec.knob: B},
            telemetry=probe, **kw,
        )
        _same(
            unwrap(batch[i]), unwrap(alone),
            f"{model} release={list(release)} cap={max_steps} row {i}",
        )
        if probe is not None:
            assert probe.steps == sorted(set(probe.steps))
    return [unwrap(run) for run in batch]


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_clock_jump_landing_on_the_last_release(model):
    """The late message is released at ``last_release``.  Sweeping that
    time walks every trial through both sides of the switch: still busy
    with the early messages when it arrives (no idle scan needed), or
    idle at ``t == last_release`` so the clock jump lands exactly on it
    and the very next step is the first of the all-released regime."""
    idle_somewhere = False
    for late in range(0, 64, 3):
        results = _batch_equals_single(model, [0, 0, 0, late], None)
        assert all(r.all_delivered for r in results)
        early = max(int(np.sort(r.completion_times)[-2]) for r in results)
        idle_somewhere |= early < late
    assert idle_somewhere, "no release in the sweep found a trial idle"


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_last_release_past_the_step_cap(model):
    """The regime never starts: the cap ends a trial first, either while
    it is busy or on the jump towards a release it cannot reach."""
    for cap in (3, 40):
        results = _batch_equals_single(model, [0, 0, 2, 500], cap)
        assert all(r.hit_step_cap and not r.all_delivered for r in results)
    # Staggered per-message releases on both sides of a reachable cap.
    _batch_equals_single(model, [0, 9, 4, 30], 25)


# ----------------------------------------------------------------------
# (c) the width branch: a batch whose ``hi * M`` crosses 512
# ----------------------------------------------------------------------


def _wide_problem(model):
    """16 messages, so ``T * M >= 512`` from ``T = 32`` trials."""
    if LOCKSTEP_MODELS[model].kind == "mesh":
        cube = KAryNCube(4, 2, wrap=False)
        return cube, [(s, 15 - s) for s in range(16)], 5
    wl = WORKLOADS["layered"](width=4, depth=6, out_degree=2, messages=16, seed=3)
    return wl.net, wl.paths, 6


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_batch_equals_single_as_hi_falls_below_the_width_threshold(model):
    """34 trials of 16 messages start at ``hi * M = 544``.  Rows are
    ordered longest run first, so the high rows finish first and ``hi``
    falls below ``512 / M = 32`` while low rows still run: cut-through's
    running maximum takes its slab-by-slab branch, then the fused
    ``accumulate``, within one batch.  Every row must equal the same
    trial run alone (``hi * M = 16``, the fused branch throughout)."""
    spec = LOCKSTEP_MODELS[model]
    first, second, L = _wide_problem(model)
    unwrap = (lambda run: run.result) if spec.kind == "mesh" else (lambda r: r)

    def run(Bs, seeds):
        return [
            unwrap(r)
            for r in spec.driver(first, second, L, seeds=seeds, **{spec.knob: Bs})
        ]

    # Ten distinct (B, seed) trials, some rows repeated: a row's batch
    # mates never change its answer.
    trials = [(1 + i % 5, 100 + i % 10) for i in range(34)]
    alone = {t: run([t[0]], [t[1]])[0] for t in set(trials)}
    trials.sort(key=lambda t: -alone[t].steps_executed)
    Bs, seeds = zip(*trials)
    results = run(list(Bs), list(seeds))
    k = 512 // len(second)
    assert len(trials) * len(second) >= 512
    # Rows k-1.. all end before the last of rows ..k-2: hi drops below k.
    ends = [r.steps_executed for r in results]
    assert max(ends[: k - 1]) > max(ends[k - 1 :])
    for t, res in zip(trials, results):
        _same(res, alone[t], f"{model} B={t[0]} seed={t[1]}")
