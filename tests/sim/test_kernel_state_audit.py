"""State audits: what a kernel maintains == its definition, every step.

:class:`~repro.sim.kernels.CutThroughKernel`
--------------------------------------------

The kernel no longer re-derives, each step, the state that only changes
at sparse events (DESIGN decision 21): the header index ``_h``, the two
flat gather indices that follow it (``_hv`` into the advance mask,
``_want`` into ``owner``) and the ownership mask ``_owned`` are updated
where a header moves, a grant lands or an edge is released.  This suite
wraps ``body`` and, after **every** step of hypothesis-drawn problems,
recomputes all of it from first principles — the flit counts
``crossed``, the ``owner`` table and the routes — and demands equality,
together with the sentinels the unconditional masks rest on and the
ownership argument that replaced the ``& active`` mask.

:class:`~repro.sim.kernels.WormholeKernel`
------------------------------------------
The arbiter's flat ``occupancy`` is written only where somebody won a
seat or a worm let one go (DESIGN decision 22); after every step it is
recounted from the move counts ``k``, ``L`` and the routes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_cases import _line, _ring
from repro.sim.batch import run_cut_through_batch, run_wormhole_batch
from repro.sim.kernels import CutThroughKernel, WormholeKernel


def _audit(kernel, t):
    """Everything maintained == its definition, after step ``t``."""
    loop = kernel.state
    T, M, E, maxD = kernel.T, kernel.M, kernel.num_edges, kernel.max_D
    padded, D = kernel.padded, kernel.D
    rows, msgs = np.arange(T)[:, None], np.arange(M)[None, :]
    # crossed[r, t, m] counts path edge i = maxD - 1 - r: flip to (T, M, i).
    crossed = kernel.crossed[::-1].transpose(1, 2, 0)
    on_path = np.arange(maxD)[None, :] < D[:, None]
    assert not crossed[:, ~on_path].any(), "flits beyond a path's end"
    assert (np.diff(crossed, axis=2)[:, on_path[:, 1:]] <= 0).all()

    # The header sits at the first edge no flit has crossed.
    h = (crossed > 0).sum(axis=2)
    assert np.array_equal(kernel._h, h)
    assert (h <= D[None, :]).all()
    # ... and its two flat indices are affine in it.
    assert np.array_equal(kernel._hv, (maxD - h) * (T * M) + rows * M + msgs)
    edge = np.where(
        h < D[None, :], padded[msgs, np.minimum(h, maxD - 1)], E
    )
    assert np.array_equal(kernel._want, rows * (E + 1) + edge)
    # A delivered header must read "did not move" and "edge owned".
    assert not kernel._v[0].any(), "guard slab written"
    assert (kernel.owner[:, E] == M).all(), "sentinel edge changed hands"
    assert (kernel._v_flat[kernel._hv[h == D[None, :]]] == 0).all()

    # Ownership mask == the owner table read along each route.
    owned = np.zeros((T, M, maxD), dtype=bool)
    for m in range(M):
        for i in range(D[m]):
            owned[:, m, i] = kernel.owner[:, padded[m, i]] == m
    assert np.array_equal(
        kernel._owned[::-1].transpose(1, 2, 0), owned
    )
    held = kernel.owner[:, :E]
    assert ((held == -1) | ((held >= 0) & (held < M))).all()
    for tr, e in zip(*np.nonzero(held >= 0)):
        assert e in padded[held[tr, e], : D[held[tr, e]]]
    # A message owns edges only while released and undelivered (what
    # lets the movement phase drop its `& active`): true of every trial
    # that was live in this step.
    may_own = (loop.release < t) & ~loop.done
    live = loop.live
    assert (kernel._owned.any(axis=0) <= may_own)[live].all()


@st.composite
def _problems(draw, priorities=("random", "index")):
    n = draw(st.integers(2, 6))
    ring = draw(st.booleans())
    net, edges = (_ring(n) if ring else _line(n))[:2]
    M = draw(st.integers(1, 6))
    paths = []
    for _ in range(M):
        start = draw(st.integers(0, n - 1))
        room = n if ring else n - start
        length = draw(st.integers(0, room))  # 0: delivered at release
        paths.append([edges[(start + j) % n] for j in range(length)])
    T = draw(st.sampled_from([1, 4]))
    return dict(
        net=net,
        paths=paths,
        L=np.asarray(draw(st.lists(st.integers(1, 5), min_size=M, max_size=M))),
        B=draw(st.lists(st.integers(1, 3), min_size=T, max_size=T)),
        release=np.asarray(
            draw(st.lists(st.integers(0, 9), min_size=M, max_size=M))
        ),
        priority=draw(st.sampled_from(priorities)),
        max_steps=draw(st.one_of(st.none(), st.integers(1, 25))),
        seed=draw(st.integers(0, 2**16)),
    )


def _run_audited(kernel_cls, audit, run, problem, **knob):
    """Run ``problem`` with ``audit(kernel, t)`` after every step."""
    steps = []
    original = kernel_cls.body

    def audited(self, t, active):
        moved = original(self, t, active)
        audit(self, t)
        steps.append(t)
        return moved

    kernel_cls.body = audited
    try:
        T = len(problem["B"])
        results = run(
            problem["net"], problem["paths"], problem["L"],
            seeds=[problem["seed"] + i for i in range(T)],
            priority=problem["priority"],
            release_times=problem["release"],
            max_steps=problem["max_steps"],
            **knob,
        )
    finally:
        kernel_cls.body = original
    assert len(results) == T
    if any(len(p) for p in problem["paths"]) and problem["max_steps"] is None:
        assert steps, "the audit never ran"


@settings(max_examples=120, deadline=None)
@given(problem=_problems())
def test_cut_through_maintained_state_equals_its_definition(problem):
    _run_audited(
        CutThroughKernel, _audit, run_cut_through_batch, problem,
        buffer_flits=problem["B"],
    )


def _audit_occupancy(kernel, t):
    """The arbiter's flat occupancy == the seats the worms hold.

    After ``k`` moves a worm has acquired path edges ``0 .. min(k, D) -
    1`` and let go of ``0 .. k - L - 1``; the final edge goes at
    completion (``k == L + D - 1``).
    """
    arbiter, k, D, L = kernel.arbiter, kernel.k, kernel.D, kernel.L
    want = np.zeros_like(arbiter.occupancy)
    for tr in range(kernel.T):
        for m in range(kernel.M):
            moves = int(k[tr, m])
            if moves == L[m] + D[m] - 1:
                continue  # delivered (or a trivial path): holds nothing
            held = np.arange(max(0, moves - L[m]), min(moves, D[m]))
            rows = np.full(held.size, tr)
            slots = kernel._slots(rows, np.full(held.size, m), held)
            np.add.at(want, arbiter.keys(rows, slots), 1)
    assert np.array_equal(arbiter.occupancy, want)
    per_slot = np.repeat(arbiter.capacities, np.diff(arbiter.offsets))
    assert (arbiter.occupancy <= per_slot).all(), "a slot over its capacity"


@settings(max_examples=120, deadline=None)
@given(
    problem=_problems(priorities=("random", "index", "age", "rank")),
    classes=st.booleans(),
)
def test_wormhole_occupancy_equals_the_seats_worms_hold(problem, classes):
    knob = {"num_virtual_channels": problem["B"]}
    if classes:
        # One VC class per hop, below every trial's B.
        b_min = min(problem["B"])
        knob["vc_ids"] = [
            [(m + i) % b_min for i in range(len(p))]
            for m, p in enumerate(problem["paths"])
        ]
    _run_audited(
        WormholeKernel, _audit_occupancy, run_wormhole_batch, problem, **knob
    )
