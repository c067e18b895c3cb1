"""State audits: what a kernel maintains == its definition, every step.

A kernel that keeps derived state up to date where the events happen,
instead of re-deriving it every step (DESIGN decisions 21–23), declares
``audit(t)``: called after ``body(t, active)``, it recomputes all of that
state from first principles and asserts equality.

* :meth:`~repro.sim.kernels.CutThroughKernel.audit` — the header index
  ``_h`` and its two flat gather indices, the tail watch ``_f`` and its
  flat index into ``crossed``, the ownership mask ``_owned``, from the
  flit counts ``crossed``, the ``owner`` table and the routes; plus the
  sentinels the unconditional masks rest on and the ownership argument
  that replaced the ``& active`` mask.
* :meth:`~repro.sim.kernels.WormholeKernel.audit` — the arbiter's flat
  ``occupancy`` recounted from ``k``, ``L`` and the routes, the flat
  key tables checked against ``arbiter.keys`` of ``_slots`` for every
  on-path cell (VC classes and mixed ``B`` included), and, with
  injection queues, FIFO order and the held pairs from ``k``.
* :meth:`~repro.sim.kernels.AdaptiveKernel.audit` — the flat channel
  occupancy ``occ`` recounted from each head's taken route, ``k`` and
  ``L``, and ``tlen`` / ``position`` checked against the taken route,
  each hop one of its node's options under the policy.

This suite wraps ``body`` for every :data:`~repro.sim.batch.LOCKSTEP_MODELS`
row whose kernel defines ``audit`` and runs hypothesis-drawn problems —
line and ring paths, or mesh demands for a ``"mesh"`` row, and
multibutterfly demands for the adaptive row — with the audit after
every step.  A kernel that coasts through forced or quiet steps inside
``body`` (``WormholeKernel._coast``, ``CutThroughKernel._coast``) is
audited before and after every coast as well, and its ``L`` reaches
past twice the longest path, where most steps coast.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_cases import _line, _ring, fifo_release
from repro.network.mesh import KAryNCube
from repro.network.multibutterfly import Multibutterfly
from repro.sim.batch import LOCKSTEP_MODELS

AUDITED = [
    name for name, spec in LOCKSTEP_MODELS.items()
    if hasattr(spec.kernel, "audit")
]


def test_the_slot_and_ownership_kernels_are_audited():
    assert {"wormhole", "cut_through", "adaptive"} <= set(AUDITED)


def _mesh_problem(draw, spec):
    """A ``k x k`` mesh, demands (some with source == destination) and
    one scalar ``L``, as the adaptive kernel takes them."""
    k = draw(st.integers(2, 4))
    node = st.integers(0, k * k - 1)
    demands = draw(st.lists(st.tuples(node, node), min_size=1, max_size=12))
    T = draw(st.sampled_from([1, 4]))
    kw = {
        spec.knob: draw(st.lists(st.integers(1, 3), min_size=T, max_size=T)),
        spec.option: draw(st.sampled_from(spec.choices)),
        "release_times": np.asarray(
            draw(st.lists(st.integers(0, 9), min_size=len(demands),
                          max_size=len(demands)))
        ),
        "max_steps": draw(st.one_of(st.none(), st.integers(1, 25))),
    }
    seed = draw(st.integers(0, 2**16))
    L = draw(st.integers(1, 5))
    return KAryNCube(k, 2, wrap=False), demands, L, [seed + i for i in range(T)], kw


def _problem(draw, spec):
    if spec.kind == "mesh":
        return _mesh_problem(draw, spec)
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
    B = draw(st.lists(st.integers(1, 3), min_size=T, max_size=T))
    kw = {
        spec.knob: B,
        "release_times": np.asarray(
            draw(st.lists(st.integers(0, 9), min_size=M, max_size=M))
        ),
        "max_steps": draw(st.one_of(st.none(), st.integers(1, 25))),
    }
    if spec.option is not None:
        kw[spec.option] = draw(st.sampled_from(spec.choices))
    if "vc_ids" in spec.workload_fields and draw(st.booleans()):
        # One VC class per hop, below every trial's B.
        kw["vc_ids"] = [
            [(m + i) % min(B) for i in range(len(p))]
            for m, p in enumerate(paths)
        ]
    if "sources" in spec.workload_fields and draw(st.booleans()):
        # Injection queues: FIFO in index order, releases to match.
        kw["sources"] = draw(st.lists(st.integers(0, 2), min_size=M, max_size=M))
        kw["release_times"] = fifo_release(kw["sources"], kw["release_times"])
    L = np.asarray(draw(st.lists(st.integers(1, 14), min_size=M, max_size=M)))
    seed = draw(st.integers(0, 2**16))
    return net, paths, L, [seed + i for i in range(T)], kw


def _run_audited(spec, net, paths, L, seeds, kw) -> list[int]:
    """Run ``spec``'s driver with the audit after every step; the steps."""
    steps = []
    original = spec.kernel.body
    coast = getattr(spec.kernel, "_coast", None)

    def audited(self, t, active):
        moved = original(self, t, active)
        self.audit(t)
        steps.append(t)
        return moved

    def audited_coast(self, t, *args):
        self.audit(t)
        coast(self, t, *args)
        self.audit(t + self.state.coasted)

    spec.kernel.body = audited
    if coast is not None:
        spec.kernel._coast = audited_coast
    try:
        results = spec.driver(net, paths, L, seeds=seeds, **kw)
    finally:
        spec.kernel.body = original
        if coast is not None:
            spec.kernel._coast = coast
    assert len(results) == len(seeds)
    return steps


@pytest.mark.parametrize("model", AUDITED)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_maintained_state_equals_its_definition(model, data):
    spec = LOCKSTEP_MODELS[model]
    net, paths, L, seeds, kw = _problem(data.draw, spec)
    steps = _run_audited(spec, net, paths, L, seeds, kw)
    if kw["max_steps"] is None and (
        any(paths) if spec.kind == "paths" else any(s != d for s, d in paths)
    ):
        assert steps, "the audit never ran"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_adaptive_state_on_a_multibutterfly_equals_its_definition(data):
    """The adaptive audit on multibutterfly demands: every taken hop is
    one of the ``d`` edges into the destination's half."""
    draw, spec = data.draw, LOCKSTEP_MODELS["adaptive"]
    n = draw(st.sampled_from([4, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 99)))
    mbf = Multibutterfly(n, d=draw(st.integers(1, 3)), rng=rng)
    column = st.integers(0, n - 1)
    demands = draw(
        st.lists(st.tuples(column, column), min_size=1, max_size=2 * n)
    )
    T = draw(st.sampled_from([1, 4]))
    kw = {
        spec.knob: draw(st.lists(st.integers(1, 3), min_size=T, max_size=T)),
        spec.option: "fully-adaptive",
        "release_times": np.asarray(
            draw(st.lists(st.integers(0, 9), min_size=len(demands),
                          max_size=len(demands)))
        ),
        "max_steps": draw(st.one_of(st.none(), st.integers(1, 25))),
    }
    seeds = [draw(st.integers(0, 2**16)) + i for i in range(T)]
    steps = _run_audited(spec, mbf, demands, draw(st.integers(1, 5)), seeds, kw)
    if kw["max_steps"] is None:
        assert steps, "the audit never ran"
