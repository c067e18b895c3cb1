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

This suite wraps ``body`` for every :data:`~repro.sim.batch.LOCKSTEP_MODELS`
row whose kernel defines ``audit`` and runs hypothesis-drawn problems with
the audit after every step.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_cases import _line, _ring, fifo_release
from repro.sim.batch import LOCKSTEP_MODELS

AUDITED = [
    name for name, spec in LOCKSTEP_MODELS.items()
    if hasattr(spec.kernel, "audit")
]


def test_the_slot_and_ownership_kernels_are_audited():
    assert {"wormhole", "cut_through"} <= set(AUDITED)


def _problem(draw, spec):
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
    if spec.vc_classes and draw(st.booleans()):
        # One VC class per hop, below every trial's B.
        kw["vc_ids"] = [
            [(m + i) % min(B) for i in range(len(p))]
            for m, p in enumerate(paths)
        ]
    if "sources" in inspect.signature(spec.kernel.pack).parameters and draw(
        st.booleans()
    ):
        # Injection queues: FIFO in index order, releases to match.
        kw["sources"] = draw(st.lists(st.integers(0, 2), min_size=M, max_size=M))
        kw["release_times"] = fifo_release(kw["sources"], kw["release_times"])
    L = np.asarray(draw(st.lists(st.integers(1, 5), min_size=M, max_size=M)))
    seed = draw(st.integers(0, 2**16))
    return net, paths, L, [seed + i for i in range(T)], kw


@pytest.mark.parametrize("model", AUDITED)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_maintained_state_equals_its_definition(model, data):
    spec = LOCKSTEP_MODELS[model]
    net, paths, L, seeds, kw = _problem(data.draw, spec)
    steps = []
    original = spec.kernel.body

    def audited(self, t, active):
        moved = original(self, t, active)
        self.audit(t)
        steps.append(t)
        return moved

    spec.kernel.body = audited
    try:
        results = spec.driver(net, paths, L, seeds=seeds, **kw)
    finally:
        spec.kernel.body = original
    assert len(results) == len(seeds)
    if any(paths) and kw["max_steps"] is None:
        assert steps, "the audit never ran"
