"""The wormhole kernel over a grant that arbitrates only contested seats.

:func:`~repro.sim.engine.grant_free_slots` settles a round class by
class (DESIGN decision 22): contenders of a full slot are refused
unranked, a slot with seats to spare grants unsorted, and only
over-subscribed slots are sorted.  In a mixed-``B`` batch one combined
round holds trials of all three kinds at once, so this suite builds a
batch in which — within a single step — one trial has no viable
contender, one is uncontested and one is contested, and holds every row
to its single run and to the per-message reference written from MODEL.md
(``tests/reference_simulator.py::reference_message_run``).

The reference draws one uniform per contender per round, hopeless
contenders included: a header on a full channel is refused without
being ranked, but its draw is still consumed, so a second run on the
same continuing ``Generator`` starts at exactly the stream position a
ranked round would have left.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from golden_cases import _line

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from reference_simulator import (  # noqa: E402
    CONTESTED,
    REFUSED,
    UNCONTESTED,
    reference_message_run,
)

from repro.sim.batch import run_wormhole_batch  # noqa: E402
from repro.sim.wormhole import WormholeSimulator  # noqa: E402

def _problem():
    """Three long worms over a short path, then stragglers behind them.

    The first three are granted (or not) at step 1 and, ``L`` exceeding
    their path, sit on edge 0 while they drain; the three released at
    step 3 meet that edge at step 4 holding ``min(B, 3)`` worms — full
    at ``B <= 3``, one seat for three at ``B = 4``, room for all at
    ``B = 8``.
    """
    net, edges = _line(3)
    paths = [edges[:2]] * 3 + [edges, edges[:2], edges, edges[1:]]
    L = np.array([6, 6, 6, 3, 4, 2, 3])
    release = np.array([0, 0, 0, 3, 3, 3, 11])
    return net, paths, L, release


BS, SEEDS = [1, 8, 4, 2], [21, 22, 23, 24]


def _vc_ids(paths, b_min):
    return [[(m + i) % b_min for i in range(len(p))] for m, p in enumerate(paths)]


@pytest.mark.parametrize(
    "priority, classes", [("random", False), ("rank", False), ("random", True)]
)
def test_a_step_holding_all_three_classes_leaves_every_row_its_single_run(
    priority, classes
):
    net, paths, L, release = _problem()
    Bs = [2, 4, 3, 2] if classes else BS  # classes: (edge, class), one seat
    vc_ids = _vc_ids(paths, min(Bs)) if classes else None
    kw = dict(priority=priority, release_times=release, vc_ids=vc_ids)
    batch = run_wormhole_batch(
        net, paths, L, seeds=SEEDS, num_virtual_channels=Bs, **kw
    )
    timelines = []
    for row, B, seed in zip(batch, Bs, SEEDS):
        (alone,) = run_wormhole_batch(
            net, paths, L, seeds=[seed], num_virtual_channels=B, **kw
        )
        completion, blocked, timeline = reference_message_run(
            paths, L, B, release, np.random.default_rng(seed), priority, vc_ids
        )
        for got in (row, alone):
            assert got.completion_times.tolist() == completion
            assert got.blocked_steps.tolist() == blocked
        assert (row.steps_executed, row.deadlocked, row.hit_step_cap) == (
            alone.steps_executed, alone.deadlocked, alone.hit_step_cap
        )
        timelines.append(timeline)
    if not classes:
        # One combined round really held all three kinds of trial.
        assert [tl[4] for tl in timelines] == [
            REFUSED, UNCONTESTED, CONTESTED, REFUSED
        ]


@pytest.mark.parametrize("B", [1, 2])
def test_a_refused_round_still_consumes_its_draws(B):
    """Two runs on one continuing generator == two reference runs on
    another: the stream position is exact even where no value is used
    (at ``B = 1`` most rounds have no viable contender)."""
    net, paths, L, release = _problem()
    sim = WormholeSimulator(net, B, priority="random", seed=7)
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(2):
        got = sim.run(paths, L, release_times=release)
        completion, blocked, timeline = reference_message_run(
            paths, L, B, release, rng, "random"
        )
        assert got.completion_times.tolist() == completion
        assert got.blocked_steps.tolist() == blocked
        seen |= set(timeline.values())
        assert sim._rng.bit_generator.state == rng.bit_generator.state
    assert REFUSED in seen and CONTESTED in seen
