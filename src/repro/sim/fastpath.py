"""The segmented rank-and-grant scan of the contend/rank/grant step.

:func:`repro.sim.engine.grant_free_slots` ends in this scan: given
contenders sorted by ``(slot, priority)``, rank each contender within
its slot group and grant the first ``capacity - occupancy`` of every
group.  The caller hands it only the contenders of over-subscribed
slots — possibly none (DESIGN decision 22) — so it is a small share of
a run: ``sim.fastpath.grant_busy_s`` is 0.7 % of ``sim.sweep.busy_s`` on
perfbench's ``sweep_batched`` workload and 1.6 % on ``sweep_serial``
(2-core Intel Xeon host).

The scan is pure NumPy (group boundaries via a shifted compare, ranks
via ``maximum.accumulate``) and consumes the caller's lexsort order, so
it draws no randomness.  ``grant_free_slots`` reads
:data:`segmented_grant` as a module attribute at call time, which is
how perfbench times it.  ``tests/sim/test_fastpath.py`` pins it against
the naive per-slot reference.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "active_backend",
    "segmented_grant",
]


def segmented_grant(
    sorted_slots: np.ndarray,
    sorted_caps: np.ndarray,
    occupancy: np.ndarray | None,
) -> np.ndarray:
    """The segmented grant scan over lexsorted contenders.

    ``sorted_slots`` holds the contenders' slot ids in lexsorted
    ``(slot, priority)`` order, ``sorted_caps`` the per-contender slot
    capacity in the same order (constant within a slot group) or one
    scalar capacity for every slot.  Returns
    the granted mask *in sorted order*: contender ``i`` is granted iff
    its rank within its slot group is below the group's free capacity
    (``capacity - occupancy[slot]``).
    """
    n = sorted_slots.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_slots[1:], sorted_slots[:-1], out=new_group[1:])
    arange = np.arange(n)
    group_start = np.maximum.accumulate(arange * new_group)
    rank = arange - group_start
    if occupancy is None:
        return rank < sorted_caps
    return rank < sorted_caps - occupancy[sorted_slots]


def active_backend() -> str:
    """Always ``"numpy"``: the scan has one build.

    Kept only because ``perfbench/env.py`` records it in the machine
    fingerprint; it goes when that call does.
    """
    return "numpy"
