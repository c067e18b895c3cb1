"""How fast the host is right now: a fixed loop, timed between rounds.

The box is a few cores of a shared host.  For minutes at a time a neighbour
makes *everything* on it 1.1-1.4x slower (steal time stays at zero, so it
cannot be subtracted), and two runs of the same code taken across such a
phase differ by more than any bound worth having.  The loop below is fixed
work that has nothing to do with ``repro`` - interpreter dispatch, dict
churn, NumPy element-wise passes, fancy indexing and a scan over a few MB,
small matrix products: the mix a simulator step is made of - so the time it
takes measures the host alone.  It runs before every set-up, before every
round and after the last.  The *slowdown* around a round is the median of
the :data:`REACH` spins on either side of it over :data:`REFERENCE_S`, and
every duration behind an end-to-end metric is divided by the slowdown around
it.  End-to-end times therefore read as "on the reference box when it is
quiet", whatever the neighbours did during the run; on the quiet reference
box the slowdown is 1 and nothing changes.  The info line printed before the
result carries the run's slowdown and every metric as measured, and the
per-layer metrics of the traced pass are left raw (``trace.host_slowdown``
reports the factor there).

A change to ``repro`` cannot move the loop, so it cannot hide behind it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Seconds :func:`spin` takes on the reference box (2 cores of a 2.1 GHz
#: Xeon, python 3.11, numpy 2.4) when no neighbour is active.  It only fixes
#: the unit: a different value scales every time metric of every run alike.
REFERENCE_S = 0.0340

_rng = np.random.default_rng(0)
_VEC = _rng.random(400_000)
_MAT = _rng.random((96, 96))
_IDX = _rng.integers(0, _VEC.size, 100_000)


def spin() -> float:
    """Run the fixed loop once; seconds it took."""
    t0 = perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i
    table = {i: str(i) for i in range(8_000)}
    for _ in range(8):
        vec = _VEC * 1.0001 + _VEC
        vec[_IDX] += 1.0
        np.maximum.accumulate(vec)
    for _ in range(40):
        _MAT @ _MAT
    del table
    return perf_counter() - t0


#: Spins taken on each side of a timed interval: at a spin a second, six
#: samples over some six seconds - enough to average the 2-3 % scatter of
#: single spins, short against slow phases that last a minute.
REACH = 3


def slowdown(spins: list[float]) -> float:
    """Host speed over ``spins`` relative to the quiet reference box."""
    return statistics.median(spins) / REFERENCE_S


def slowdown_around(spins: list[float], i: int) -> float:
    """Slowdown around the interval timed between ``spins[i]`` and ``spins[i + 1]``."""
    return slowdown(spins[max(0, i + 1 - REACH) : i + 1 + REACH])
