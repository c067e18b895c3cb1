"""Offline wormhole schedulers (Theorem 2.1.6 and the footnote-5 baseline).

:func:`lll_schedule` is the paper's construction: reduce the multiplex
size from ``C`` to ``B`` with the Lemma 2.1.5 cascade, then release one
color class every ``L + D - 1`` flit steps.  Its length is
``O((L + D) C (D log D)^(1/B) / B)`` flit steps.

:func:`naive_coloring_schedule` is the baseline of footnote 5: build the
conflict graph (worms adjacent iff their paths share an edge), greedily
color it with at most ``D(C - 1) + 1`` colors, and route one color class
at a time — ``O((L + D) C D)`` flit steps, the bound the paper's
construction beats by a factor of about ``B D^(1 - 1/B)``.

Both produce a :class:`ScheduleBuild`, whose :meth:`ScheduleBuild.apply`
states the schedule on a :class:`~repro.sim.spec.Workload`: its release
times, and the facts by which :func:`repro.fuzz.expectations.evaluate`
holds the run to the Theorem 2.1.6 guarantee (unblocked, within
``length_bound``).  The workload then runs as an ordinary wormhole trial
through every front door.  :func:`schedule_workload` is the
``lll-schedule`` scenario's transform: one ``"direct"`` build, applied.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from ..network.graph import NetworkError
from ..routing.paths import Path
from ..sim.kernels import exact_count
from .coloring import MessageEdgeIncidence, RefinementTrace, reduce_multiplex_size
from .schedule import ColorClassSchedule

__all__ = [
    "ScheduleBuild",
    "lll_schedule",
    "naive_coloring_schedule",
    "greedy_conflict_coloring",
    "schedule_workload",
]


@dataclass(frozen=True)
class ScheduleBuild:
    """A constructed schedule plus its provenance."""

    schedule: ColorClassSchedule
    congestion: int
    dilation: int
    num_classes: int
    trace: RefinementTrace | None = None

    @property
    def length_bound(self) -> int:
        return self.schedule.length_bound

    def metrics(self) -> dict[str, int]:
        """The build's scalars, under the names trial metrics report."""
        return {
            "classes": int(self.num_classes),
            "congestion": int(self.congestion),
            "dilation": int(self.dilation),
            "length_bound": int(self.length_bound),
        }

    def apply(self, wl, B: int):
        """``wl`` released on this schedule, built for ``B`` channels.

        Returns ``wl`` with the schedule's ``release_times`` and ``L``,
        :meth:`metrics` joined to its ``info``, and the facts the
        expectation table's ``schedule`` row reads (``built_B``,
        ``built_L``, ``length_bound``).  Run at ``B`` it is an ordinary
        wormhole trial that a correct schedule finishes unblocked within
        ``length_bound``.  A workload that states its own release times,
        injection sources or channel classes is refused: the schedule
        sets those.
        """
        fields = ("release_times", "sources", "vc_ids")
        stated = [f for f in fields if getattr(wl, f) is not None]
        if stated:
            raise NetworkError(
                "a schedule sets its own release times and channel use; "
                f"the workload states {', '.join(stated)}"
            )
        L = self.schedule.message_length
        return replace(
            wl,
            default_length=L,
            release_times=self.schedule.release_times(),
            info={**wl.info, **self.metrics()},
            facts={
                **wl.facts,
                "built_B": exact_count(B, "B", 1),
                "built_L": L,
                "length_bound": int(self.length_bound),
            },
        )


def lll_schedule(
    paths: Sequence[Path] | Sequence[Sequence[int]],
    message_length: int,
    B: int,
    rng: np.random.Generator | None = None,
    mode: str = "adaptive",
) -> ScheduleBuild:
    """Theorem 2.1.6: an ``O((L+D) C (D log D)^(1/B) / B)``-step schedule.

    When ``C <= B`` no refinement is needed — all messages are released
    simultaneously and finish in ``L + D - 1`` steps (the theorem's
    trivial case).

    Parameters
    ----------
    paths:
        Edge-simple routes.
    message_length:
        The ``L`` in flits.
    B:
        Virtual channels per edge.
    mode:
        ``"theory"`` for the paper's stage parameters, ``"adaptive"`` for
        practically-small color counts, ``"direct"`` for one-stage
        refinement straight to ``B`` (see :mod:`repro.core.coloring`).
    """
    inc = MessageEdgeIncidence.from_paths(paths)
    C, D = inc.congestion_dilation()
    if C <= B:
        colors = np.zeros(inc.num_messages, dtype=np.int64)
        trace = None
    else:
        trace = reduce_multiplex_size(paths, B=B, D=D, rng=rng, mode=mode)
        colors = trace.colors
    schedule = ColorClassSchedule.from_colors(colors, message_length, D)
    return ScheduleBuild(
        schedule=schedule,
        congestion=C,
        dilation=D,
        num_classes=schedule.num_classes,
        trace=trace,
    )


def schedule_workload(wl, B: int, *, rng: np.random.Generator | None = None):
    """Theorem 2.1.6 as a workload transform: ``wl.paths`` coloured for
    ``B`` virtual channels at ``L = wl.default_length`` (one ``"direct"``
    refinement stage), then :meth:`ScheduleBuild.apply`."""
    build = lll_schedule(wl.paths, wl.default_length, B, rng=rng, mode="direct")
    return build.apply(wl, B)


def greedy_conflict_coloring(
    paths: Sequence[Path] | Sequence[Sequence[int]],
) -> np.ndarray:
    """Greedy coloring of the worm conflict graph (footnote 5).

    Two worms conflict iff their paths share an edge; the conflict graph
    has degree at most ``D(C - 1)`` so greedy coloring uses at most
    ``D(C - 1) + 1`` colors.  Returns a dense color array.
    """
    inc = MessageEdgeIncidence.from_paths(paths)
    M = inc.num_messages
    if M == 0:
        return np.zeros(0, dtype=np.int64)

    # Enumerate conflict pairs edge by edge without an M x M matrix:
    # group incidences by edge, emit every within-group pair, then dedupe
    # unordered pairs via a combined a*M+b key.
    ids = np.asarray(inc.message_ids, dtype=np.int64)
    eids = np.asarray(inc.edge_ids, dtype=np.int64)
    sort = np.lexsort((ids, eids))
    m_sorted = ids[sort]
    _, group_start, group_size = np.unique(
        eids[sort], return_index=True, return_counts=True
    )
    # Entry p (position q in a group of n) pairs with the n - 1 - q
    # entries after it.
    pos = np.arange(m_sorted.size) - np.repeat(group_start, group_size)
    reps = np.repeat(group_size, group_size) - 1 - pos
    first_idx = np.repeat(np.arange(m_sorted.size), reps)
    ends = np.cumsum(reps)
    offset = np.arange(int(ends[-1]) if ends.size else 0) - np.repeat(
        ends - reps, reps
    )
    second = m_sorted[first_idx + 1 + offset]
    first = m_sorted[first_idx]

    # Paths are edge-simple (enforced by the incidence builder), so
    # lo < hi always; dedupe pairs that share several edges.
    lo = np.minimum(first, second)
    hi = np.maximum(first, second)
    key = np.unique(lo * M + hi)
    lo, hi = key // M, key % M
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])

    deg = np.bincount(src, minlength=M)
    indptr = np.zeros(M + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    adj = dst[np.argsort(src, kind="stable")]

    colors = np.full(M, -1, dtype=np.int64)
    # Color in order of decreasing degree (Welsh-Powell) for tighter
    # counts; stable argsort breaks ties by message index, matching the
    # stable Python sort this replaces.
    order = np.argsort(-deg, kind="stable")
    for m in order:
        used = colors[adj[indptr[m] : indptr[m + 1]]]
        # First free color: at most deg[m] colors are in use around m,
        # so a presence table of deg[m] + 1 slots always has a hole.
        present = np.zeros(int(deg[m]) + 1, dtype=bool)
        present[used[(used >= 0) & (used < present.size)]] = True
        colors[m] = int(np.argmin(present))
    return colors


def naive_coloring_schedule(
    paths: Sequence[Path] | Sequence[Sequence[int]],
    message_length: int,
) -> ScheduleBuild:
    """Footnote 5's baseline: route one conflict-free class at a time.

    Any class routes in ``L + D - 1`` steps with no waiting (no two worms
    of a class intersect), giving ``O((L + D) C D)`` total.  Valid for
    any ``B >= 1`` since the classes are conflict-free even at ``B = 1``.
    """
    paths = list(paths)
    colors = greedy_conflict_coloring(paths)
    C, D = MessageEdgeIncidence.from_paths(paths).congestion_dilation()
    schedule = ColorClassSchedule.from_colors(colors, message_length, D)
    return ScheduleBuild(
        schedule=schedule,
        congestion=C,
        dilation=D,
        num_classes=schedule.num_classes,
        trace=None,
    )
