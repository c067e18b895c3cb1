"""Shared simulation-engine core for every router in :mod:`repro.sim`.

The five routers (wormhole, cut-through, store-and-forward, restricted,
adaptive) implement different *buffer models* but share one synchronous
step protocol and one arbitration kernel.  This module owns that shared,
model-agnostic machinery; each router contributes only its advance rule
(a :mod:`repro.sim.kernels` class) and one row of the model table in
:mod:`repro.sim.batch`:

:func:`pad_paths` / :func:`check_edge_simple` / :class:`PaddedPaths`
    Path packing and validation.  :class:`PaddedPaths` caches one
    packed-and-validated matrix so repeated runs of the same workload
    (every seed of a sweep grid cell) skip the re-pack and re-check.
:func:`grant_free_slots` / :class:`BatchSlotArbiter`
    The vectorized contend/rank/grant kernel — refuse the contenders of
    full slots, grant every slot with seats to spare, and sort by
    ``(slot, priority)`` and rank only the contenders of over-subscribed
    slots, granting the first ``free`` of each — plus occupancy tracking
    for slot models that hold grants across steps (capacity-``B`` edges,
    or capacity-1 ``(edge, VC-class)`` pairs), laid out as one flat
    array over the combined ``(trial, slot)`` key space.  **This is the
    only place in** ``repro.sim`` **where the kernel exists**.
:class:`BatchStepLoop`
    The synchronous step protocol for ``T`` independent trials in
    lockstep: one shared clock, release gating, idle-gap skipping,
    forced-span coasting, per-trial completion / deadlock / step-cap
    masking, the telemetry probe lifecycle, and
    :class:`~repro.sim.stats.SimulationResult` assembly.  A serial run
    is the ``T = 1`` case of this loop — there is no second step loop
    and no second slot pool.

Bit-exactness contract
----------------------
The engine reproduces the original per-router loops *exactly*: the same
RNG draws in the same order, the same arbitration outcomes, the same
probe event ordering, and the same deadlock declarations.  The golden
suite in ``tests/sim/test_golden_equivalence.py`` pins this against
outputs recorded from the pre-engine simulators.

Edge-simplicity note
--------------------
Every slot-holding router validates that paths are edge-simple (a worm
cannot hold two buffer slots on one edge).  The store-and-forward
router is deliberately **exempt**: it holds no per-edge slot across
steps (an edge is owned only within the message step it transmits) and
its queues are unbounded, so a path that repeats an edge is still
well-defined — the message simply queues at that edge again.  See
MODEL.md section 6.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..network.graph import NetworkError
from ..routing.paths import Path
from ..telemetry.probe import ProbeSet
from . import fastpath
from .stats import SimulationResult

__all__ = [
    "BatchSlotArbiter",
    "BatchStepLoop",
    "PaddedPaths",
    "age_priorities",
    "check_edge_simple",
    "grant_free_slots",
    "grant_free_slots_reference",
    "pad_paths",
]


# ----------------------------------------------------------------------
# Path packing and validation.
# ----------------------------------------------------------------------


def check_edge_simple(
    padded: np.ndarray, what: str = "path of message {m} is not edge-simple"
) -> None:
    """Raise unless every padded path row is free of repeated edge ids.

    A single sort over the padded matrix replaces the former per-message
    ``np.unique`` loop: after sorting each row, a duplicate edge shows
    up as two equal adjacent entries (the ``-1`` padding is masked out),
    so the whole check is one vectorized pass regardless of ``M``.
    """
    if padded.shape[0] == 0 or padded.shape[1] < 2:
        return
    srt = np.sort(padded, axis=1)
    dup = (srt[:, 1:] == srt[:, :-1]) & (srt[:, 1:] >= 0)
    bad = np.flatnonzero(dup.any(axis=1))
    if bad.size:
        raise NetworkError(what.format(m=int(bad[0])))


def pad_paths(paths: Sequence[Path] | Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Pack ragged per-message edge-id lists into a padded matrix.

    Returns ``(padded, lengths)`` where ``padded`` has shape
    ``(M, max_len)`` with ``-1`` padding and ``lengths[m]`` is message
    ``m``'s path length ``D_m``.
    """
    if isinstance(paths, PaddedPaths):
        return paths.padded, paths.lengths
    edge_lists = [
        list(p.edges) if isinstance(p, Path) else list(p) for p in paths
    ]
    lengths = np.asarray([len(e) for e in edge_lists], dtype=np.int64)
    max_len = int(lengths.max()) if lengths.size else 0
    padded = np.full((len(edge_lists), max_len), -1, dtype=np.int64)
    for m, edges in enumerate(edge_lists):
        padded[m, : len(edges)] = edges
    return padded, lengths


class PaddedPaths:
    """A packed path matrix that can be reused across simulator runs.

    Packing (``pad_paths``) and edge-simplicity validation
    (``check_edge_simple``) depend only on the routes, not on ``B``,
    the seed, or the priority discipline — yet every ``run()`` call
    used to redo both.  Wrapping the routes once in a
    :class:`PaddedPaths` and passing *it* wherever ``paths`` is
    accepted amortizes that work over all trials of the workload (the
    sweep runner does this per worker process).

    Instances are simulator-agnostic: validation is cached by
    :meth:`require_edge_simple` and :meth:`require_edges_in`, and
    the ``padded`` / ``lengths`` arrays must be treated as read-only.
    """

    __slots__ = ("padded", "lengths", "_edge_simple", "_edges_needed")

    def __init__(self, padded: np.ndarray, lengths: np.ndarray) -> None:
        self.padded = padded
        self.lengths = lengths
        self._edge_simple = False
        self._edges_needed: int | None = None

    @classmethod
    def from_paths(
        cls, paths: "Sequence[Path] | Sequence[Sequence[int]] | PaddedPaths"
    ) -> "PaddedPaths":
        if isinstance(paths, cls):
            return paths
        return cls(*pad_paths(paths))

    @property
    def num_messages(self) -> int:
        return int(self.lengths.size)

    def require_edge_simple(self, what: str | None = None) -> "PaddedPaths":
        """Validate once; later calls (any caller, any message) are free."""
        if not self._edge_simple:
            if what is None:
                check_edge_simple(self.padded)
            else:
                check_edge_simple(self.padded, what)
            self._edge_simple = True
        return self

    def require_edges_in(self, num_edges: int) -> "PaddedPaths":
        """Raise unless every hop names one of ``num_edges`` edges;
        cached as the fewest edges the routes need."""
        if self._edges_needed is None or num_edges < self._edges_needed:
            hop = np.arange(self.padded.shape[1]) < self.lengths[:, None]
            bad = hop & ((self.padded < 0) | (self.padded >= num_edges))
            if bad.any():
                m, i = np.argwhere(bad)[0]
                raise NetworkError(
                    f"path of message {m} names edge {self.padded[m, i]}, "
                    f"but the network's edges are 0..{num_edges - 1}"
                )
            self._edges_needed = int(self.padded.max(initial=-1)) + 1
        return self


# ----------------------------------------------------------------------
# The arbitration kernel.
# ----------------------------------------------------------------------

_NO_SLOTS = np.zeros(0, dtype=np.int64)


def grant_free_slots(
    slots: np.ndarray,
    prio,
    capacity: int | np.ndarray,
    occupancy: np.ndarray | None = None,
) -> np.ndarray:
    """The vectorized contend/rank/grant kernel shared by every router.

    ``slots[i]`` is the slot id contender ``i`` requests and ``prio[i]``
    its priority (smaller wins).  Within each slot group the
    ``capacity - occupancy[slot]`` contenders of smallest priority (ties
    in input order) are granted.  Returns the boolean granted mask
    aligned with the input order.  Occupancy is **not** updated —
    callers that hold grants across steps go through
    :class:`BatchSlotArbiter`.

    A round pays for contested seats only (DESIGN decision 22).  Ranking
    inside a slot group reads that group's priorities and nothing else,
    so the mask can be settled group by group:

    1. a contender of a slot with no free seat (``occupancy >=
       capacity``, over-occupied included) is refused from one occupancy
       gather;
    2. a slot with no more viable contenders than free seats grants them
       all, unsorted;
    3. only the contenders of over-subscribed slots are sorted by
       ``(slot, priority)`` and ranked by the scan.

    Without ``occupancy`` every contender is viable and stage 1 is
    skipped.  ``prio`` is read only as ``prio[contested]``, so any
    object that gathers by an index array will do — a batched kernel
    passes its reserved random draws, which materialise only the values
    asked for (DESIGN decision 23).  The scan is
    :func:`repro.sim.fastpath.segmented_grant`, called exactly once per
    non-empty round with the contested contenders — possibly none.

    ``capacity`` may be a per-contender array (constant within each
    slot group) — this is how :class:`BatchSlotArbiter` arbitrates
    trials with different ``B`` in one call.  A scalar reaches the scan
    as a scalar.

    Slot ids must be non-negative and bounded by the caller's slot space
    (``occupancy.size``; ``T * num_edges`` for the kernels): per-slot
    counts come from ``np.bincount``, whose scratch is one integer per
    slot id up to the largest, and which raises ``ValueError`` on a
    negative id.
    """
    n = slots.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    live, live_slots = None, slots  # input positions in play (None = all)
    if occupancy is None:
        granted, free = np.ones(n, dtype=bool), capacity
    else:
        free = capacity - occupancy[slots]
        granted = free > 0
        viable = np.count_nonzero(granted)
        if viable == 0:
            fastpath.segmented_grant(slots[:0], capacity, occupancy)
            return granted
        if viable != n:
            live = granted.nonzero()[0]
            live_slots, free = slots[live], free[live]
    over = np.bincount(live_slots)[live_slots] > free
    if np.count_nonzero(over) == 0:
        fastpath.segmented_grant(slots[:0], capacity, occupancy)
        return granted
    contested = over.nonzero()[0]
    if live is not None:
        contested = live[contested]
    sub = slots[contested]
    order = np.lexsort((prio[contested], sub))
    contested = contested[order]
    # Materialising a scalar capacity per contender costs more than
    # scanning the handful of contenders a lone trial has.
    if isinstance(capacity, np.ndarray):
        capacity = capacity[contested]
    granted[contested] = fastpath.segmented_grant(
        sub[order], capacity, occupancy
    )
    return granted


def grant_free_slots_reference(
    slots: np.ndarray,
    prio: np.ndarray,
    capacity: int | np.ndarray,
    occupancy: np.ndarray | None = None,
) -> np.ndarray:
    """Naive per-slot reference for :func:`grant_free_slots`.

    Kept (not exported to routers) as the oracle for the fastpath
    parity suite: for every distinct slot, stable-sort its contenders
    by priority and grant the first ``capacity - occupancy`` of them.
    Quadratic and allocation-happy — never used in the hot path.
    """
    slots = np.asarray(slots)
    prio = np.asarray(prio)
    granted = np.zeros(slots.size, dtype=bool)
    for slot in np.unique(slots):
        members = np.flatnonzero(slots == slot)
        members = members[np.argsort(prio[members], kind="stable")]
        if isinstance(capacity, np.ndarray):
            free = int(capacity[members[0]])
        else:
            free = int(capacity)
        if occupancy is not None:
            free -= int(occupancy[slot])
        # Over-occupied slots have no free seats, not a wrapped slice.
        granted[members[: max(free, 0)]] = True
    return granted


def age_priorities(release: np.ndarray) -> np.ndarray:
    """Earlier-released-first priority ranks, ties broken by index."""
    return np.lexsort((np.arange(release.size), release)).argsort()


class BatchSlotArbiter:
    """``T`` independent slot pools arbitrated in one kernel call.

    A *slot* is whatever a router's buffer model holds across steps: a
    physical edge with capacity ``B`` (interchangeable virtual
    channels), or an ``(edge, VC-class)`` pair with capacity 1 (the
    Dally-Seitz mechanism).  Trial ``i`` owns ``num_slots[i]`` slots
    with capacity ``capacities[i]``; the pools are laid out back to
    back in one flat occupancy array, and every contention round runs
    :func:`grant_free_slots` once over the combined ``(trial, slot)``
    key ``offset[trial] + slot`` (:meth:`keys`).  Because keys never
    collide across trials, the grants for each trial are exactly what
    arbitrating its pool alone would have produced — trials may even
    have different capacities (a mixed-``B`` batch), read per key from
    a per-slot capacity table.  :meth:`grant` and :meth:`vacate` take
    combined keys, so a caller that tabulates them once never pays for
    building them per round.
    """

    def __init__(
        self,
        num_slots: np.ndarray | Sequence[int],
        capacities: np.ndarray | Sequence[int],
    ) -> None:
        num_slots = np.asarray(num_slots, dtype=np.int64)
        self.capacities = np.asarray(capacities, dtype=np.int64)
        if num_slots.shape != self.capacities.shape or num_slots.ndim != 1:
            raise NetworkError(
                "num_slots and capacities must be 1-D arrays of equal length"
            )
        if num_slots.size and self.capacities.min() < 1:
            raise NetworkError("slot capacity must be >= 1")
        self.num_trials = int(num_slots.size)
        # One capacity for every pool (a lone trial, a one-``B`` batch)
        # is handed to the grant as the scalar it is.
        caps = self.capacities
        self._uniform = (
            int(caps[0]) if caps.size and (caps == caps[0]).all() else None
        )
        self.offsets = np.zeros(self.num_trials + 1, dtype=np.int64)
        np.cumsum(num_slots, out=self.offsets[1:])
        self.occupancy = np.zeros(int(self.offsets[-1]), dtype=np.int64)
        self._slot_cap = (
            None if self._uniform is not None else np.repeat(caps, num_slots)
        )

    def keys(self, trials: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Combined ``(trial, slot)`` keys into the flat occupancy."""
        return self.offsets[trials] + slots

    def grant(self, keys: np.ndarray, prio) -> tuple[np.ndarray, int]:
        """One combined round over ``keys``: ``(granted mask, number
        granted)``, the winners' seats acquired.  Nothing is written when
        nobody won."""
        capacity = self._uniform
        if capacity is None:
            capacity = self._slot_cap.take(keys)
        granted = grant_free_slots(keys, prio, capacity, self.occupancy)
        won = int(np.count_nonzero(granted))
        if won:
            np.add.at(self.occupancy, keys[granted], 1)
        return granted, won

    def vacate(self, keys: np.ndarray) -> None:
        np.add.at(self.occupancy, keys, -1)

    def full(self, keys: np.ndarray) -> bool:
        """Whether every slot in ``keys`` has all its seats held."""
        capacity = self._uniform
        if capacity is None:
            capacity = self._slot_cap.take(keys)
        return bool((self.occupancy.take(keys) >= capacity).all())

    def refuse(self, rounds: int) -> None:
        """``rounds`` rounds in which every contender's slot is full.

        Each is the stage-1 refusal of :func:`grant_free_slots`: no
        seat changes hands, and the round still makes its one empty
        ``fastpath.segmented_grant`` call.
        """
        capacity = _NO_SLOTS if self._uniform is None else self._uniform
        for _ in range(rounds):
            fastpath.segmented_grant(_NO_SLOTS, capacity, self.occupancy)


# ----------------------------------------------------------------------
# The synchronous (lockstep) step loop.
# ----------------------------------------------------------------------

_FAR_FUTURE = np.iinfo(np.int64).max


class BatchStepLoop:
    """The synchronous step protocol, for ``T`` independent trials.

    The loop owns everything that is *not* the buffer model: time
    advance, release gating (a message released at ``r`` first contends
    at step ``r + 1``), idle-gap skipping, the step caps, deadlock
    declaration, the telemetry probe lifecycle, and result assembly.
    All trials share one clock and one ``body(t, active)`` call per
    step, or per forced span; per-trial state lives in stacked
    ``(T, M)`` arrays:

    * ``active`` is the ``(T, M)`` mask of released, unfinished
      messages of still-running trials; the body mutates
      :attr:`completion` / :attr:`done` / :attr:`blocked` in place,
      dispatches its own probe events (grant/block/release/complete/
      step — their order is part of each kernel's contract) and returns
      the ``(T,)`` mask of trials in which any message moved;
    * a trial whose last message completes at step ``t`` is finalized
      with ``steps = t`` and drops out of the active set — the batch
      never stalls on it again;
    * a trial that executed a step without movement while every one of
      its pending messages was already released can never change
      configuration again and is declared deadlocked at that step
      (``detect_deadlock=False`` opts out for models that cannot
      deadlock, e.g. greedy store-and-forward);
    * each trial has its own step cap; a trial that is still pending
      after executing step ``max_steps[i]`` (or before any step, when
      the cap is not positive) is finalized with the cap flag;
    * idle trials (pending messages, none released yet) wait without
      consuming work; when *every* live trial is idle the shared clock
      jumps to the earliest next release.  A trial whose next release
      lies at or beyond its step cap is finalized with ``steps`` = that
      release time and the cap flag set;
    * a body may apply the forced steps after its own in the same call
      and report them in :attr:`coasted` (MODEL.md section 3: the
      wormhole kernel's rounds that can grant nothing); the clock
      advances by them before the checks above run, and
      :meth:`coast_limit` bounds such a span by the next release and
      the smallest live cap, so the checks see what step-by-step runs
      would have seen.

    Trials are independent: a trial's state evolves only in steps where
    it has active messages, and the steps it merely waits through touch
    none of its state, so trial ``i`` of a batch is bit-identical to the
    same trial run alone — a *serial* run is simply ``T = 1``.

    Probes (``probes=``, a :class:`~repro.telemetry.probe.ProbeSet`) are
    a ``T = 1`` contract: a multi-trial event stream would interleave
    trials.  With probes attached the loop stops at the end of the step
    in which one requests an abort (``hit_step_cap`` then reports
    whether messages were still pending, and
    ``extra["telemetry_abort"]`` carries the reason), and dispatches
    ``on_deadlock`` before ``on_run_end`` so kernels cannot drift apart
    in their lifecycle behaviour.

    The per-step mask work is guarded by scalars the loop maintains
    itself (the live-trial count :attr:`num_live`, the count of
    delivered messages, the count of trials that moved, the smallest
    live cap): the guards depend only on loop state, so every ``T``
    takes the same path and a lone trial does not pay for masks that
    can only matter to a batch.  Two more serve the kernels and the
    prologue (DESIGN decision 21):

    * :attr:`hi`, 1 + the highest live trial row, kept by ``_finalize``
      next to :attr:`num_live` — trials never come back to life, so a
      kernel may slice its per-step work to ``[:hi]``, and
      ``num_live < hi`` says whether a finalized trial sits below it;
    * ``last_release``, read once.  While ``t <= last_release`` the
      loop builds ``active = released & ~done``, scans for idle trials
      and may jump the clock; once ``t > last_release`` every pending
      message is released and every live trial has one (a trial whose
      messages are all delivered is finalized in that same step), so
      ``active`` is just ``~done``, no trial can be idle, and the scan
      is skipped.

    ``active`` is one buffer the loop overwrites each step: a body must
    not keep it across calls.
    """

    def __init__(
        self,
        num_trials: int,
        num_messages: int,
        release: np.ndarray,
        max_steps: np.ndarray | int,
        *,
        probes: "ProbeSet | None" = None,
        detect_deadlock: bool = True,
        time_scale: int | np.ndarray = 1,
    ) -> None:
        self.T = int(num_trials)
        self.M = int(num_messages)
        if probes is not None and self.T != 1:
            # A bare ``assert`` would vanish under ``python -O`` and
            # silently emit a garbled multi-trial event stream instead.
            raise NetworkError(
                "telemetry probes are supported on single-trial runs only "
                f"(T = 1), got T = {self.T}"
            )
        self.probes = probes
        # Releases may differ per trial (store-and-forward converts flit
        # steps to per-trial message steps): accept (M,) or (T, M).
        self.release = np.broadcast_to(
            np.asarray(release, dtype=np.int64), (self.T, self.M)
        )
        self.max_steps = np.empty(self.T, dtype=np.int64)
        self.max_steps[:] = max_steps
        self.detect_deadlock = detect_deadlock
        self.time_scale = np.empty(self.T, dtype=np.int64)
        self.time_scale[:] = time_scale
        self.completion = np.full((self.T, self.M), -1, dtype=np.int64)
        self.blocked = np.zeros((self.T, self.M), dtype=np.int64)
        self.done = np.zeros((self.T, self.M), dtype=bool)
        self.live = np.ones(self.T, dtype=bool)
        self.num_live = self.T
        #: 1 + the highest live trial row: kernels slice their per-step
        #: work to ``[:hi]`` (trials never come back to life).
        self.hi = self.T
        self.steps = np.zeros(self.T, dtype=np.int64)
        self.deadlocked = np.zeros(self.T, dtype=bool)
        self.hit_cap = np.zeros(self.T, dtype=bool)
        self.t = 0
        #: Forced steps the last ``body`` call applied after its own step
        #: (:meth:`coast_limit`); the loop advances its clock by them.
        self.coasted = 0
        #: A lower bound on every live trial's step cap.
        self.min_cap = 0

    def mark_trivial(self, trivial: np.ndarray, completion: np.ndarray) -> None:
        """Deliver zero-length-path messages at their release time."""
        if trivial.any():
            self.done[:, trivial] = True
            self.completion[:, trivial] = np.asarray(completion)[..., trivial]

    def _finalize(self, which: np.ndarray, steps: "int | np.ndarray") -> None:
        """Retire trials ``which`` (a mask or index array) at ``steps``."""
        live = self.live
        self.steps[which] = steps
        live[which] = False
        self.num_live = int(np.count_nonzero(live))
        hi = self.hi
        while hi and not live[hi - 1]:
            hi -= 1
        self.hi = hi

    def _apply_caps(self, t: int) -> None:
        capped = self.live & (t >= self.max_steps)
        self.hit_cap[capped] = True
        self._finalize(capped, t)

    def run(
        self,
        body: Callable[[int, np.ndarray], np.ndarray],
        extra_factory: Callable[[int], dict] | None = None,
    ) -> list[SimulationResult]:
        """Step every trial to its end; per-trial results in trial order.

        ``extra_factory(i)`` supplies trial ``i``'s ``extra`` dict (see
        :meth:`results`).
        """
        probes = self.probes
        self._advance(body)
        results = self.results(extra_factory)
        if probes is not None:
            if self.deadlocked[0]:
                probes.on_deadlock(
                    int(self.steps[0]), np.flatnonzero(~self.done[0])
                )
            elif probes.aborted:
                results[0].extra["telemetry_abort"] = probes.abort_reason
            probes.on_run_end(results[0])
        return results

    def _advance(self, body: Callable[[int, np.ndarray], np.ndarray]) -> None:
        release, done, live, probes = (
            self.release, self.done, self.live, self.probes
        )
        T, detect_deadlock = self.T, self.detect_deadlock
        t = self.t
        # Trials with nothing to do (all paths trivial) end at step 0, as
        # do trials whose cap leaves them no step at all.
        self._finalize(done.all(axis=1), t)
        self._apply_caps(t)
        # A lower bound on every live trial's cap; refreshed when reached.
        self.min_cap = int(self.max_steps[live].min()) if self.num_live else 0
        delivered = int(np.count_nonzero(done))
        # Past the last release no live trial can be idle (class
        # docstring): ``active`` is ``~done`` and the idle scan is moot.
        last_release = int(release.max()) if self.num_live else 0
        self._releases = np.unique(release)
        active = np.empty((T, self.M), dtype=bool)
        while self.num_live:
            t += 1
            all_released = t > last_release
            if all_released:
                np.logical_not(done, out=active)
            else:
                np.less(release, t, out=active)
                np.greater(active, done, out=active)  # released & ~done
            if self.num_live < T:
                active &= live[:, None]
            act_any = live if all_released else active.any(axis=1)
            # Only live rows can be active, so a short count means a
            # live trial is idle (pending messages, none released yet).
            if not all_released and np.count_nonzero(act_any) != self.num_live:
                # An idle trial's clock jumps to its next release; a
                # jump landing at or past the trial's step cap exits
                # right there with the cap flag set.
                rows = np.flatnonzero(live & ~act_any)
                minrel = np.where(
                    done[rows], _FAR_FUTURE, release[rows]
                ).min(axis=1)
                over = minrel >= self.max_steps[rows]
                if over.any():
                    self.hit_cap[rows[over]] = True
                    self._finalize(rows[over], minrel[over])
                if not act_any.any():
                    if not over.all():
                        # Every surviving trial is idle: jump the shared
                        # clock to the earliest next release.
                        t = int(minrel[~over].min())
                    continue
            moved = body(t, active)
            if self.coasted:
                # The body also applied the forced steps t + 1 ..
                # t + coasted; the checks below see the last of them.
                t += self.coasted
                self.coasted = 0
            if probes is not None and probes.aborted:
                # Stop at the end of this step (T = 1); messages still
                # pending mark the run as cut short.
                self.hit_cap[live] = ~done[live].all(axis=1)
                self._finalize(live.copy(), t)
                break
            # 1) trials whose last message finished this step
            now_delivered = int(np.count_nonzero(done))
            if now_delivered != delivered:
                delivered = now_delivered
                self._finalize(live & done.all(axis=1), t)
            # 2) deadlock: a trial that executed this step without any
            # movement while all its pending messages were released can
            # never change configuration again.
            if detect_deadlock and np.count_nonzero(moved) != T:
                stuck = live & act_any & ~moved
                if stuck.any():
                    unreleased = (~done & (release >= t)).any(axis=1)
                    dead = stuck & ~unreleased
                    self.deadlocked |= dead
                    self._finalize(dead, t)
            # 3) per-trial step caps.
            if t >= self.min_cap:
                self._apply_caps(t)
                self.min_cap = (
                    int(self.max_steps[live].min()) if self.num_live else 0
                )
        self.t = t

    def coast_limit(self, t: int) -> int:
        """The last step a body called at step ``t`` may apply at once.

        A body may go on to apply the forced steps ``t + 1 .. t + s`` of
        a span it can predict (setting :attr:`coasted` to ``s``) if it
        stops at or before this step: the last before a release makes a
        message active (a message released at ``r`` first contends at
        ``r + 1``), and the first at which a live trial may reach its
        step cap.  A span's only completions fall on its last step, so
        the loop's checks after the call see every trial as they would
        have seen it step by step.
        """
        releases = self._releases
        i = releases.searchsorted(t)
        nxt = int(releases[i]) if i < releases.size else _FAR_FUTURE
        return min(nxt, self.min_cap)

    def results(
        self, extra_factory: Callable[[int], dict] | None = None
    ) -> list[SimulationResult]:
        """Per-trial :class:`SimulationResult` objects, in trial order.

        ``extra_factory(i)`` supplies trial ``i``'s ``extra`` dict (e.g.
        the store-and-forward per-trial queue-depth telemetry).
        """
        out = []
        for i in range(self.T):
            completion = self.completion[i].copy()
            out.append(
                SimulationResult(
                    completion_times=completion,
                    makespan=int(completion.max()) if self.M else -1,
                    steps_executed=int(self.steps[i]) * int(self.time_scale[i]),
                    blocked_steps=self.blocked[i].copy(),
                    deadlocked=bool(self.deadlocked[i]),
                    hit_step_cap=bool(self.hit_cap[i]),
                    extra=extra_factory(i) if extra_factory is not None else {},
                )
            )
        return out
