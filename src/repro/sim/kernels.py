"""Model-parameterized lockstep kernels: one body per buffer model.

Every router in :mod:`repro.sim` advances the same struct-of-arrays
state shape — per-(trial, message) integers stacked as ``(T, M)``
arrays — and differs only in its *buffer semantics*: per-edge
capacity-``B`` slots for interchangeable virtual channels (wormhole),
``(edge, class)`` capacity-1 slots for the Dally-Seitz mechanism,
single-owner edges with ``B``-flit compression for cut-through,
whole-packet hops for store-and-forward, one-flit-per-edge rotating
service for the restricted model, and mask-based online route selection
for adaptive meshes.  This module holds those semantics as five kernel
classes with one construction contract (see :class:`_Kernel`): a
``pack(...)`` classmethod that validates and packs the model's problem
into a :class:`Packed`, one ``__init__(loop, packed, *, B, option,
rngs)``, and one vectorized ``body(t, active)`` over ``(T, M)`` state.
A buffer model is one such class and one
:data:`repro.sim.batch.LOCKSTEP_MODELS` row; ``run_<model>_batch`` is
its typed name.

There is one execution path: the driver body in :mod:`repro.sim.batch`
builds the kernel over a :class:`~repro.sim.engine.BatchStepLoop` at
``T`` trials and the loop steps them in lockstep (one contend/rank/grant
call per step over the combined ``(trial, slot)`` key space).  The
simulator classes are the ``T = 1`` case of the same driver, so there is
exactly one arbitration implementation per model and one step protocol
for all.

Bit-exactness contract
----------------------
Trial ``i`` of a batch is bit-identical to the same trial run alone with
``seeds[i]``: each trial draws from its **own** RNG in a fixed order
(draws happen only in steps/phases where that trial acts), the combined
arbitration key space keeps trials' slot groups disjoint, and a trial's
state is only read or written where it has active messages.  Telemetry
probes ride on the loop (``state.probes``) and are supported at
``T = 1`` only, where each kernel reproduces the legacy event stream
call for call, in the same order.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..network.graph import NetworkError
from .engine import (
    BatchSlotArbiter,
    PaddedPaths,
    age_priorities,
    grant_free_slots,
    pad_paths,
)
from .stats import AdaptiveRunResult

__all__ = [
    "AdaptiveKernel",
    "CutThroughKernel",
    "RestrictedKernel",
    "StoreForwardKernel",
    "WormholeKernel",
]

_FAR = np.iinfo(np.int64).max

# Shared empty index vector for "no events this step" fancy assignments.
_EMPTY_IDX = np.zeros(0, dtype=np.int64)
# Combined candidate-key space for the restricted rotating service:
# admission stamps sort below _HDR_BASE, header keys at _HDR_BASE + site,
# ineligible entries at _FAR.
_HDR_BASE = np.int64(1) << 40


# ----------------------------------------------------------------------
# Problem packing: the input validation every path performs.
# ----------------------------------------------------------------------


class Packed(SimpleNamespace):
    """One call's validated, packed problem — what ``pack`` returns.

    The driver reads ``lengths`` (path / Manhattan lengths ``D_m``),
    ``message_length`` (per-message ``L`` or a scalar), ``release``
    (``(M,)``, or per-trial ``(T, M)``, in loop steps), ``num_edges``
    and ``padded`` (the shared route matrix; ``None`` when routes are
    chosen online), plus the optional fields defaulted below.  Any
    other attribute is the packing kernel's own.
    """

    #: :class:`~repro.telemetry.probe.RunMeta` fields probes are told.
    num_virtual_channels: int = 1
    extra: dict = {}
    #: :class:`~repro.sim.engine.BatchStepLoop` keywords.
    loop_options: dict = {}


def _shared_lengths(message_length, M: int) -> np.ndarray:
    """Per-message ``L`` (scalar or ``(M,)``), shared by all trials."""
    try:
        L = np.broadcast_to(
            np.asarray(message_length, dtype=np.int64), (M,)
        ).copy()
    except ValueError:
        raise NetworkError(
            f"message_length must be a scalar or have shape ({M},), got "
            f"shape {np.asarray(message_length).shape}"
        ) from None
    if M and L.min() < 1:
        raise NetworkError("message length L must be >= 1")
    return L


def _scalar_length(message_length) -> int:
    """One ``L`` for every message (whole-message / mesh models)."""
    L = np.asarray(message_length)
    if L.ndim != 0:
        raise NetworkError(
            f"message_length must be a scalar for this model, got shape "
            f"{L.shape}"
        )
    if L < 1:
        raise NetworkError("message length L must be >= 1")
    return int(L)


def _shared_release(release_times, M: int) -> np.ndarray:
    """Per-message release times shared by all trials."""
    release = (
        np.zeros(M, dtype=np.int64)
        if release_times is None
        else np.asarray(release_times, dtype=np.int64).copy()
    )
    if release.shape != (M,):
        raise NetworkError(
            f"release_times must have shape ({M},), got shape {release.shape}"
        )
    if M and release.min() < 0:
        raise NetworkError("release times must be >= 0")
    return release


def _pack_routes(
    net, paths, message_length, release_times, what: str | None = None
) -> Packed:
    """Pack and validate a slot-holding model's shared routes (``what``
    is the model's own wording of an edge-simplicity violation)."""
    pp = PaddedPaths.from_paths(paths)
    L = _shared_lengths(message_length, pp.num_messages)
    pp.require_edge_simple(what)
    return Packed(
        lengths=pp.lengths,
        message_length=L,
        release=_shared_release(release_times, pp.num_messages),
        num_edges=net.num_edges,
        padded=pp.padded,
    )


def check_mesh(cube) -> None:
    """Turn models are stated for 2-D meshes without wraparound."""
    if cube.n != 2 or cube.wrap:
        raise NetworkError("adaptive routing is implemented for 2-D meshes")


class _RandomBlock:
    """Buffered per-trial uniform draws, bit-identical to per-call draws.

    ``Generator.random`` is *split-exact*: ``random(a)`` followed by
    ``random(b)`` yields exactly the values of one ``random(a + b)``
    call, because PCG64 consumes one fixed stream increment per double.
    Buffering a block per trial and serving later requests from it
    therefore preserves every served value bit for bit while replacing
    the per-trial Python draw loop with one vectorized gather per
    arbitration round.  Refills shift the unconsumed tail down and top
    the block up (split-exactness again), so they stay O(T) Python work
    but amortize over ~``block / M`` rounds.

    Only used at ``T > 1``: batch RNGs are created per batch run and
    discarded, so the over-drawn tail is unobservable.  A lone trial
    keeps its one-draw-per-round call — a simulator instance passes its
    own generator as the seed and can be run twice on one continuing
    stream.
    """

    __slots__ = ("rngs", "T", "block", "buf", "cur")

    def __init__(self, rngs: list, block: int) -> None:
        self.rngs = rngs
        self.T = len(rngs)
        self.block = int(block)
        self.buf = np.empty((self.T, self.block), dtype=np.float64)
        self.cur = np.full(self.T, self.block, dtype=np.int64)

    def draw(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Serve ``counts[tr]`` values per trial along sorted ``rows``."""
        cur = self.cur
        lack = np.flatnonzero(cur + counts > self.block)
        for tr in lack:
            rem = self.block - cur[tr]
            if rem:
                self.buf[tr, :rem] = self.buf[tr, cur[tr] :]
            self.buf[tr, rem:] = self.rngs[tr].random(self.block - rem)
            cur[tr] = 0
        starts = np.zeros(self.T + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        within = np.arange(rows.size) - starts[rows]
        vals = self.buf[rows, cur[rows] + within]
        cur += counts
        return vals


class _Kernel:
    """The construction contract every kernel shares, and common plumbing.

    ``pack(problem, routes, message_length, release_times, *, B, option,
    rngs, **own)`` validates one call's problem and packs it into a
    :class:`Packed` (setup draws that shape the problem itself are made
    here, trial by trial); ``__init__(loop, packed, *, B, option, rngs)``
    then builds the ``(T, M)`` state over the opened loop (setup draws
    that shape arbitration are made here).  ``B`` is the validated
    per-trial ``(T,)`` knob array and ``option`` the arbitration choice.
    """

    _rand_block: "_RandomBlock | None" = None
    #: Optional ``extra_factory(i) -> dict`` for trial ``i``'s result
    #: ``extra`` (see :meth:`~repro.sim.engine.BatchStepLoop.run`).
    extra_factory = None

    def __init__(self, loop, packed: Packed, *, B, option, rngs) -> None:
        self.state = loop
        self.T, self.M = loop.T, loop.M
        self.num_edges = int(packed.num_edges)
        self.padded = packed.padded
        self.D = packed.lengths
        self.L = packed.message_length
        self.B = B
        self.option = option
        self.rngs = rngs
        self.probes = loop.probes

    @classmethod
    def pack(
        cls, net, paths, message_length, release_times, *, B, option, rngs
    ) -> Packed:
        """Default: shared edge-simple routes, per-message ``L``."""
        return _pack_routes(net, paths, message_length, release_times)

    @staticmethod
    def finish(results: list, kernel: "_Kernel | None") -> list:
        """The driver's return value; ``kernel`` is ``None`` when there
        was no message to route."""
        return results

    def _random_prio(self, rows: np.ndarray) -> np.ndarray:
        """One uniform priority per contender, in serial draw order.

        ``rows`` is the trial id per contender, sorted (``np.nonzero``
        order), so each trial's contenders are contiguous and in
        message-index order — the serial draw order.  Trials without
        contenders draw nothing, exactly like their serial runs.
        """
        if self.T == 1:
            return self.rngs[0].random(rows.size)
        if self._rand_block is None:
            # A refill is a few µs of Python whatever its size: the
            # floor is what amortises it when M is small.
            self._rand_block = _RandomBlock(
                self.rngs, max(4 * self.M, 512)
            )
        counts = np.bincount(rows, minlength=self.T)
        return self._rand_block.draw(rows, counts)


# ----------------------------------------------------------------------
# Wormhole: per-edge capacity-B slots (or (edge, class) capacity-1).
# ----------------------------------------------------------------------


class WormholeKernel(_Kernel):
    """Lockstep worms over capacity-``B`` virtual-channel slots.

    State is one integer per (trial, message): the completed-move count
    ``k``.  Headers contend for the slot on path edge ``k`` each step;
    granted worms advance, the tail's vacated slot frees after move
    ``k - L - 1``, and the final edge's slot frees at completion.  The
    per-step masks (who needs an edge, who moves, whose tail or head
    reached an event) are dense ``(T, M)`` ``out=`` ops; index lists
    are built only in a phase whose mask counts non-zero.
    """

    @classmethod
    def pack(
        cls, net, paths, message_length, release_times, *, B, option, rngs,
        vc_ids=None,
    ) -> Packed:
        packed = _pack_routes(
            net, paths, message_length, release_times,
            "path of message {m} is not edge-simple; a worm cannot "
            "hold two virtual channels on one edge",
        )
        packed.num_virtual_channels = int(B[0])
        packed.vc_padded = None
        if vc_ids is not None:
            # Per-hop virtual-channel classes: one id per path edge,
            # below every trial's B.
            vc_padded, vc_lengths = pad_paths([list(v) for v in vc_ids])
            if not np.array_equal(vc_lengths, packed.lengths):
                raise NetworkError("vc_ids must match the path lengths")
            valid, b_min = packed.padded >= 0, int(B.min())
            if valid.any() and (
                vc_padded[valid].min() < 0 or vc_padded[valid].max() >= b_min
            ):
                raise NetworkError(f"vc ids must lie in [0, {b_min})")
            packed.vc_padded = vc_padded
        return packed

    def __init__(self, loop, packed: Packed, *, B, option, rngs) -> None:
        super().__init__(loop, packed, B=B, option=option, rngs=rngs)
        T, M = self.T, self.M
        self.vc_padded = packed.vc_padded
        self._moved = np.zeros(T, dtype=bool)
        self._needs = np.empty((T, M), dtype=bool)
        self._mov = np.empty((T, M), dtype=bool)
        self._ev = np.empty((T, M), dtype=bool)
        # Slot model per trial: without VC classes a slot is an edge with
        # capacity B[i]; with classes, an (edge, class) pair, capacity 1.
        if self.vc_padded is None:
            self.arbiter = BatchSlotArbiter(
                np.full(T, self.num_edges, dtype=np.int64), B
            )
        else:
            self.arbiter = BatchSlotArbiter(
                self.num_edges * B, np.ones(T, dtype=np.int64)
            )
        self.total_moves = self.L + self.D - 1
        self.k = np.zeros((T, M), dtype=np.int64)
        self.age_priority = (
            age_priorities(packed.release) if option == "age" else None
        )
        self.rank_priority = (
            np.stack([rng.permutation(M) for rng in rngs])
            if option == "rank"
            else None
        )

    def _slots(
        self, trials: np.ndarray, msgs: np.ndarray, hop: np.ndarray
    ) -> np.ndarray:
        """Per-trial slot ids for the given (trial, message, hop) picks."""
        edges = self.padded[msgs, hop]
        if self.vc_padded is None:
            return edges
        return edges * self.B[trials] + self.vc_padded[msgs, hop]

    def body(self, t: int, active: np.ndarray) -> np.ndarray:
        k, D, probes = self.k, self.D, self.probes
        loop, arbiter = self.state, self.arbiter
        # Dense (T, M) masks guarded by their own counts: a step pays
        # index lists only for the phases in which something happens.
        needs, mov, ev = self._needs, self._mov, self._ev
        np.less(k, D, out=needs)
        np.logical_and(needs, active, out=needs)
        np.greater(active, needs, out=mov)  # draining worms always move

        if np.count_nonzero(needs):
            # Row-major contender order: per trial, ascending message —
            # the serial draw order.
            crows, ccols = needs.nonzero()
            hop = k[crows, ccols]
            slots = self._slots(crows, ccols, hop)
            if self.option == "random":
                prio = self._random_prio(crows)
            elif self.option == "age":
                prio = self.age_priority[ccols]
            elif self.option == "rank":
                prio = self.rank_priority[crows, ccols]
            else:
                prio = ccols
            granted, won = arbiter.grant(crows, slots, prio)
            if won:
                mov[crows[granted], ccols[granted]] = True
            if probes is not None:
                raw = self.padded[ccols, hop]
                probes.on_grant(t, ccols[granted], raw[granted])
                if won != crows.size:
                    lost = ~granted
                    probes.on_block(t, ccols[lost], raw[lost])
            # Contenders that did not move were refused.
            np.greater(needs, mov, out=needs)
            np.add(loop.blocked, needs, out=loop.blocked)

        np.add(k, mov, out=k)
        # Release the buffer the tail just vacated, path index
        # k - L - 1 >= 0; k never exceeds L + D - 1, so that index stays
        # below the final edge, whose slot is released at completion
        # instead (same rule as serial).
        np.greater(k, self.L, out=ev)
        np.logical_and(ev, mov, out=ev)
        if np.count_nonzero(ev):
            vrows, vcols = ev.nonzero()
            rel_idx = k[vrows, vcols] - self.L[vcols] - 1
            arbiter.vacate(vrows, self._slots(vrows, vcols, rel_idx))
            if probes is not None:
                probes.on_release(t, vcols, self.padded[vcols, rel_idx])
        np.equal(k, self.total_moves, out=ev)
        np.logical_and(ev, mov, out=ev)
        if np.count_nonzero(ev):
            frows, fcols = ev.nonzero()
            loop.completion[frows, fcols] = t
            loop.done[frows, fcols] = True
            arbiter.vacate(frows, self._slots(frows, fcols, D[fcols] - 1))
            if probes is not None:
                probes.on_release(t, fcols, self.padded[fcols, D[fcols] - 1])
                probes.on_complete(t, fcols)
        if probes is not None:
            probes.on_step(t, np.flatnonzero(mov[0]), k[0])
        return np.logical_or.reduce(mov, axis=1, out=self._moved)


# ----------------------------------------------------------------------
# Cut-through: single-owner edges with B-flit compression.
# ----------------------------------------------------------------------


class CutThroughKernel(_Kernel):
    """Ownership-based cut-through advance over ``(maxD, T, M)`` counts.

    ``crossed[r, t, m]`` is the number of trial ``t``'s message ``m``
    flits that crossed path edge ``i = maxD - 1 - r`` (tail-first); the
    buffer at the head of edge ``i`` holds ``crossed[i] - crossed[i+1]``
    flits (capped at ``B``).  Headers claim unowned edges via one
    capacity-1 grant per step; owned edges each forward one flit,
    serviced head-first (descending path index) so a slot vacated this
    step refills this step.  The scan axis leads the layout so every
    per-step ufunc touches ``maxD`` contiguous ``T * M`` slabs instead
    of ``T * M`` tiny ``maxD`` segments.

    A step pays for what can change (DESIGN decision 21).  Everything
    that moves only at sparse events is *maintained* where the event
    happens, never re-derived from ``crossed`` / ``owner``:

    * ``_h[t, m]``, the header's next uncrossed path index, and the two
      flat gather indices that follow it — ``_hv`` into the advance mask
      ``v`` and ``_want``, the ``owner`` key of the edge the header
      needs next — are updated in the steps a header moves;
    * ``_owned[r, t, m]`` (does the message own that path edge) is set
      at the grant and cleared at the release;
    * the row-sliced views of all scratch (``_slice``) are rebuilt only
      when ``loop.hi`` moves.

    Three sentinels make the per-step masks unconditional.  ``owner``
    has one extra column ``num_edges`` that is always owned, and the
    route table ``_routes`` maps path padding and a delivered header
    (``h == D``) to it, so ``claim = active & (owner[want] < 0)`` needs
    no ``h < D`` gate.  ``v`` has one always-zero guard slab in front,
    so a header at ``h == D == maxD`` reads "did not move" (for
    ``D < maxD`` it reads a slab beyond the path, which is zero
    anyway).  ``_cap`` holds ``B`` inside a path and int32 max on its
    last edge — delivery drains instantly — so buffer slack is one
    compare.

    Ownership needs no ``& active`` mask: **a message owns edges only
    while it is released and undelivered.**  It claims only when active
    (released, pending, trial live); edge ``i - 1`` is released in the
    step edge ``i`` carries its ``L``-th flit, counts are non-increasing
    along a path, and the last edge reaching ``L`` *is* delivery and
    releases both itself and the edge before it — so at delivery every
    edge is already surrendered.  What remains below ``hi`` is trials
    the loop finalized early (step cap, deadlock): they are masked
    under the scalar guard ``num_live < hi``, so a finalized trial's
    state is frozen.
    """

    @classmethod
    def pack(
        cls, net, paths, message_length, release_times, *, B, option, rngs
    ) -> Packed:
        packed = _pack_routes(net, paths, message_length, release_times)
        packed.extra = {"flits_per_grant": packed.message_length}
        return packed

    def __init__(self, loop, packed: Packed, *, B, option, rngs) -> None:
        super().__init__(loop, packed, B=B, option=option, rngs=rngs)
        T, M = self.T, self.M
        num_edges, padded = self.num_edges, self.padded
        self.max_D = int(padded.shape[1])
        maxD = self.max_D
        # The movement phase runs in TAIL-FIRST, SCAN-AXIS-FIRST layout:
        # axis 0 position r is path index i = maxD-1-r, so the
        # head-first suffix recurrence becomes a prefix scan along axis
        # 0 and every elementwise op streams maxD contiguous (T, M)
        # slabs.  Counts fit comfortably in int32; narrow dtypes matter
        # at batch width, where the phase is memory-bound.
        shape = (maxD, T, M)
        self.crossed = np.zeros(shape, dtype=np.int32)
        # Column `num_edges` is the sentinel edge: owned from the start,
        # by no message, and never written again.
        self.owner = np.full((T, num_edges + 1), -1, dtype=np.int64)
        self.owner[:, num_edges] = M
        self._owner_flat = self.owner.reshape(-1)
        self._row0 = np.arange(T)[:, None] * (num_edges + 1)
        # Route table with the sentinel for padding and for column maxD
        # (a delivered header of a full-length path).
        self._routes = np.full((M, maxD + 1), num_edges, dtype=np.int64)
        np.copyto(self._routes[:, :maxD], padded, where=padded >= 0)
        self._routes_flat = self._routes.reshape(-1)
        self.padded_rev = np.ascontiguousarray(padded[:, ::-1])
        self.rev_last = maxD - self.D  # r of each message's last edge
        # Per-trial / per-message constants are pre-broadcast to full
        # (T, M) (or (maxD, T, M)) slabs: a stride-0 axis in the middle
        # of an operand defeats numpy's loop-merging and reintroduces
        # the tiny-segment overhead the layout exists to avoid.
        self.L32 = np.ascontiguousarray(
            np.broadcast_to(self.L.astype(np.int32)[None, :], (T, M))
        )
        idx = np.arange(maxD)
        self._cap = np.where(
            idx[:, None, None] > self.rev_last[None, None, :],
            B.astype(np.int32)[None, :, None],
            np.int32(np.iinfo(np.int32).max),
        )
        # Header state (see the class docstring); h = 0 sits at r =
        # maxD - 1, i.e. slab maxD of the guarded advance mask.
        self._h = np.zeros((T, M), dtype=np.int64)
        self._hv = maxD * T * M + np.arange(T * M).reshape(T, M)
        self._want = self._row0 + self._routes[:, 0]
        self._route0 = np.ascontiguousarray(
            np.broadcast_to(np.arange(M) * (maxD + 1), (T, M))
        )
        self._TM = np.int64(T * M)
        # Preallocated scratch so the body allocates nothing
        # proportional to the state per step.
        self._owned = np.zeros(shape, dtype=bool)
        self._c = np.empty(shape, dtype=bool)
        self._open = np.empty(shape, dtype=bool)
        self._s = np.empty(shape, dtype=bool)
        self._inbuf = np.zeros(shape, dtype=np.int32)
        # Parity-encoded prefix scan (see body): v must hold 2*maxD + 1.
        vdt = np.int16 if 2 * maxD + 1 < np.iinfo(np.int16).max else np.int64
        self._v = np.zeros((maxD + 1, T, M), dtype=vdt)  # slab 0: guard
        self._v_flat = self._v.reshape(-1)
        self._idx2 = (2 * idx).astype(vdt)[:, None, None]
        self._adv = np.empty((T, M), dtype=vdt)
        self._i64 = np.empty((T, M), dtype=np.int64)
        self._own = np.empty((T, M), dtype=np.int64)
        self._claim = np.empty((T, M), dtype=bool)
        self._prog = np.empty((T, M), dtype=bool)
        self._ret = np.zeros(T, dtype=bool)
        self._hi = -1
        self._views = None

    def _slice(self, hi: int) -> None:
        """Re-cut every per-step operand to the rows that can still act.

        Trials never come back to life, so ``loop.hi`` only falls; the
        views are rebuilt when it does, not once per step.
        """
        self._hi = hi
        self._ret[hi:] = False
        snap = self.crossed[:, :hi]
        c = self._c[:, :hi]
        self._views = (
            snap, snap[:-1], snap[1:], snap[-1], self.L32[:hi],
            c, c[:-1], c[-1], self._owned[:, :hi],
            self.state.live[None, :hi, None],
            self._inbuf[:, :hi], self._inbuf[1:, :hi], self._cap[:, :hi],
            self._open[:, :hi], self._s[:, :hi], self._v[1:, :hi],
            self._prog[:hi], self._ret[:hi],
            self._h[:hi], self._hv[:hi], self._want[:hi], self._route0[:hi],
            self._row0[:hi], self._adv[:hi], self._i64[:hi],
            self._own[:hi], self._claim[:hi], self.state.blocked[:hi],
        )

    def body(self, t: int, active: np.ndarray) -> np.ndarray:
        loop, probes = self.state, self.probes
        hi = loop.hi
        if hi != self._hi:
            self._slice(hi)
        (
            snap, snap_lo, snap_up, snap_last, L32,
            c, c_lo, c_last, owned, live,
            inbuf, inbuf_up, cap, open_, s, v,
            progressed, ret,
            h, hv, want, route0, row0, adv, i64,
            own, claim, blocked,
        ) = self._views
        act = active[:hi]

        # -- header claims: contend for unowned edges, capacity 1 -------
        # `want` is the owner key of the edge each header needs next
        # (the always-owned sentinel once it is delivered).  The flat
        # indices are in range by construction; "clip" only spares
        # take() the buffering "raise" does behind an `out=`.
        self._owner_flat.take(want, out=own, mode="clip")
        np.less(own, 0, out=claim)
        np.logical_and(claim, act, out=claim)
        if np.count_nonzero(claim):
            c_t, c_m = claim.nonzero()
            keys = self._want[c_t, c_m]  # (trial, edge), stride E + 1
            if self.option == "random":
                prio = self._random_prio(c_t)
            else:  # "index": claimer-list position, ascending m per trial
                prio = c_m.astype(np.float64)
            granted = grant_free_slots(keys, prio, 1)
            g_t, g_m, g_k = c_t, c_m, keys
            if np.count_nonzero(granted) != keys.size:
                g_t, g_m, g_k = c_t[granted], c_m[granted], keys[granted]
            self._owner_flat[g_k] = g_m
            self._owned[self.max_D - 1 - self._h[g_t, g_m], g_t, g_m] = True
            if probes is not None:
                # Serial appends grants in ascending-priority order.
                order = np.argsort(prio[granted], kind="stable")
                probes.on_grant(
                    t, g_m[order], (g_k - self._row0[g_t, 0])[order]
                )

        # -- flit movement: one flit per owned edge, head-first ---------
        # The descending-index service loop is a pure suffix recurrence:
        # with c = owned & has_flit (a movable flit, start-of-step
        # counts), open = start-of-step buffer slack (always, on a last
        # edge) and full = buffer exactly at B (open and full are
        # disjoint and exhaustive because a buffer never exceeds B),
        #
        #     adv[i] = c[i] & (open[i] | (full[i] & adv[i+1]))
        #
        # so adv[i] = s[j(i)] with s = c & open, g = c & full, and j(i)
        # the first index >= i where g does not propagate.  In the
        # tail-first layout (r = maxD-1-i) that lookup is one prefix
        # running maximum along axis 0: each non-g site scores 2r + s
        # and each g site 0, so the running max at r is dominated by
        # j's score and its low bit is exactly s[j(i)] = adv[i] (sites
        # with no movable flit score even, so no c-gate is needed on
        # the result).  g itself is never built: not-g is c <= open.
        # The serial loop's mid-iteration ownership releases are
        # provably no-ops for adv: a release of edge i-1 requires
        # snapshot[i-1] == L, which leaves no movable flit there.
        np.less(snap_lo, snap_up, out=c_lo)
        np.less(snap_last, L32, out=c_last)
        np.logical_and(c, owned, out=c)
        if loop.num_live < hi:
            # Trials finalized early still own edges; freeze them.
            np.logical_and(c, live, out=c)
        np.subtract(snap_up, snap_lo, out=inbuf_up)
        np.less(inbuf, cap, out=open_)
        np.logical_and(c, open_, out=s)
        np.less_equal(c, open_, out=c)  # c is now not-g
        np.multiply(self._idx2, c, out=v)
        np.add(v, s, out=v)
        # Running max along axis 0.  ufunc.accumulate scans one lane at
        # a time, so at batch width the explicit slab-by-slab maximum
        # (identical result: integer max, same order) is far faster;
        # serial keeps the single fused call.
        if hi * self.M >= 512:
            for r in range(1, self.max_D):
                np.maximum(v[r], v[r - 1], out=v[r])
        else:
            np.maximum.accumulate(v, axis=0, out=v)
        np.bitwise_and(v, 1, out=v)  # v is now adv as 0/1 ints
        np.add(snap, v, out=snap)
        np.logical_or.reduce(v, axis=0, out=progressed)

        # -- header advance for next step -------------------------------
        # Counts are non-increasing along the path, so an advance turns
        # a zero count positive only at the header's own edge.
        self._v_flat.take(hv, out=adv, mode="clip")
        if np.count_nonzero(adv):
            np.add(h, adv, out=h)
            np.multiply(adv, self._TM, out=i64)
            np.subtract(hv, i64, out=hv)
            np.add(route0, h, out=i64)
            self._routes_flat.take(i64, out=want, mode="clip")
            np.add(want, row0, out=want)

        # -- releases and deliveries ------------------------------------
        # Ownership ends once the last flit moves on: the previous
        # edge's buffer is drained for good, and the final edge
        # delivers instantly.  At most one edge per message newly
        # reaches L per step (the unique snapshot L-to-(L-1) boundary).
        rel_events: list[tuple[int, int, int]] = []  # (phase, m, e), T=1
        delivered_m = _EMPTY_IDX
        newly = open_  # reused
        np.equal(snap, L32, out=newly)
        np.logical_and(newly, v, out=newly)
        if np.count_nonzero(newly):
            owner, owned_all = self.owner, self._owned
            padded_rev = self.padded_rev
            # Flat scan + two divmods: an N-d nonzero walks coordinates.
            nr, nt = np.divmod(newly.reshape(-1).nonzero()[0], hi * self.M)
            nt, nm = np.divmod(nt, self.M)
            inner = nr < self.max_D - 1  # path index i = maxD-1-r > 0
            if np.count_nonzero(inner):
                pt, pm = nt[inner], nm[inner]
                pr = nr[inner] + 1  # upstream edge i-1 sits at r+1
                prev_e = padded_rev[pm, pr]
                ok = owner[pt, prev_e] == pm
                owner[pt[ok], prev_e[ok]] = -1
                # `owned` stays in sync unconditionally: where the ok
                # guard fails, the message's claim there is already
                # cleared, so re-clearing is a no-op.
                owned_all[pr, pt, pm] = False
                if probes is not None:
                    rel_events.extend(
                        (0, int(m), int(e))
                        for m, e in zip(pm[ok], prev_e[ok])
                    )
            last = nr == self.rev_last[nm]
            if np.count_nonzero(last):
                lt, lm = nt[last], nm[last]
                lr = nr[last]
                le = padded_rev[lm, lr]
                owner[lt, le] = -1
                owned_all[lr, lt, lm] = False
                # Reaching L on the final edge IS delivery: the old
                # active & (last count == L) scan finds exactly these.
                loop.completion[lt, lm] = t
                loop.done[lt, lm] = True
                delivered_m = lm
                if probes is not None:
                    rel_events.extend(
                        (1, int(m), int(e)) for m, e in zip(lm, le)
                    )

        stalled = claim  # reused: active messages that did not progress
        np.greater(act, progressed, out=stalled)
        np.add(blocked, stalled, out=blocked)
        if probes is not None:
            self._emit_step_events(t, stalled, progressed, rel_events, delivered_m)
        np.logical_or.reduce(progressed, axis=1, out=ret)
        return self._ret

    def _emit_step_events(self, t, stalled, progressed, rel_events, finished):
        """Reproduce the serial per-step event stream (T = 1 only)."""
        probes, h = self.probes, self._h[0]
        stalled = np.flatnonzero(stalled[0])
        if stalled.size:
            # A stalled header reports the edge it waits for; a stalled
            # body (header delivered: the sentinel) reports none.
            wanted = self._routes[stalled, h[stalled]]
            wanted[wanted == self.num_edges] = -1
            probes.on_block(t, stalled, wanted)
        if rel_events:
            # Serial order: ascending message, prev-edge release before
            # the final-edge release (at most one of each per message).
            rel_events.sort(key=lambda ev: (ev[1], ev[0]))
            r = np.asarray(rel_events, dtype=np.int64)
            probes.on_release(t, r[:, 1], r[:, 2])
        if finished.size:
            probes.on_complete(t, finished)
        probes.on_step(t, np.flatnonzero(progressed[0]), h)


# ----------------------------------------------------------------------
# Store-and-forward: whole-packet hops, one message per edge per step.
# ----------------------------------------------------------------------


class StoreForwardKernel(_Kernel):
    """Greedy whole-packet advancement: one hop per granted message.

    The arbiter holds nothing across steps (an edge is owned only within
    the message step it transmits), so every round is a capacity-1 grant
    against empty occupancy.  Times scale by the per-trial message-step
    length ``hop[i] = ceil(L / B[i])`` flit steps.
    """

    @classmethod
    def pack(
        cls, net, paths, message_length, release_times, *, B, option, rngs,
        delay_range: int = 0,
    ) -> Packed:
        L = _scalar_length(message_length)
        # Deliberately no edge-simplicity check: see the store_forward
        # module docstring (an edge is held only within the step it
        # transmits, so repeated edges just queue twice).
        padded, D = pad_paths(paths)
        M = int(D.size)
        hop = -(-L // B)  # per-trial ceil(L / B) flit steps per message step
        # Releases in per-trial message steps, rounded up to a boundary.
        release = -(-_shared_release(release_times, M)[None, :] // hop[:, None])
        if delay_range > 0:
            release = release + np.stack(
                [rng.integers(0, delay_range, size=M) for rng in rngs]
            )
        return Packed(
            lengths=D,
            message_length=L,
            release=release,
            num_edges=net.num_edges,
            padded=padded,
            hop=hop,
            extra={"flits_per_grant": L, "flit_steps_per_step": int(hop[0])},
            # Greedy store-and-forward cannot deadlock: every contended
            # edge forwards one message per step, so progress is
            # unconditional.
            loop_options={"detect_deadlock": False, "time_scale": hop},
        )

    def __init__(self, loop, packed: Packed, *, B, option, rngs) -> None:
        super().__init__(loop, packed, B=B, option=option, rngs=rngs)
        # Release times in *message steps*, per trial.
        self.release = loop.release
        self.hop = packed.hop
        self.hops_done = np.zeros((self.T, self.M), dtype=np.int64)
        self.max_queue = np.zeros(self.T, dtype=np.int64)

    def extra_factory(self, i: int) -> dict:
        return {
            "max_queue": int(self.max_queue[i]),
            "message_step_flits": int(self.hop[i]),
        }

    def body(self, t: int, active: np.ndarray) -> np.ndarray:
        D, probes = self.D, self.probes
        rows, cols = np.nonzero(active)
        hd = self.hops_done[rows, cols]
        edges = self.padded[cols, hd]
        if self.option == "random":
            prio = self._random_prio(rows)
        elif self.option == "age":
            prio = self.release[rows, cols].astype(np.float64)
        else:  # farthest to go first
            prio = -(D[cols] - hd).astype(np.float64)
        keys = rows * self.num_edges + edges
        winners = grant_free_slots(keys, prio, 1)  # one message per edge
        # Queue-depth bookkeeping: contenders per edge this step.
        counts = np.bincount(keys)
        np.maximum.at(self.max_queue, rows, counts[keys])

        mrows, mcols = rows, cols
        lost = np.count_nonzero(winners) != keys.size
        if lost:
            mrows, mcols = rows[winners], cols[winners]
            losers = ~winners
            lrows = rows[losers]
            self.state.blocked[lrows, cols[losers]] += self.hop[lrows]
        self.hops_done[mrows, mcols] += 1
        fin = self.hops_done[mrows, mcols] == D[mcols]
        if fin.any():
            frows, fcols = mrows[fin], mcols[fin]
            self.state.completion[frows, fcols] = t * self.hop[frows]
            self.state.done[frows, fcols] = True

        if probes is not None:
            medges = edges[winners]
            probes.on_grant(t, mcols, medges)
            if lost:
                probes.on_block(t, cols[losers], edges[losers])
            # A store-and-forward edge is held only within the step it
            # transmits, so the grant's slot frees immediately.
            probes.on_release(t, mcols, medges)
            if fin.any():
                probes.on_complete(t, mcols[fin])
            probes.on_step(t, mcols, self.hops_done[0])
        # A contended edge always forwards someone.
        return np.bincount(rows, minlength=self.T) > 0


# ----------------------------------------------------------------------
# Restricted: one flit per edge per step over B buffer slots.
# ----------------------------------------------------------------------


class RestrictedKernel(_Kernel):
    """Rotating-service advance for the buffering-only model.

    Each edge holds ``B`` one-flit slots (one per resident message) but
    forwards a single flit per step, chosen round-robin among its
    eligible residents (in admission order) and admissible new headers
    (in message order).  Edges are serviced to a fixpoint each step so a
    slot vacated this step can refill this step; header admission stays
    conservative (start-of-step resident counts), as in the full model.

    Trials are swept together: each pass visits the sorted union of all
    trials' touched edges and fires at most one flit per (trial, edge);
    a trial's own sub-sequence of fires is exactly its serial fixpoint
    (extra visits to edges it has no candidates on are no-ops).
    """

    def __init__(self, loop, packed: Packed, *, B, option, rngs) -> None:
        super().__init__(loop, packed, B=B, option=option, rngs=rngs)
        T, M = self.T, self.M
        num_edges, padded = self.num_edges, self.padded
        self.max_D = int(padded.shape[1])
        # Flattened (message, path-index) sites, grouped per edge and
        # sorted by message id — edge-simplicity makes each (edge,
        # message) pair unique, so one static list serves both resident
        # and header candidate enumeration.
        site_m, site_i = np.nonzero(padded >= 0)
        site_e = padded[site_m, site_i]
        self.site_m, self.site_i, self.site_e = site_m, site_i, site_e
        self._site_fi = site_m * self.max_D + site_i
        self._site_L = self.L[site_m]
        order = np.lexsort((site_m, site_e))
        se, sm, si = site_e[order], site_m[order], site_i[order]
        self._all_edges = np.unique(se)
        # Static per-edge tables: flat (message, index) gather indices
        # for the site, its downstream neighbour, and its upstream
        # neighbour, plus the header ordering keys.  Residents sort by
        # admission stamp (< _HDR_BASE), eligible headers after them in
        # site (= message) order, so one stable argsort of the combined
        # key reproduces the serial candidate order.
        starts = np.searchsorted(se, np.arange(num_edges + 1))
        self._edge_tabs: dict[int, tuple] = {}
        for e in self._all_edges:
            lo, hi = starts[e], starts[e + 1]
            sm_e, si_e = sm[lo:hi], si[lo:hi]
            is_last = si_e == self.D[sm_e] - 1
            si_next = np.where(is_last, si_e, si_e + 1)
            self._edge_tabs[int(e)] = (
                sm_e,
                si_e,
                sm_e * self.max_D + si_e,
                sm_e * self.max_D + si_next,
                sm_e * self.max_D + np.maximum(si_e - 1, 0),
                si_e == 0,
                self.L[sm_e],
                is_last,
                _HDR_BASE + np.arange(sm_e.size),
            )
        # Rotating service offsets: the only RNG use of this model.
        self.rr_offset = np.stack(
            [rng.integers(0, 1 << 30, size=num_edges) for rng in rngs]
        )
        self.crossed = np.zeros((T, M, self.max_D), dtype=np.int64)
        self.resident = np.zeros((T, M, self.max_D), dtype=bool)
        # Admission stamps order each edge's residents like the serial
        # dict's insertion order (a global per-trial counter suffices:
        # stamps on one edge are mutually ordered by admission time).
        self.stamp = np.full((T, M, self.max_D), _FAR, dtype=np.int64)
        self.counter = np.zeros(T, dtype=np.int64)
        self.head_edge = np.zeros((T, M), dtype=np.int64)
        self.res_count = np.zeros((T, num_edges), dtype=np.int64)
        # Preallocated per-step scratch.
        self._snap = np.empty((T, M, self.max_D), dtype=np.int64)
        self._progressed = np.zeros((T, M), dtype=bool)
        self._serviced = np.zeros((T, num_edges), dtype=bool)
        self._emask = np.zeros(num_edges, dtype=bool)
        self._dirty = np.zeros(num_edges, dtype=bool)
        self._tarange = np.arange(T)

    def body(self, t: int, active: np.ndarray) -> np.ndarray:
        crossed, padded, D, L = self.crossed, self.padded, self.D, self.L
        T, B = self.T, self.B
        snapshot = self._snap
        np.copyto(snapshot, crossed)
        snap2 = snapshot.reshape(T, -1)
        crossed2 = crossed.reshape(T, -1)
        res2 = self.resident.reshape(T, -1)
        stamp2 = self.stamp.reshape(T, -1)
        progressed = self._progressed
        progressed[:] = False

        # Union of edges with any potential work in any trial,
        # ascending (the serial visit order).
        alive = (
            active[:, self.site_m] & (snap2[:, self._site_fi] < self._site_L)
        ).any(axis=0)
        emask = self._emask
        emask[:] = False
        emask[self.site_e[alive]] = True
        oe_sel = emask[self._all_edges]
        visit = self._all_edges[oe_sel]

        res0 = self.res_count.copy()  # start-of-step counts gate headers
        serviced = self._serviced
        serviced[:] = False
        done = self.state.done
        dirty = self._dirty
        tarange, rr = self._tarange, self.rr_offset
        # Gauss-Seidel fixpoint: repeat passes until a pass fires
        # nothing.  A fire can only *open* eligibility upstream of
        # itself (the buffer below the fired site drains, and a
        # resident release frees that edge's admission slot), so later
        # passes need only revisit the fired sites' upstream edges —
        # every skipped visit is provably a no-op, keeping the fire
        # sequence exactly the serial full-pass one.
        while visit.size:
            dirty[:] = False
            fired = False
            for e in visit:
                e = int(e)
                notserv = ~serviced[:, e]
                if not notserv.any():
                    continue
                (
                    sm, si, fi, fi_nx, fi_up, si0, L_sm, is_last, hdr_key,
                ) = self._edge_tabs[e]
                # Resident candidates: a waiting flit (start-of-step
                # availability) and a free own-message slot downstream
                # (live counts — lock-step pipelining).
                act = active[:, sm]
                up = np.where(si0, L_sm, snap2[:, fi_up])
                in_buf = crossed2[:, fi] - crossed2[:, fi_nx]
                elig_r = (
                    res2[:, fi]
                    & act
                    & ~done[:, sm]
                    & (snap2[:, fi] < up)
                    & (is_last | (in_buf < 1))
                    & notserv[:, None]
                )
                # Header candidates: an admissible slot (start-of-step
                # AND live counts below B) and an injectable flit.
                can_admit = (
                    (res0[:, e] < B) & (self.res_count[:, e] < B) & notserv
                )
                elig_h = (
                    act
                    & (self.head_edge[:, sm] == si)
                    & (up >= 1)
                    & can_admit[:, None]
                )
                key = np.where(
                    elig_r, stamp2[:, fi], np.where(elig_h, hdr_key, _FAR)
                )
                n = (key < _FAR).sum(axis=1)
                has = n > 0
                if not has.any():
                    continue
                # Candidate order: residents by admission stamp, then
                # headers by message id; rotate by (offset + t).
                pick = (rr[:, e] + t) % np.where(has, n, 1)
                order_k = np.argsort(key, axis=1, kind="stable")
                j = order_k[tarange, pick]
                tt = np.flatnonzero(has)
                jj = j[tt]
                msel, isel = sm[jj], si[jj]
                is_h = key[tt, jj] >= _HDR_BASE
                if is_h.any():
                    at, am, ai = tt[is_h], msel[is_h], isel[is_h]
                    self.resident[at, am, ai] = True
                    self.stamp[at, am, ai] = self.counter[at]
                    self.counter[at] += 1
                    res0[at, e] += 1
                    self.res_count[at, e] += 1
                    self.head_edge[at, am] += 1
                crossed[tt, msel, isel] += 1
                serviced[tt, e] = True
                progressed[tt, msel] = True
                fired = True
                inner_f = isel > 0
                if inner_f.any():
                    dirty[padded[msel[inner_f], isel[inner_f] - 1]] = True
                doneL = crossed[tt, msel, isel] == L[msel]
                if not doneL.any():
                    continue
                dt, dm, di = tt[doneL], msel[doneL], isel[doneL]
                # Last flit left the upstream buffer for good.
                inner = di > 0
                if inner.any():
                    pt, pm = dt[inner], dm[inner]
                    pi = di[inner] - 1
                    was = self.resident[pt, pm, pi]
                    self.resident[pt[was], pm[was], pi[was]] = False
                    self.res_count[
                        pt[was], padded[pm[was], pi[was]]
                    ] -= 1
                last = di == D[dm] - 1
                if last.any():
                    ct, cm, ci = dt[last], dm[last], di[last]
                    was = self.resident[ct, cm, ci]
                    self.resident[ct, cm, ci] = False  # delivered instantly
                    self.res_count[ct[was], e] -= 1
                    self.state.completion[ct, cm] = t
                    done[ct, cm] = True
            if not fired:
                break
            visit = self._all_edges[dirty[self._all_edges] & oe_sel]

        self.state.blocked += active & ~progressed
        return progressed.any(axis=1)


# ----------------------------------------------------------------------
# Adaptive: online minimal routing with mask-based misroute selection.
# ----------------------------------------------------------------------

# Direction-table column (KAryNCube.direction_tables) by axis and by the
# sign of the remaining offset: 0 -> the all-absent column, +1, -1.
_AXIS_DIR = np.array([[4, 0, 1], [4, 2, 3]])
_AXES = np.arange(2)


class AdaptiveKernel(_Kernel):
    """Adaptive mesh routing over per-trial head orders, in prefix waves.

    Each step, every trial shuffles its active messages with its own
    RNG (the serial head-service order).  The geometric option masks
    (productive directions allowed by the turn-model policy) are
    computed vectorized for every head of every trial from the cube's
    coordinate and direction-edge tables; heads are then served in
    *prefix waves* — each pass serves, in every trial at once, the heads
    ahead of the first one whose free set could still depend on an
    earlier head (MODEL.md section 7) — while the free-channel draw
    consumes each trial's RNG exactly as its serial run would (one
    ``integers(2)`` per head with both channels free, in service order).
    """

    @classmethod
    def pack(
        cls, cube, demands, message_length, release_times, *, B, option, rngs
    ) -> Packed:
        check_mesh(cube)
        L = _scalar_length(message_length)
        ends = np.asarray(demands, dtype=np.int64).reshape(-1, 2)
        bad = (ends < 0) | (ends >= cube.num_nodes)
        if bad.any():
            raise NetworkError(f"node id {int(ends[bad][0])} out of range")
        tables = cube.direction_tables()
        src, dst = tables[0][ends.T]
        return Packed(
            # Minimal routes all have the Manhattan length.
            lengths=np.abs(src - dst).sum(axis=1),
            message_length=L,
            release=_shared_release(release_times, len(demands)),
            num_edges=cube.network.num_edges,
            padded=None,
            ends=ends,
            tables=tables,
            num_virtual_channels=int(B[0]),
            extra={"flits_per_grant": L, "policy": option},
        )

    @staticmethod
    def finish(results, kernel):
        return [
            AdaptiveRunResult(res, kernel.taken_paths(i) if kernel else [])
            for i, res in enumerate(results)
        ]

    def __init__(self, loop, packed: Packed, *, B, option, rngs) -> None:
        super().__init__(loop, packed, B=B, option=option, rngs=rngs)
        T, M = self.T, self.M
        self.coords, self.dir_edge, self.dir_node = packed.tables
        self.dest = packed.ends[:, 1]
        self.position = np.tile(packed.ends[:, 0], (T, 1))
        self.k = np.zeros((T, M), dtype=np.int64)
        self.occ = np.zeros((T, self.num_edges), dtype=np.int64)
        max_d = int(self.D.max()) if M else 0
        self.taken = np.zeros((T, M, max(max_d, 1)), dtype=np.int64)
        self.tlen = np.zeros((T, M), dtype=np.int64)
        # Preallocated per-step scratch: the padded shuffle matrices and
        # the movement mask (no per-step (T, M) allocations).
        self._ids_mat = np.zeros((T, M), dtype=np.int64)
        self._draw_mat = np.empty((T, M), dtype=np.float64)
        self._mov = np.zeros((T, M), dtype=bool)
        # Steps that served heads, and the passes they took (tests read
        # these to see the waves at work).
        self.head_steps = 0
        self.head_passes = 0

    def taken_paths(self, trial: int) -> list[list[int]]:
        """The edge ids trial ``trial``'s messages actually traversed."""
        return [
            self.taken[trial, m, : self.tlen[trial, m]].tolist()
            for m in range(self.M)
        ]

    def _options(self, trs: np.ndarray, ms: np.ndarray):
        """Vectorized policy-allowed productive moves, in serial order.

        Returns ``(oe, on)`` — ``(n, 2)`` edge and node ids of each
        head's x-move and y-move (``-1`` = absent).  The serial option
        list appends the x-move before the y-move, so a head's first
        option is its first present column.
        """
        pos = self.position[trs, ms]
        delta = self.coords[self.dest[ms]] - self.coords[pos]
        d = _AXIS_DIR[_AXES, np.sign(delta)]
        if self.option == "dimension":  # y only once x is corrected
            d[delta[:, 0] != 0, 1] = 4
        elif self.option == "west-first":
            # Destination west: go fully west, deterministically.
            d[delta[:, 0] < 0, 1] = 4
        pos = pos[:, None]
        return self.dir_edge[pos, d], self.dir_node[pos, d]

    def _earlier_claims(self, ht: np.ndarray, oe: np.ndarray) -> np.ndarray:
        """How many earlier heads of the same trial list each candidate.

        ``oe`` is the ``(n, 2)`` candidate-edge matrix of the heads
        ``ht`` (trial ids, trial-major in service order; ``-1`` =
        absent).  A head's two candidates are distinct edges, so the
        rank of a claim within its ``(trial, edge)`` group, taken in
        head order, is the count of earlier heads that could acquire
        that edge before it.  Absent candidates share one group; their
        rank is never read.
        """
        key = np.where(oe >= 0, ht[:, None] * self.num_edges + oe, -1)
        key = key.ravel()
        srt = np.argsort(key, kind="stable")  # head order within a group
        sk = key[srt]
        idx = np.arange(key.size)
        first = np.empty(key.size, dtype=bool)
        first[:1] = True
        np.not_equal(sk[1:], sk[:-1], out=first[1:])
        rank = np.empty(key.size, dtype=np.int64)
        rank[srt] = idx - np.maximum.accumulate(np.where(first, idx, 0))
        return rank.reshape(oe.shape)

    def body(self, t: int, active: np.ndarray) -> np.ndarray:
        T, L = self.T, self.L
        dists, probes = self.D, self.probes
        occ, B, k = self.occ, self.B, self.k
        # Per-trial head-service order: each trial with active messages
        # shuffles them with its own RNG (the serial draw, one
        # ``random(n)`` per trial), but the argsort runs batched over a
        # +inf-padded (T, max_len) matrix and the active-id scatter is
        # one vectorized write.
        counts = active.sum(axis=1)
        max_len = int(counts.max())
        rows, cols = np.nonzero(active)
        starts = np.zeros(T + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        slot = np.arange(rows.size) - starts[rows]
        ids_mat = self._ids_mat
        ids_mat[rows, slot] = cols
        draw_mat = self._draw_mat[:, :max_len]
        draw_mat[...] = np.inf
        for tr in np.flatnonzero(counts):
            n = counts[tr]
            draw_mat[tr, :n] = self.rngs[tr].random(n)
        perm = np.argsort(draw_mat, axis=1)
        # The service order, flat: trial-major, shuffled within a trial.
        sm = ids_mat[rows, perm[rows, slot]]

        mov = self._mov
        np.greater_equal(k, dists, out=mov)
        mov &= active  # draining worms always move
        heads = ~mov[rows, sm]
        ht, hm = rows[heads], sm[heads]
        grants: list[tuple[np.ndarray, np.ndarray]] = []
        blocks: list[tuple[np.ndarray, np.ndarray]] = []
        if ht.size:
            self.head_steps += 1
            oe, on = self._options(ht, hm)
        # Prefix waves (MODEL.md section 7): a head's outcome can depend
        # on an earlier head only through an edge whose free lanes the
        # earlier claims could exhaust.  Occupancy only rises while
        # heads are served, so "full now" and "free even if every
        # earlier claimant takes it" are both exact; each pass serves
        # every trial's heads up to its first undecided one at once.
        while ht.size:
            self.head_passes += 1
            room = B[ht, None] - occ[ht[:, None], oe]  # absent: masked
            free = (oe >= 0) & (room > 0)
            und = (free & (self._earlier_claims(ht, oe) >= room)).any(axis=1)
            f1, f2 = free[:, 0], free[:, 1]
            win, both = f1 | f2, f1 & f2
            blk = ~win
            wave = None
            if und.any():
                # A trial's first undecided head closes its wave.
                stop = np.full(T, ht.size, dtype=np.int64)
                u = np.flatnonzero(und)
                np.minimum.at(stop, ht[u], u)
                wave = np.arange(ht.size) < stop[ht]
                win &= wave
                both &= wave
                blk &= wave
            if blk.any():
                bt, bm = ht[blk], hm[blk]
                self.state.blocked[bt, bm] += 1
                if probes is not None:
                    first = np.where(oe[:, 0] >= 0, oe[:, 0], oe[:, 1])
                    blocks.append((bm, first[blk]))
            # Free-channel choice: ``integers(1)`` never consumes RNG
            # state and always returns 0, so only heads with both
            # options free draw from their trial's stream — one
            # ``integers(2, size=n)`` per trial, split-exact against
            # ``n`` scalar draws.
            ch = np.zeros(ht.size, dtype=np.int64)
            draw = both.nonzero()[0]
            if draw.size:
                need = np.bincount(ht[draw], minlength=T)
                at = 0
                for tr in need.nonzero()[0]:
                    n = need[tr]
                    ch[draw[at : at + n]] = self.rngs[tr].integers(2, size=n)
                    at += n
            w = win.nonzero()[0]
            col = np.where(f1, ch, 1)[w]
            e_sel = oe[w, col]
            wt, wm = ht[w], hm[w]
            # Several heads of one trial may now take one edge.
            np.add.at(occ, (wt, e_sel), 1)
            tl = self.tlen[wt, wm]
            self.taken[wt, wm, tl] = e_sel
            self.tlen[wt, wm] = tl + 1
            self.position[wt, wm] = on[w, col]
            mov[wt, wm] = True
            if probes is not None and w.size:
                grants.append((wm, e_sel))
            if wave is None:
                break
            rest = ~wave
            ht, hm, oe, on = ht[rest], hm[rest], oe[rest], on[rest]

        # -- movement: lock-step advance, strict buffer release ---------
        pre_k = self.k[0].copy() if probes is not None else None
        self.k += mov
        rel = self.k - L - 1
        vac = mov & (rel >= 0) & (rel < dists[None, :] - 1)
        if vac.any():
            vt, vm = np.nonzero(vac)
            np.subtract.at(
                self.occ, (vt, self.taken[vt, vm, rel[vt, vm]]), 1
            )
        fin = mov & (self.k == L + dists[None, :] - 1)
        if fin.any():
            ft, fm = np.nonzero(fin)
            np.subtract.at(
                self.occ, (ft, self.taken[ft, fm, dists[fm] - 1]), 1
            )
            self.state.completion[ft, fm] = t
            self.state.done[ft, fm] = True

        if probes is not None:
            # T = 1: the movers in service order.
            self._emit_step_events(t, sm[mov[0, sm]], pre_k, grants, blocks)
        return mov.any(axis=1)

    def _emit_step_events(self, t, movers0, pre_k, grants, blocks):
        """Reproduce the serial per-step event stream (T = 1 only).

        ``grants`` / ``blocks`` hold one ``(messages, edges)`` array
        pair per pass, so their concatenation is in service order.
        """
        probes, L = self.probes, self.L
        releases: list[tuple[int, int]] = []
        finished: list[int] = []
        for m in movers0.tolist():
            km = int(pre_k[m]) + 1
            d = int(self.D[m])
            rel_i = km - L - 1
            if 0 <= rel_i < d - 1:
                releases.append((m, int(self.taken[0, m, rel_i])))
            if km == L + d - 1:
                releases.append((m, int(self.taken[0, m, d - 1])))
                finished.append(m)
        if grants:
            probes.on_grant(t, *map(np.concatenate, zip(*grants)))
        if blocks:
            probes.on_block(t, *map(np.concatenate, zip(*blocks)))
        if releases:
            r = np.asarray(releases, dtype=np.int64)
            probes.on_release(t, r[:, 0], r[:, 1])
        if finished:
            probes.on_complete(t, np.asarray(finished, dtype=np.int64))
        probes.on_step(t, movers0, self.k[0])
