"""Model-parameterized lockstep kernels: one body per buffer model.

Every router in :mod:`repro.sim` advances the same struct-of-arrays
state shape — per-(trial, message) integers stacked as ``(T, M)``
arrays — and differs only in its *buffer semantics*: per-edge
capacity-``B`` slots for interchangeable virtual channels (wormhole),
``(edge, class)`` capacity-1 slots for the Dally-Seitz mechanism,
single-owner edges with ``B``-flit compression for cut-through,
whole-packet hops for store-and-forward, one-flit-per-edge rotating
service for the restricted model, and mask-based online route selection
for adaptive routing on meshes and multibutterflies.  This module holds those semantics as five kernel
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
call per step over the combined ``(trial, slot)`` key space).  A single
trial is the ``T = 1`` case of the same driver, so there is exactly one
arbitration implementation per model and one step protocol for all.

Bit-exactness contract
----------------------
Trial ``i`` of a batch is bit-identical to the same trial run alone with
``seeds[i]``: each trial draws from its **own** RNG in a fixed order
(draws happen only in steps/phases where that trial acts), the combined
arbitration key space keeps trials' slot groups disjoint, and a trial's
state is only read or written where it has active messages.  Telemetry
probes ride on the loop (``state.probes``) and are supported at
``T = 1`` only, where each kernel dispatches its serial run's event
stream call for call, in service order.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..network.graph import NetworkError
from ..network.multibutterfly import Multibutterfly
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


def exact_int64(value, name: str) -> np.ndarray:
    """``value`` as a new int64 array; a fraction, ``nan``, bool or
    string is an error, never truncated (``2.0`` is ``2``)."""
    src = np.asarray(value)
    if src.dtype.kind in "iu":
        return src.astype(np.int64)
    bad = src.ravel()
    if src.dtype.kind == "f":
        with np.errstate(invalid="ignore"):
            arr = src.astype(np.int64)
        bad = src[arr != src]
        if not bad.size:
            return arr
    raise NetworkError(f"{name} must be an integer, got {bad.tolist()[0]!r}")


def exact_count(value, name: str, least: int = 0) -> int:
    """A scalar ``value`` as an ``int >= least``; a fraction, bool,
    string or smaller value is an error, never truncated or clipped."""
    count = exact_int64(value, name)
    if count.ndim or int(count) < least:
        raise NetworkError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(count)


def _shared_lengths(message_length, M: int) -> np.ndarray:
    """Per-message ``L`` (scalar or ``(M,)``), shared by all trials."""
    L = exact_int64(message_length, "message_length")
    try:
        L = np.broadcast_to(L, (M,)).copy()
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
    L = exact_int64(message_length, "message_length")
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
        else exact_int64(release_times, "release_times")
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
    pp.require_edges_in(net.num_edges).require_edge_simple(what)
    return Packed(
        lengths=pp.lengths,
        message_length=L,
        release=_shared_release(release_times, pp.num_messages),
        num_edges=net.num_edges,
        padded=pp.padded,
    )


def _injection_queues(sources, lengths, release, T: int):
    """MODEL.md section 1's FIFO queues as flat position tables: the
    ``(gated, predecessor)`` positions ``t * M + m`` of each queued
    message and of the one ahead of it (``None`` if nobody waits).  A
    zero-length message is delivered at release: it is in no queue."""
    M = lengths.size
    queue_of = np.asarray(sources, dtype=np.int64)
    if queue_of.shape != (M,):
        raise NetworkError(f"sources must have shape ({M},), got {queue_of.shape}")
    live = np.flatnonzero(lengths > 0)
    order = live[np.argsort(queue_of[live], kind="stable")]
    same = queue_of[order[1:]] == queue_of[order[:-1]]
    pred, succ = order[:-1][same], order[1:][same]
    late = release[succ] < release[pred]
    if late.any():
        m, ahead = succ[late][0], pred[late][0]
        raise NetworkError(
            f"message {m} is released before message {ahead}, which is "
            f"ahead of it in injection queue {queue_of[m]} (FIFO by index)"
        )
    if not succ.size:
        return None
    base = np.arange(T, dtype=np.int64)[:, None] * M
    return (base + succ).reshape(-1), (base + pred).reshape(-1)


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

    A round *reserves* its values instead of drawing them, and the
    grant reads only those it compares (DESIGN decision 23): a read
    comes before the next reservation, and only a reservation refills,
    so it finds exactly the value a full draw would have served.  The
    refused rounds of a coasted forced span (DESIGN decision 6) skip
    theirs unread (:meth:`skip`).

    Only used at ``T > 1``: batch RNGs are created per batch run and
    discarded, so the over-drawn tail is unobservable.  A lone trial
    keeps its one-draw-per-round call — a simulator instance passes its
    own generator as the seed and can be run twice on one continuing
    stream.
    """

    __slots__ = ("rngs", "T", "block", "buf", "cur", "_base", "_rows")

    def __init__(self, rngs: list, block: int) -> None:
        self.rngs = rngs
        self.T = len(rngs)
        self.block = int(block)
        self.buf = np.empty((self.T, self.block), dtype=np.float64)
        self.cur = np.full(self.T, self.block, dtype=np.int64)

    def reserve(self, rows: np.ndarray, counts: np.ndarray) -> "_RandomBlock":
        """Reserve ``counts[tr]`` values per trial along sorted ``rows``.

        Contender ``j``, the ``j - starts[tr]``-th of trial ``tr``, owns
        cell ``tr * block + cur[tr] + j - starts[tr]`` of the buffer.
        Returns the block itself as the view of this reservation:
        ``block[idx]`` gathers contenders ``idx`` until the next one.
        """
        cur = self.cur
        lack = np.flatnonzero(cur + counts > self.block)
        for tr in lack:
            rem, rng = self.block - cur[tr], self.rngs[tr]
            if rem >= 0:
                self.buf[tr, :rem] = self.buf[tr, cur[tr] :]
                self.buf[tr, rem:] = rng.random(self.block - rem)
            else:  # skip() went -rem values past the buffer: draw them too
                self.buf[tr] = _discard(rng, -rem, self.block)
            cur[tr] = 0
        self._base = np.arange(0, self.buf.size, self.block) + cur
        self._base -= np.cumsum(counts) - counts  # each trial's first
        self._rows = rows
        cur += counts
        return self

    def __getitem__(self, idx: np.ndarray) -> np.ndarray:
        cells = self._base.take(self._rows.take(idx)) + idx
        return self.buf.reshape(-1).take(cells)

    def skip(self, counts: np.ndarray) -> None:
        """Consume ``counts[tr]`` values per trial unread.  A cursor
        that passes the block owes the values beyond it, which the
        trial's next refill draws and drops before its new block, so a
        count beyond the block is as exact as one inside it."""
        self.cur += counts


def _discard(rng, n: int, keep: int = 0) -> np.ndarray:
    """Advance ``rng`` by ``n`` uniform doubles (split-exact, so the
    same as ``n`` single draws; a long run a bounded chunk at a time),
    then draw ``keep`` more and return them."""
    while n > 1 << 16:
        rng.random(1 << 16)
        n -= 1 << 16
    return rng.random(n + keep)[n:]


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
        # Per-step index lists are flat positions p = t * M + m into the
        # (T, M) state; trial and message of a position are read from
        # these tables (DESIGN decision 23).
        self._t_of = np.repeat(np.arange(self.T, dtype=np.int64), self.M)
        self._m_of = np.tile(np.arange(self.M, dtype=np.int64), self.T)
        self._completion = loop.completion.reshape(-1)
        self._done = loop.done.reshape(-1)
        self._blocked = loop.blocked.reshape(-1)

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

    def _random_prio(self, pos: np.ndarray):
        """One uniform priority per contender, in serial draw order.

        ``pos`` are the contenders' flat positions, ascending (a flat
        ``nonzero``), so each trial's contenders are contiguous and in
        message-index order — the serial draw order.  Trials without
        contenders draw nothing, exactly like their serial runs.  A
        batch gets a reserved view (:meth:`_RandomBlock.reserve`), which
        only ``[idx]`` may read.
        """
        if self.T == 1:
            return self.rngs[0].random(pos.size)
        if self._rand_block is None:
            # A refill is a few µs of Python whatever its size: the
            # floor is what amortises it when M is small.
            self._rand_block = _RandomBlock(
                self.rngs, max(4 * self.M, 512)
            )
        rows = self._t_of.take(pos)
        return self._rand_block.reserve(
            rows, np.bincount(rows, minlength=self.T)
        )

    def _skip_prio(self, pos: np.ndarray, rounds: int) -> None:
        """Consume the draws of ``rounds`` more rounds in which the
        contenders ``pos`` (as for :meth:`_random_prio`) are all refused:
        no value is read, so none is materialised."""
        if self.T == 1:
            _discard(self.rngs[0], pos.size * rounds)
        else:
            counts = np.bincount(self._t_of.take(pos), minlength=self.T)
            self._rand_block.skip(counts * rounds)


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
    are built only in a phase whose mask counts non-zero, as flat
    positions ``p = t * M + m``, and every arbiter key they need is one
    ``take`` from the flat ``(T, M, maxD)`` key table ``_keys``.  After
    a step that granted and delivered nothing, :meth:`_coast` applies
    the forced steps that follow in the same call (MODEL.md section 3).
    """

    @classmethod
    def pack(
        cls, net, paths, message_length, release_times, *, B, option, rngs,
        vc_ids=None, sources=None,
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
        packed.queues = None if sources is None else _injection_queues(
            sources, packed.lengths, packed.release, B.size
        )
        return packed

    def __init__(self, loop, packed: Packed, *, B, option, rngs) -> None:
        super().__init__(loop, packed, B=B, option=option, rngs=rngs)
        T, M = self.T, self.M
        self.vc_padded = packed.vc_padded
        self._gate = packed.queues
        self._act = np.empty((T, M), dtype=bool)
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
        # One arbiter key per (trial, message, hop) cell, position p's
        # row starting at _row[p]: a contender's key is cell _row[p] +
        # k[p], a vacated hop's _row[p] + k[p] - L - 1, the final edge's
        # _row[p] + D - 1 (the last two offsets tabulated; a padding
        # cell's key is read only by the coast, under a mask that drops it).
        maxD = self.padded.shape[1]
        tr = np.arange(T)[:, None, None]
        self._keys = self.arbiter.keys(
            tr, self._slots(tr, np.arange(M)[:, None], np.arange(maxD))
        ).reshape(-1)
        self._row = np.arange(T * M, dtype=np.int64) * maxD
        self._rel_row = self._row - np.tile(self.L + 1, T)
        self._last_cell = self._row + np.tile(self.D - 1, T)
        self._k_flat = self.k.reshape(-1)
        # For the forced-span coast (_coast): each position's move total;
        # the move after which its tail frees each interior hop, h + L +
        # 1 (_FAR on the final hop and the padding, which it frees at
        # completion or never holds); and a mask over the arbiter's keys.
        self._total_flat = np.tile(self.total_moves, T)
        hop = np.arange(maxD)
        self._frees_at = np.tile(
            np.where(
                hop < self.D[:, None] - 1, hop + self.L[:, None] + 1, _FAR
            ),
            (T, 1),
        )
        self._keys2d = self._keys.reshape(T * M, maxD)
        self._req = np.zeros(self.arbiter.occupancy.size, dtype=bool)
        self._needs_flat = self._needs.reshape(-1)
        self._mov_flat = self._mov.reshape(-1)
        self._ev_flat = self._ev.reshape(-1)
        if option == "age":
            self._prio = np.tile(age_priorities(packed.release), T)
        elif option == "rank":
            self._prio = np.concatenate([rng.permutation(M) for rng in rngs])
        else:
            self._prio = self._m_of

    def _slots(
        self, trials: np.ndarray, msgs: np.ndarray, hop: np.ndarray
    ) -> np.ndarray:
        """Per-trial slot ids for the given (trial, message, hop) picks."""
        edges = self.padded[msgs, hop]
        if self.vc_padded is None:
            return edges
        return edges * self.B[trials] + self.vc_padded[msgs, hop]

    def _hold_queued(self, active: np.ndarray) -> np.ndarray:
        """``active`` less the queued messages whose predecessor has not
        moved; a pair whose predecessor has moved is dropped for good."""
        gated, pred = self._gate
        held = self._k_flat.take(pred) == 0
        if not held.all():
            gated, pred = gated[held], pred[held]
            self._gate = (gated, pred) if gated.size else None
        np.copyto(self._act, active)
        self._act.reshape(-1)[gated] = False
        return self._act

    def body(self, t: int, active: np.ndarray) -> np.ndarray:
        if self._gate is not None:  # held: neither contends nor drains
            active = self._hold_queued(active)
        k, D, probes = self.k, self.D, self.probes
        loop, arbiter, keys = self.state, self.arbiter, self._keys
        # Dense (T, M) masks guarded by their own counts: a step pays
        # index lists only for the phases in which something happens.
        needs, mov, ev = self._needs, self._mov, self._ev
        np.less(k, D, out=needs)
        np.logical_and(needs, active, out=needs)
        np.greater(active, needs, out=mov)  # draining worms always move

        cp = ckeys = None
        won = 0
        if np.count_nonzero(needs):
            # Ascending flat positions: per trial, ascending message —
            # the serial draw order.
            cp = self._needs_flat.nonzero()[0]
            hop = self._k_flat.take(cp)
            ckeys = keys.take(self._row.take(cp) + hop)
            if self.option == "random":
                prio = self._random_prio(cp)
            else:
                prio = self._prio.take(cp)
            granted, won = arbiter.grant(ckeys, prio)
            if won:
                self._mov_flat[cp[granted]] = True
            if probes is not None:  # T = 1: a position is its message
                raw = self.padded[cp, hop]
                probes.on_grant(t, cp[granted], raw[granted])
                if won != cp.size:
                    lost = ~granted
                    probes.on_block(t, cp[lost], raw[lost])
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
            vp = self._ev_flat.nonzero()[0]
            cell = self._rel_row.take(vp) + self._k_flat.take(vp)
            arbiter.vacate(keys.take(cell))
            if probes is not None:  # T = 1: the same cell of `padded`
                probes.on_release(t, vp, self.padded.reshape(-1)[cell])
        np.equal(k, self.total_moves, out=ev)
        np.logical_and(ev, mov, out=ev)
        finished = np.count_nonzero(ev)
        if finished:
            fp = self._ev_flat.nonzero()[0]
            self._completion[fp] = t
            self._done[fp] = True
            arbiter.vacate(keys.take(self._last_cell.take(fp)))
            if probes is not None:
                probes.on_release(t, fp, self.padded[fp, D[fp] - 1])
                probes.on_complete(t, fp)
        if probes is not None:
            probes.on_step(t, np.flatnonzero(mov[0]), k[0])
        moved = np.logical_or.reduce(mov, axis=1, out=self._moved)
        # A worm that completed here would end any span at once (it has
        # no move left): `finished` only spares _coast the finding out.
        if not (won or finished or probes is not None):
            self._coast(t, cp, ckeys)
        return moved

    def _coast(self, t: int, cp, ckeys) -> None:
        """Apply the forced steps after step ``t`` in one update.

        Step ``t`` granted nothing and delivered nothing, so until a
        drainer's window frees a requested slot (usable the step after),
        a drainer completes, a message is released or a cap falls due
        (:meth:`BatchStepLoop.coast_limit`), every following step is the
        same: the contenders ``cp`` (requesting ``ckeys``) are refused,
        each drainer moves once, and nothing else changes.  A trial with
        contenders but no drainer is left to the loop's deadlock rule.
        """
        loop, arbiter = self.state, self.arbiter
        # Every trial with a contender must have moved (a drainer), and
        # no vacate of this step may have freed a requested seat.
        if cp is not None and not (
            self._moved.take(self._t_of.take(cp)).all() and arbiter.full(ckeys)
        ):
            return
        dp = self._mov_flat.nonzero()[0]  # the drainers: nobody was granted
        kd = self._k_flat.take(dp)
        # Steps until the first completion, the last a span may include.
        left = self._total_flat.take(dp) - kd
        span = min(int(left.min()), loop.coast_limit(t) - t)
        if span <= 0:
            return
        # Each drainer's hops by the step, after t, at which its tail
        # frees them; a hop it no longer holds reads <= 0.
        gone = self._frees_at.take(dp, axis=0)
        gone -= kd[:, None]
        vkeys = self._keys2d.take(dp, axis=0)
        held = gone > 0
        if cp is not None:
            req = self._req
            req[ckeys] = True
            frees = held & req.take(vkeys, mode="clip")
            req[ckeys] = False
            if frees.any():
                span = min(span, int(gone[frees].min()))
        np.logical_and(held, gone <= span, out=held)
        arbiter.vacate(vkeys[held])
        kd += span
        self._k_flat[dp] = kd
        fp = dp[left == span]
        if fp.size:
            self._completion[fp] = t + span
            self._done[fp] = True
            arbiter.vacate(self._keys.take(self._last_cell.take(fp)))
        if cp is not None:
            self._blocked[cp] += span
            if self.option == "random":
                self._skip_prio(cp, span)
            arbiter.refuse(span)
        loop.coasted = span

    def audit(self, t: int) -> None:
        """Recount what the body maintains, after step ``t``: the
        arbiter's occupancy from ``k`` / ``L`` / the routes, and the key
        tables from :meth:`_slots`.

        After ``k`` moves a worm has acquired path edges ``0 .. min(k,
        D) - 1`` and let go of ``0 .. k - L - 1``; the final edge goes at
        completion (``k == L + D - 1``).
        """
        arbiter, D, L = self.arbiter, self.D, self.L
        want = np.zeros_like(arbiter.occupancy)
        for p, (tr, m) in enumerate(np.ndindex(self.T, self.M)):
            hop, trs = np.arange(D[m]), np.full(D[m], tr)
            keys = arbiter.keys(trs, self._slots(trs, np.full(D[m], m), hop))
            assert np.array_equal(self._keys[self._row[p] + hop], keys)
            assert not D[m] or self._keys[self._last_cell[p]] == keys[-1]
            moves = int(self.k[tr, m])
            if moves < L[m] + D[m] - 1:  # else delivered: holds nothing
                np.add.at(want, keys[max(0, moves - L[m]) : moves], 1)
        assert np.array_equal(arbiter.occupancy, want)
        per_slot = np.repeat(arbiter.capacities, np.diff(arbiter.offsets))
        assert (arbiter.occupancy <= per_slot).all(), "a slot over capacity"


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
    * the tail watch ``_f[t, m]``, the number of leading path edges that
      carried all ``L`` flits, and its flat index ``_fi`` into
      ``crossed``: only edge ``_f`` can newly reach ``L`` in a step
      (MODEL.md section 8), so releases and deliveries are found by one
      ``(T, M)`` gather;
    * the row-sliced views of all scratch (``_slice``) are rebuilt only
      when ``loop.hi`` moves.

    Three sentinels make the per-step masks unconditional.  ``owner``
    has one extra column ``num_edges`` that is always owned, and the
    owner-key table ``_okey`` (one row of ``maxD + 1`` keys per flat
    position) maps path padding and a delivered header (``h == D``) to
    it, so ``claim = active & (owner[want] < 0)`` needs no ``h < D``
    gate.  ``v`` has one always-zero guard slab in front,
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

    After a step that claimed and delivered nothing, :meth:`_coast`
    applies the quiet steps that follow in the same call (MODEL.md
    section 8, "Quiet spans").
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
        # Owner keys of each position's route, with the sentinel for
        # padding and for column maxD (a delivered header of a
        # full-length path): path edge i of position p is cell
        # _obase[p] + i.
        routes = np.full((M, maxD + 1), num_edges, dtype=np.int64)
        np.copyto(routes[:, :maxD], padded, where=padded >= 0)
        self._okey = (
            np.arange(T)[:, None, None] * (num_edges + 1) + routes
        ).reshape(-1)
        self._obase = np.arange(T * M).reshape(T, M) * (maxD + 1)
        rev_last = maxD - self.D  # r of each message's last edge
        # Per-trial / per-message constants are pre-broadcast to full
        # (T, M) (or (maxD, T, M)) slabs: a stride-0 axis in the middle
        # of an operand defeats numpy's loop-merging and reintroduces
        # the tiny-segment overhead the layout exists to avoid.
        self.L32 = np.ascontiguousarray(
            np.broadcast_to(self.L.astype(np.int32)[None, :], (T, M))
        )
        idx = np.arange(maxD)
        self._cap = np.where(
            idx[:, None, None] > rev_last[None, None, :],
            B.astype(np.int32)[None, :, None],
            np.int32(np.iinfo(np.int32).max),
        )
        # Header state (see the class docstring); h = 0 sits at r =
        # maxD - 1, i.e. slab maxD of the guarded advance mask.
        self._h = np.zeros((T, M), dtype=np.int64)
        self._hv = maxD * T * M + np.arange(T * M).reshape(T, M)
        self._want = self._okey[self._obase]
        # Tail watch: f = 0 sits at r = maxD - 1 of crossed.
        self._f = np.zeros((T, M), dtype=np.int64)
        self._fi = self._hv - T * M
        self._TM = np.int64(T * M)
        self._owned = np.zeros(shape, dtype=bool)
        self._owned_flat = self._owned.reshape(-1)
        self._crossed_flat = self.crossed.reshape(-1)
        self._obase_flat = self._obase.reshape(-1)
        self._want_flat = self._want.reshape(-1)
        self._hv_flat = self._hv.reshape(-1)
        self._f_flat = self._f.reshape(-1)
        self._fi_flat = self._fi.reshape(-1)
        # Preallocated scratch so the body allocates nothing
        # proportional to the state per step.
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
        self._tail = np.empty((T, M), dtype=np.int32)
        self._claim = np.empty((T, M), dtype=bool)
        self._prog = np.empty((T, M), dtype=bool)
        self._ret = np.zeros(T, dtype=bool)
        self._hi = -1
        self._views = None
        # For the quiet-span coast (_coast): per-position D, L and B, the
        # crossed offset of each path index, and a mask over owner keys.
        self._msg = np.stack(
            [np.tile(self.D, T), np.tile(self.L, T), np.repeat(B, M)]
        ).astype(np.int64)
        self._lane = idx[:, None]
        self._xrow = (maxD - 1 - np.arange(maxD + 1)) * self._TM
        self._xcol = self._xrow[:maxD, None]
        self._h_flat = self._h.reshape(-1)
        self._req = np.zeros(self.owner.size, dtype=bool)

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
            self._h[:hi], self._hv[:hi], self._want[:hi], self._obase[:hi],
            self._fi[:hi], self._tail[:hi], self._adv[:hi], self._i64[:hi],
            self._own[:hi], self._claim[:hi], self._claim[:hi].reshape(-1),
            self.state.blocked[:hi],
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
            h, hv, want, obase, fi, tail, adv, i64,
            own, claim, claim_flat, blocked,
        ) = self._views
        act = active[:hi]
        owner, TM = self._owner_flat, self._TM

        # -- header claims: contend for unowned edges, capacity 1 -------
        # `want` is the owner key of the edge each header needs next
        # (the always-owned sentinel once it is delivered).  The flat
        # indices are in range by construction; "clip" only spares
        # take() the buffering "raise" does behind an `out=`.
        owner.take(want, out=own, mode="clip")
        np.less(own, 0, out=claim)
        np.logical_and(claim, act, out=claim)
        quiet = not np.count_nonzero(claim)
        if not quiet:
            cp = claim_flat.nonzero()[0]
            keys = self._want_flat.take(cp)  # (trial, edge), stride E + 1
            msgs = self._m_of.take(cp)
            if self.option == "random":
                prio = self._random_prio(cp)
            else:  # "index": claimer-list position, ascending m per trial
                prio = msgs
            granted = grant_free_slots(keys, prio, 1)
            gp, gm, gk = cp, msgs, keys
            if np.count_nonzero(granted) != keys.size:
                gp, gm, gk = cp[granted], msgs[granted], keys[granted]
            owner[gk] = gm
            # Edge h sits one slab below the header's advance-mask slab.
            self._owned_flat[self._hv_flat.take(gp) - TM] = True
            if probes is not None:  # T = 1: a key is its edge
                # Serial appends grants in ascending-priority order.
                order = np.argsort(prio[granted], kind="stable")
                probes.on_grant(t, gm[order], gk[order])

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
            np.multiply(adv, TM, out=i64)
            np.subtract(hv, i64, out=hv)
            np.add(obase, h, out=i64)
            self._okey.take(i64, out=want, mode="clip")

        # -- releases and deliveries ------------------------------------
        # Ownership ends once the last flit moves on: the previous
        # edge's buffer is drained for good, and the final edge
        # delivers instantly.  Only edge f (the first not yet at L) can
        # newly reach L in a step (MODEL.md section 8), so one gather at
        # its flat index finds every event; a delivered message (f ==
        # D, its index clipped) is not active.
        rel_events: list[tuple[int, int, int]] = []  # (phase, m, e), T=1
        delivered_m = _EMPTY_IDX
        self._crossed_flat.take(fi, out=tail, mode="clip")
        newly = claim  # reused
        np.equal(tail, L32, out=newly)
        np.logical_and(newly, act, out=newly)
        freed = np.count_nonzero(newly)
        if freed:
            owned_all, okey = self._owned_flat, self._okey
            ep = claim_flat.nonzero()[0]
            f = self._f_flat.take(ep)
            efi = self._fi_flat.take(ep)
            cell = self._obase_flat.take(ep) + f  # edge f's owner-key cell
            em = self._m_of.take(ep)
            inner = f > 0
            if np.count_nonzero(inner):
                pm = em[inner]
                prev_k = okey.take(cell[inner] - 1)
                ok = owner.take(prev_k) == pm
                owner[prev_k[ok]] = -1
                # `owned` stays in sync unconditionally: where the ok
                # guard fails, the message's claim there is already
                # cleared, so re-clearing is a no-op.  Edge f - 1 sits
                # one slab above edge f.
                owned_all[efi[inner] + TM] = False
                if probes is not None:  # T = 1: a key is its edge
                    rel_events.extend(
                        (0, int(m), int(e))
                        for m, e in zip(pm[ok], prev_k[ok])
                    )
            last = f == self.D.take(em) - 1
            if np.count_nonzero(last):
                # Reaching L on the final edge IS delivery.
                lk = okey.take(cell[last])
                owner[lk] = -1
                owned_all[efi[last]] = False
                lp = ep[last]
                self._completion[lp] = t
                self._done[lp] = True
                delivered_m = em[last]
                quiet = False
                if probes is not None:
                    rel_events.extend(
                        (1, int(m), int(e)) for m, e in zip(delivered_m, lk)
                    )
            self._f_flat[ep] = f + 1
            self._fi_flat[ep] = efi - TM

        stalled = claim  # reused: active messages that did not progress
        np.greater(act, progressed, out=stalled)
        np.add(blocked, stalled, out=blocked)
        if probes is not None:
            self._emit_step_events(t, stalled, progressed, rel_events, delivered_m)
        np.logical_or.reduce(progressed, axis=1, out=ret)
        # A step that claimed and delivered nothing may start a span.
        if quiet and probes is None:
            self._coast(t, act, freed)
        return self._ret

    def _coast(self, t: int, act: np.ndarray, freed: int) -> None:
        """Apply the quiet steps after step ``t`` in one update.

        Step ``t`` claimed and delivered nothing, so every active header
        waits on an edge another message owns or has crossed its path.
        Until a wanted edge is freed, a message is delivered, a release
        or cap falls due (:meth:`BatchStepLoop.coast_limit`) or a trial
        stops moving, each message's flits follow the closed form of
        MODEL.md section 8 ("Quiet spans") on its own edges.  ``act`` is
        the step's ``(hi, M)`` active mask; ``freed`` says whether step
        ``t`` released an edge.  Arrays are ``(maxD, n)``: path index
        first, one column per message with flits in the network.
        """
        loop, owner, hi, ret = self.state, self._owner_flat, self._hi, self._ret
        # Every trial that acted must have moved, else the deadlock rule
        # may fire at t (a lone trial acted, or body was not called); and
        # no edge a header waits on may have been freed.
        if self.T == 1:
            if not ret[0]:
                return
        elif (np.logical_or.reduce(act, axis=1) > ret[:hi]).any():
            return
        if freed and np.count_nonzero((owner.take(self._want[:hi]) < 0) & act):
            return
        net = self._h[:hi] > 0  # messages with flits in the network
        net &= act
        p = net.reshape(-1).nonzero()[0]
        h = self._h_flat.take(p)
        D, L, B = self._msg.take(p, axis=1)
        cells = self._xcol + p
        x = self._crossed_flat.take(cells)
        lane = self._lane
        drain = h == D
        # Each edge gains a flit a step until it reaches tau = min(L,
        # B (h - i)), where a waiting worm stops (MODEL.md section 8).
        # A drainer's buffers never hold it back: its tau is L on the
        # path, B = L there.
        tau = np.minimum(L, np.where(drain, L, B) * (h - lane))
        # Progress steps P: the first s at which x(s) = tau; a drainer's
        # is the step of its delivery.
        P = np.maximum.reduce(tau - x, axis=0)
        span = loop.coast_limit(t) - t
        if np.count_nonzero(drain):  # the first delivery
            span = min(span, int(np.minimum.reduce(P[drain])))
        if self.T == 1:  # the first step a trial would not move
            most = int(np.maximum.reduce(P))
            span = min(span, most + 1)
        else:
            most = np.zeros(hi * self.M, dtype=np.int64)
            most[p] = P
            most = np.maximum.reduce(most.reshape(hi, -1), axis=1)
            span = min(span, int(np.minimum.reduce(most[ret[:hi]])) + 1)
        # The first step that frees an owned edge a header waits on:
        # edge j - 1 is freed when x_j reaches L, after L - x_j steps,
        # or never if the worm compresses below L there.  (Its last edge
        # is freed by its delivery.)
        req = self._req
        keys = self._want[:hi][act]  # a drainer's is the sentinel's
        req[keys] = True
        okeys = self._okey.take(self._obase_flat.take(p) + lane)
        owned = self._owned_flat.take(cells)
        wanted = req.take(okeys[:-1])
        req[keys] = False
        wanted &= owned[:-1]
        if np.count_nonzero(wanted):  # rows j = 1 .. maxD - 1
            rel = L - x[1:]
            rel[tau[1:] < L] = _FAR
            span = min(span, int(np.minimum.reduce(rel[wanted])))
        if span <= 0:
            return
        # x(s): each count s flits on, up to tau (<= 0 beyond the header).
        w = np.minimum(np.add(x, span, dtype=np.int64), tau)
        np.maximum(w, 0, out=w)
        self._crossed_flat.put(cells, w)
        # The releases inside the span, and a delivery on its last step:
        # the new tail watch f is the run of edges at L.
        f = np.add.reduce(w == L, axis=0)
        fin = f == D
        owned &= lane < f - 1 + fin
        owner[okeys[owned]] = -1
        self._owned_flat[cells[owned]] = False
        self._fi_flat[p] = self._xrow.take(f) + p
        self._f_flat[p] = f
        fin = p[fin]
        self._completion[fin] = t + span
        self._done[fin] = True
        # A message progresses on a prefix of the span: min(P, s) steps.
        blocked = loop.blocked[:hi]
        blocked += act * span
        self._blocked[p] -= np.minimum(P, span)
        ret[:hi] = most >= span
        loop.coasted = span

    def _emit_step_events(self, t, stalled, progressed, rel_events, finished):
        """Reproduce the serial per-step event stream (T = 1 only)."""
        probes, h = self.probes, self._h[0]
        stalled = np.flatnonzero(stalled[0])
        if stalled.size:
            # A stalled header reports the edge it waits for (its owner
            # key, at T = 1); a stalled body (header delivered: the
            # sentinel) reports none.
            wanted = self._want[0, stalled]
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

    def audit(self, t: int) -> None:
        """Everything maintained == its definition, after step ``t``:
        recomputed from ``crossed``, ``owner`` and the routes."""
        loop, T, M, E = self.state, self.T, self.M, self.num_edges
        padded, D, maxD = self.padded, self.D, self.max_D
        pos = np.arange(T * M).reshape(T, M)
        # crossed[r, t, m] counts path edge i = maxD - 1 - r: flip it.
        crossed = self.crossed[::-1].transpose(1, 2, 0)
        on_path = np.arange(maxD)[None, :] < D[:, None]
        assert not crossed[:, ~on_path].any(), "flits beyond a path's end"
        assert (np.diff(crossed, axis=2)[:, on_path[:, 1:]] <= 0).all()
        # The header sits at the first edge no flit has crossed, the
        # tail watch at the first edge that has not carried all L.
        h = (crossed > 0).sum(axis=2)
        assert np.array_equal(self._h, h) and (h <= D).all()
        at_L = (crossed == self.L[None, :, None]) & on_path
        f = np.cumprod(at_L, axis=2).sum(axis=2)
        assert np.array_equal(self._f, f)
        # No buffer inside a worm is empty (MODEL.md section 8, what
        # the quiet-span coast rests on): counts fall from f to h - 1.
        lane = np.arange(maxD - 1)
        inside = (lane >= f[..., None]) & (lane < h[..., None] - 1)
        assert (np.diff(crossed, axis=2)[inside] < 0).all(), "a gap in a worm"
        # ... and their flat indices are affine in them.
        assert np.array_equal(self._hv, (maxD - h) * T * M + pos)
        assert np.array_equal(self._fi, (maxD - 1 - f) * T * M + pos)
        edge = np.where(h < D, padded[np.arange(M), np.minimum(h, maxD - 1)], E)
        assert np.array_equal(self._want, np.arange(T)[:, None] * (E + 1) + edge)
        # A delivered header must read "did not move" and "edge owned".
        assert not self._v[0].any(), "guard slab written"
        assert (self.owner[:, E] == M).all(), "sentinel edge changed hands"
        assert (self._v_flat[self._hv[h == D]] == 0).all()
        # Ownership mask == the owner table read along each route.
        owned = np.zeros((T, M, maxD), dtype=bool)
        for m in range(M):
            owned[:, m, : D[m]] = self.owner[:, padded[m, : D[m]]] == m
        assert np.array_equal(self._owned[::-1].transpose(1, 2, 0), owned)
        held = self.owner[:, :E]
        assert ((held >= -1) & (held < M)).all()
        for tr, e in zip(*np.nonzero(held >= 0)):
            assert e in padded[held[tr, e], : D[held[tr, e]]]
        # A message owns edges only while released and undelivered (what
        # lets the movement phase drop its `& active`), in live trials.
        may_own = (loop.release < t) & ~loop.done
        assert (self._owned.any(axis=0) <= may_own)[loop.live].all()


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
        delay_range = exact_count(delay_range, "delay_range")
        # Deliberately no edge-simplicity check: see MODEL.md section 6
        # (an edge is held only within the step it transmits, so
        # repeated edges just queue twice).
        pp = PaddedPaths.from_paths(paths).require_edges_in(net.num_edges)
        padded, D = pp.padded, pp.lengths
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
        T, M = self.T, self.M
        maxD = self.padded.shape[1]
        self.hop = packed.hop
        self.max_queue = np.zeros(T, dtype=np.int64)
        # Flat by position p = t * M + m: hops done, the grant key (trial,
        # edge) of every path cell, read at _row[p] + hops_done[p], and
        # per-position D / hop.
        self.hops_done = np.zeros(T * M, dtype=np.int64)
        self._keys = (
            np.arange(T)[:, None, None] * self.num_edges + self.padded
        ).reshape(-1)
        self._row = np.arange(T * M, dtype=np.int64) * maxD
        self._D_of = np.tile(self.D, T)
        self._hop_of = np.repeat(self.hop, M)
        # Release times in *message steps*, per trial.
        self._release = np.ascontiguousarray(loop.release).reshape(-1)

    def extra_factory(self, i: int) -> dict:
        return {
            "max_queue": int(self.max_queue[i]),
            "message_step_flits": int(self.hop[i]),
        }

    def body(self, t: int, active: np.ndarray) -> np.ndarray:
        probes, hops = self.probes, self.hops_done
        pos = active.reshape(-1).nonzero()[0]
        rows = self._t_of.take(pos)
        hd = hops.take(pos)
        keys = self._keys.take(self._row.take(pos) + hd)
        if self.option == "random":
            prio = self._random_prio(pos)
        elif self.option == "age":
            prio = self._release.take(pos)
        else:  # farthest to go first
            prio = hd - self._D_of.take(pos)
        winners = grant_free_slots(keys, prio, 1)  # one message per edge
        # Queue-depth bookkeeping: contenders per edge this step.
        counts = np.bincount(keys)
        np.maximum.at(self.max_queue, rows, counts[keys])

        mp = pos
        lost = np.count_nonzero(winners) != keys.size
        if lost:
            mp = pos[winners]
            losers = ~winners
            lp = pos[losers]
            self._blocked[lp] += self._hop_of.take(lp)
        hops[mp] += 1
        fin = hops.take(mp) == self._D_of.take(mp)
        if fin.any():
            fp = mp[fin]
            self._completion[fp] = t * self._hop_of.take(fp)
            self._done[fp] = True

        if probes is not None:  # T = 1: positions are messages, keys edges
            probes.on_grant(t, mp, keys[winners])
            if lost:
                probes.on_block(t, lp, keys[losers])
            # A store-and-forward edge is held only within the step it
            # transmits, so the grant's slot frees immediately.
            probes.on_release(t, mp, keys[winners])
            if fin.any():
                probes.on_complete(t, mp[fin])
            probes.on_step(t, mp, hops)
        # A contended edge always forwards someone.
        return np.logical_or.reduce(active, axis=1)


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
    """Online adaptive routing over per-trial head orders, in prefix waves.

    Each step, every trial shuffles its active messages with its own
    RNG (the serial head-service order).  Every head's options come
    from its topology (:meth:`_options`): on a 2-D mesh the productive
    x- and y-moves the turn-model policy allows, on a
    :class:`~repro.network.multibutterfly.Multibutterfly` the ``d``
    edges into the destination's half at the head's level.  They are
    computed vectorized for every head of every trial; heads are then
    served in *prefix waves* — each pass serves, in every trial at once,
    the heads ahead of the first one whose free set could still depend
    on an earlier head (MODEL.md section 7) — while the free-option draw
    consumes each trial's RNG exactly as its serial run would (one
    ``integers(k)`` per head with ``k >= 2`` free options, in service
    order).
    """

    @classmethod
    def pack(
        cls, topology, demands, message_length, release_times, *, B, option,
        rngs,
    ) -> Packed:
        L = _scalar_length(message_length)
        ends = np.asarray(demands, dtype=np.int64).reshape(-1, 2)
        mbf = isinstance(topology, Multibutterfly)
        if mbf and option != "fully-adaptive":
            raise NetworkError(
                "policy must be 'fully-adaptive' on a multibutterfly "
                f"('dimension' and 'west-first' are 2-D mesh turn models), "
                f"got {option!r}"
            )
        if not mbf:
            check_mesh(topology)
        bad = (ends < 0) | (ends >= (topology.n if mbf else topology.num_nodes))
        if bad.any():
            what = "column" if mbf else "node id"
            raise NetworkError(f"{what} {int(ends[bad][0])} out of range")
        if mbf:  # (input column, output column): every route has log n hops
            tables = topology.network.heads_array()
            lengths = np.full(len(ends), topology.log_n, dtype=np.int64)
        else:
            tables = topology.direction_tables()
            src, dst = tables[0][ends.T]
            # Minimal routes all have the Manhattan length.
            lengths = np.abs(src - dst).sum(axis=1)
        return Packed(
            lengths=lengths,
            message_length=L,
            release=_shared_release(release_times, len(demands)),
            num_edges=topology.network.num_edges,
            padded=None,
            ends=ends,
            topology=topology,
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
        self.topology, self.tables = packed.topology, packed.tables
        self.source, self.dest = packed.ends.T
        # Per-message state is flat, by position p = t * M + m (DESIGN
        # decision 23): node, route length and taken route (hop i is cell
        # _taken_row[p] + i; a tail vacates hop _rel_row[p] + k[p]), and
        # the occupancy of edge e is cell _occ_row[p] + e.
        self.position = np.tile(self.source, T)
        self.k = np.zeros((T, M), dtype=np.int64)
        self.occ = np.zeros(T * self.num_edges, dtype=np.int64)
        max_d = max(int(self.D.max()) if M else 0, 1)
        self.taken = np.zeros((T * M, max_d), dtype=np.int64)
        self.tlen = np.zeros(T * M, dtype=np.int64)
        self._occ_row = self._t_of * self.num_edges
        self._taken_row = np.arange(T * M, dtype=np.int64) * max_d
        self._rel_row = self._taken_row - (self.L + 1)
        self._last_cell = self._taken_row + np.tile(self.D - 1, T)
        # Preallocated per-step scratch: the padded shuffle matrix and
        # the movement mask (no per-step (T, M) allocations).
        self._draw_mat = np.empty((T, M), dtype=np.float64)
        self._mov = np.zeros((T, M), dtype=bool)
        self._k_flat = self.k.reshape(-1)
        self._taken_flat = self.taken.reshape(-1)
        self._mov_flat = self._mov.reshape(-1)
        # Steps that served heads, and the passes they took (tests read
        # these to see the waves at work).
        self.head_steps = 0
        self.head_passes = 0

    def taken_paths(self, trial: int) -> list[list[int]]:
        """The edge ids trial ``trial``'s messages actually traversed."""
        rows = range(trial * self.M, (trial + 1) * self.M)
        return [self.taken[p, : self.tlen[p]].tolist() for p in rows]

    def audit(self, t: int) -> None:
        """Recount what the body maintains, after step ``t``: ``occ``
        from each message's taken route, ``k`` and ``L``, and ``tlen`` /
        ``position`` against the taken route.

        A head takes one edge per move until it has ``D`` of them, each
        one of the options (:meth:`_options`, the policy applied) of the
        node the last one entered — so each is one hop nearer the
        destination; the route's edges are held in
        :meth:`WormholeKernel.audit`'s window.
        """
        T, M, E, L = self.T, self.M, self.num_edges, self.L
        want = np.zeros_like(self.occ)
        for p, (tr, m) in enumerate(np.ndindex(T, M)):
            moves, d, n = int(self.k[tr, m]), int(self.D[m]), int(self.tlen[p])
            assert n == min(moves, d), "a route length off the move count"
            route, node = self.taken[p, :n], self.source[m]
            for e in route:
                oe, on = self._options(np.array([node]), np.array([m]))
                assert e in oe[0], "a taken hop is not an option of its node"
                node = on[0, oe[0] == e][0]
            assert self.position[p] == node, "a head off its taken route"
            if moves < L + d - 1:  # else delivered: holds nothing
                np.add.at(want, tr * E + route[max(0, moves - L) :], 1)
        assert np.array_equal(self.occ, want)
        assert (self.occ.reshape(T, E) <= self.B[:, None]).all(), (
            "a channel over capacity"
        )

    def _options(self, pos: np.ndarray, ms: np.ndarray):
        """Vectorized options of heads at nodes ``pos`` (messages ``ms``),
        in serial order.

        Returns ``(oe, on)`` — ``(n, W)`` edge and node ids (``-1`` =
        absent).  On a multibutterfly, ``W = d``: the ``d`` edges into
        the destination's half of the next-level block
        (:meth:`~repro.network.multibutterfly.Multibutterfly.candidates`).
        On a mesh, ``W = 2``: the x-move and the y-move the policy
        allows — the serial option list appends the x-move first.
        """
        if isinstance(self.topology, Multibutterfly):
            oe = self.topology.candidates(pos, self.dest.take(ms))
            return oe, self.tables.take(oe)
        coords, dir_edge, dir_node = self.tables
        delta = coords[self.dest[ms]] - coords[pos]
        d = _AXIS_DIR[_AXES, np.sign(delta)]
        if self.option == "dimension":  # y only once x is corrected
            d[delta[:, 0] != 0, 1] = 4
        elif self.option == "west-first":
            # Destination west: go fully west, deterministically.
            d[delta[:, 0] < 0, 1] = 4
        pos = pos[:, None]
        return dir_edge[pos, d], dir_node[pos, d]

    @staticmethod
    def _earlier_claims(key: np.ndarray) -> np.ndarray:
        """How many earlier heads of the same trial list each candidate.

        ``key`` is the ``(n, W)`` matrix of the heads' candidate
        ``(trial, edge)`` occupancy keys, trial-major in service order
        (``-1`` = absent).  A head's candidates are distinct edges, so
        the rank of a claim within its key group, taken in head order,
        is the count of earlier heads that could acquire that edge
        before it.  Absent candidates share one group; their rank is
        never read.
        """
        shape, key = key.shape, key.reshape(-1)
        idx = np.arange(key.size)
        # Head order within a group without a stable sort: the keys
        # key * n + position are unique, so their one order is the
        # stable order of `key`.
        srt = np.argsort(key * key.size + idx)
        sk = key[srt]
        first = np.empty(key.size, dtype=bool)
        first[:1] = True
        np.not_equal(sk[1:], sk[:-1], out=first[1:])
        rank = np.empty(key.size, dtype=np.int64)
        rank[srt] = idx - np.maximum.accumulate(np.where(first, idx, 0))
        return rank.reshape(shape)

    def body(self, t: int, active: np.ndarray) -> np.ndarray:
        T, L = self.T, self.L
        dists, probes = self.D, self.probes
        occ, B, k = self.occ, self.B, self.k
        # Per-trial head-service order: each trial with active messages
        # shuffles them with its own RNG (the serial draw, one
        # ``random(n)`` per trial), but the argsort runs batched over a
        # +inf-padded (T, max_len) matrix.
        counts = np.count_nonzero(active, axis=1)
        max_len = int(counts.max())
        pos = active.reshape(-1).nonzero()[0]
        rows = self._t_of.take(pos)
        first = (np.cumsum(counts) - counts).take(rows)  # trial's 1st entry
        draw_mat = self._draw_mat[:, :max_len]
        draw_mat[...] = np.inf
        for tr in np.flatnonzero(counts):
            n = counts[tr]
            draw_mat[tr, :n] = self.rngs[tr].random(n)
        perm = np.argsort(draw_mat, axis=1).reshape(-1)
        # The service order, flat: trial-major, shuffled within a trial
        # (entry i of trial r is served the perm[r, i]-th active message).
        i = np.arange(pos.size) - first
        sp = pos.take(first + perm.take(rows * max_len + i))

        mov = self._mov
        np.greater_equal(k, dists, out=mov)
        mov &= active  # draining worms always move
        heads = ~self._mov_flat.take(sp)
        ht, hp = rows[heads], sp[heads]
        hm = self._m_of.take(hp)
        grants: list[tuple[np.ndarray, np.ndarray]] = []
        blocks: list[tuple[np.ndarray, np.ndarray]] = []
        if ht.size:
            self.head_steps += 1
            oe, on = self._options(self.position.take(hp), hm)
        # Prefix waves (MODEL.md section 7): a head's outcome can depend
        # on an earlier head only through an edge whose free lanes the
        # earlier claims could exhaust.  Occupancy only rises while
        # heads are served, so "full now" and "free even if every
        # earlier claimant takes it" are both exact; each pass serves
        # every trial's heads up to its first undecided one at once.
        while ht.size:
            self.head_passes += 1
            okey = self._occ_row.take(hp)[:, None] + oe  # absent: masked
            room = B.take(ht)[:, None] - occ.take(okey)
            present = oe >= 0
            free = present & (room > 0)
            claims = self._earlier_claims(np.where(present, okey, -1))
            und = (free & (claims >= room)).any(axis=1)
            nfree = np.count_nonzero(free, axis=1)
            win, many = nfree > 0, nfree > 1
            blk = ~win
            wave = None
            if und.any():
                # A trial's first undecided head closes its wave.
                stop = np.full(T, ht.size, dtype=np.int64)
                u = np.flatnonzero(und)
                np.minimum.at(stop, ht[u], u)
                wave = np.arange(ht.size) < stop[ht]
                win &= wave
                many &= wave
                blk &= wave
            if blk.any():
                self._blocked[hp[blk]] += 1
                if probes is not None:  # the first present option
                    wanted = oe[np.arange(ht.size), present.argmax(axis=1)]
                    blocks.append((hm[blk], wanted[blk]))
            # Free-option choice: ``integers(1)`` never consumes RNG
            # state and always returns 0, so only heads with k >= 2 free
            # options draw from their trial's stream — one
            # ``integers(highs)`` per trial, split-exact against its
            # per-head scalar ``integers(k)`` draws.
            ch = np.zeros(ht.size, dtype=np.int64)
            draw = many.nonzero()[0]
            if draw.size:
                need = np.bincount(ht[draw], minlength=T)
                at = 0
                for tr in need.nonzero()[0]:
                    mine = draw[at : at + need[tr]]
                    ch[mine] = self.rngs[tr].integers(nfree[mine])
                    at += need[tr]
            # Each winner takes its ch-th free option, in option order.
            w = win.nonzero()[0]
            col = (free[w].cumsum(axis=1) > ch[w, None]).argmax(axis=1)
            sel = oe.shape[1] * w + col  # flat (head, column)
            e_sel = oe.reshape(-1).take(sel)
            wp = hp[w]
            # Several heads of one trial may now take one edge.
            np.add.at(occ, okey.reshape(-1).take(sel), 1)
            tl = self.tlen.take(wp)
            self._taken_flat[self._taken_row.take(wp) + tl] = e_sel
            self.tlen[wp] = tl + 1
            self.position[wp] = on.reshape(-1).take(sel)
            self._mov_flat[wp] = True
            if probes is not None and w.size:
                grants.append((hm[w], e_sel))
            if wave is None:
                break
            rest = ~wave
            ht, hp, hm = ht[rest], hp[rest], hm[rest]
            oe, on = oe[rest], on[rest]

        # -- movement: lock-step advance, strict buffer release ---------
        pre_k = self.k[0].copy() if probes is not None else None
        self.k += mov
        rel = self.k - L - 1
        vac = mov & (rel >= 0) & (rel < dists[None, :] - 1)
        if vac.any():
            vp = vac.reshape(-1).nonzero()[0]
            e = self._taken_flat.take(
                self._rel_row.take(vp) + self._k_flat.take(vp)
            )
            np.subtract.at(occ, self._occ_row.take(vp) + e, 1)
        fin = mov & (self.k == L + dists[None, :] - 1)
        if fin.any():
            fp = fin.reshape(-1).nonzero()[0]
            e = self._taken_flat.take(self._last_cell.take(fp))
            np.subtract.at(occ, self._occ_row.take(fp) + e, 1)
            self._completion[fp] = t
            self._done[fp] = True

        if probes is not None:
            # T = 1: the movers in service order (positions are messages).
            self._emit_step_events(
                t, sp[self._mov_flat.take(sp)], pre_k, grants, blocks
            )
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
                releases.append((m, int(self.taken[m, rel_i])))
            if km == L + d - 1:
                releases.append((m, int(self.taken[m, d - 1])))
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
