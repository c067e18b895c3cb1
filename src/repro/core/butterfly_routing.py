"""The randomized butterfly wormhole algorithm of Section 3.1.

Routes any ``q``-relation on an ``n``-input butterfly in
``O(L (q + log n) (log^(1/B) n) log log(nq) / B)`` flit steps w.h.p.
(Theorem 3.1.1), for ``B <= log log n / log log log n``.

The algorithm runs ``2 log log(nq) + 1`` rounds; each round:

1. every input makes **two copies** of each of its undelivered messages
   (skipped in round 0);
2. every message picks a color uniformly from ``{1..Delta}`` with
   ``Delta = beta q log^(1/B) n / B``;
3. the round runs ``Delta`` *subrounds*, one color each, pipelined so a
   new subround launches every ``L`` flit steps; a message makes **two
   passes** through the butterfly (Fig. 2): input -> uniformly random
   level-``log n`` intermediate -> true destination output;
4. a message *delayed at any switch is discarded* and resent next round.

Key structural fact exploited here: all worms of a subround inject
simultaneously into a leveled network, and a worm that would stall is
instead killed — so surviving heads stay level-synchronized, and the
dynamics reduce to per-edge arbitration at each of the ``2 log n``
levels: where more than ``B`` same-subround worms want an edge, ``B``
random winners survive (those that would have gotten the ``B`` virtual
channels) and the rest are discarded.  That reduction is exact for this
discard-on-delay discipline: the subround is Koch's circuit-switching
sweep, :func:`~repro.sim.circuit.arbitrate_levels`, one grant-kernel
round per level; tests cross-validate it against the generic flit-level
simulator.

Timing follows the proof of Theorem 3.1.1: each round costs
``L * Delta + 2 * (2 log n)`` flit steps (pipelined subrounds, path
length ``2 log n``), independent of how many messages survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..network.butterfly import Butterfly
from ..network.graph import NetworkError
from ..routing.problems import RoutingInstance
from ..sim.circuit import arbitrate_levels
from ..sim.kernels import exact_count
from .bounds import log2c, num_colors, num_rounds

__all__ = ["ButterflyRouter", "RoundStats", "ButterflyRoutingResult"]


@dataclass(frozen=True)
class RoundStats:
    """Per-round telemetry.

    ``max_copies_per_input`` / ``..._output`` track Invariant 3.1.2: after
    the copying step, at most ``q`` messages should originate at any
    input or target any output, w.h.p.
    """

    round_index: int
    num_candidates: int  # message copies entering the round
    num_survivors: int  # copies that completed both passes
    originals_remaining: int  # distinct original messages still undelivered
    flit_steps: int  # cost of this round
    num_colors: int
    max_copies_per_input: int = 0
    max_copies_per_output: int = 0


@dataclass
class ButterflyRoutingResult:
    """Outcome of a full run of the Section 3.1 algorithm."""

    delivered: np.ndarray  # bool per original message
    total_flit_steps: int
    rounds: list[RoundStats] = field(default_factory=list)

    @property
    def all_delivered(self) -> bool:
        return bool(self.delivered.all())

    @property
    def num_rounds_used(self) -> int:
        return len(self.rounds)


class ButterflyRouter:
    """The Section 3.1 randomized two-pass q-relation router.

    Parameters
    ----------
    n:
        Butterfly inputs (power of two).
    B:
        Virtual channels per edge.  The theorem needs
        ``B <= log log n / log log log n``; larger values still run but
        the bound no longer applies (a warning field is set).
    message_length:
        ``L`` in flits; only enters the flit-step accounting.
    beta:
        The color-count constant (``Delta = beta q log^(1/B) n / B``).
    seed:
        Reproducible randomness for colors, intermediates, arbitration.
    """

    def __init__(
        self,
        n: int,
        B: int = 1,
        message_length: int = 1,
        beta: float = 1.0,
        seed: int | None = 0,
    ) -> None:
        self.B = exact_count(B, "B", 1)
        self.L = exact_count(message_length, "message_length", 1)
        self.bf = Butterfly(n, passes=2)
        self.n = n
        self.log_n = self.bf.log_n
        self.beta = float(beta)
        if not 0 < self.beta < math.inf:
            raise NetworkError(f"beta must be a finite number > 0, got {beta!r}")
        self._rng = np.random.default_rng(seed)
        llln = log2c(log2c(n))
        lllln = max(log2c(llln), 1.0)
        self.b_within_theorem = self.B <= max(llln / lllln, 1.0)

    # ------------------------------------------------------------------
    def route(
        self,
        instance: RoutingInstance,
        max_rounds: int | None = None,
        pad_small_q: bool = True,
        duplicate_small_q: bool = False,
    ) -> ButterflyRoutingResult:
        """Deliver (a copy of) every message of ``instance``.

        ``instance`` gives (input, output) pairs; ``q`` is measured from
        it.  With ``pad_small_q`` (the paper's treatment of
        ``q < log n``), the *color count and round count* are computed as
        if ``q = Theta(log n)`` — the analysis pads with duplicate
        messages; padding only the parameters preserves the timing model
        without simulating dummy traffic.  ``duplicate_small_q`` goes
        further and performs the paper's duplication *literally*: each
        message is replicated ``ceil(log n / q)`` times up front, and
        delivery of any replica counts (the extra replicas also raise
        each round's success probability, at the cost of more simulated
        traffic).

        Rounds beyond the paper's ``2 log log(nq) + 1`` are run only if
        messages remain and ``max_rounds`` allows (default: paper count
        plus a safety margin of 10; the result reports actual usage).
        """
        if instance.n != self.n:
            raise NetworkError(
                f"instance is over {instance.n} endpoints, butterfly has {self.n}"
            )
        q = max(instance.max_per_source(), instance.max_per_dest(), 1)
        q_eff = max(q, int(math.ceil(log2c(self.n)))) if pad_small_q else q
        delta = num_colors(self.n, q_eff, self.B, self.beta)
        paper_rounds = num_rounds(self.n, q_eff)
        if max_rounds is None:
            max_rounds = paper_rounds + 10

        M = instance.num_messages
        delivered = np.zeros(M, dtype=bool)
        result = ButterflyRoutingResult(
            delivered=delivered, total_flit_steps=0
        )
        # Subrounds pipeline L+1 flit steps apart (one more than the
        # paper's L: a head-of-edge buffer is vacated one step after the
        # last flit crosses; tests/test_integration.py validates that
        # this spacing gives zero cross-subround interference), plus the
        # two passes' drain time.
        round_cost = (self.L + 1) * delta + 2 * (2 * self.log_n)

        copies_src = instance.sources.copy()
        copies_dst = instance.dests.copy()
        copies_orig = np.arange(M, dtype=np.int64)
        if duplicate_small_q and q < q_eff:
            dup = int(math.ceil(q_eff / q))
            copies_src = np.repeat(copies_src, dup)
            copies_dst = np.repeat(copies_dst, dup)
            copies_orig = np.repeat(copies_orig, dup)

        for r in range(max_rounds):
            pending = ~delivered[copies_orig]
            copies_src = copies_src[pending]
            copies_dst = copies_dst[pending]
            copies_orig = copies_orig[pending]
            if copies_orig.size == 0:
                break
            if r > 0:
                # Step 1: two copies of every undelivered message.
                copies_src = np.repeat(copies_src, 2)
                copies_dst = np.repeat(copies_dst, 2)
                copies_orig = np.repeat(copies_orig, 2)
            num_candidates = copies_orig.size
            max_in = int(np.bincount(copies_src, minlength=self.n).max())
            max_out = int(np.bincount(copies_dst, minlength=self.n).max())
            # Step 2: colors.
            colors = self._rng.integers(0, delta, size=num_candidates)
            # Step 3: subrounds (pipelined; cost accounted per round).
            survivors_round = 0
            for c in range(delta):
                sel = np.flatnonzero(colors == c)
                if sel.size == 0:
                    continue
                mids = self._rng.integers(0, self.n, size=sel.size)
                edges = self.bf.two_pass_path_edges_batch(
                    copies_src[sel], mids, copies_dst[sel]
                )
                alive = arbitrate_levels(edges, self.B, self._rng)
                winners = sel[alive]
                survivors_round += winners.size
                delivered[copies_orig[winners]] = True
            result.total_flit_steps += round_cost
            result.rounds.append(
                RoundStats(
                    round_index=r,
                    num_candidates=num_candidates,
                    num_survivors=survivors_round,
                    originals_remaining=int((~delivered).sum()),
                    flit_steps=round_cost,
                    num_colors=delta,
                    max_copies_per_input=max_in,
                    max_copies_per_output=max_out,
                )
            )
            if delivered.all():
                break
        return result
