"""Color refinement (Lemma 2.1.5) made constructive.

The Theorem 2.1.6 schedule colors the messages so that at most ``B``
messages of any color cross any edge (*multiplex size* ``B``, Definition
2.1.4), then releases one color class every ``L + D - 1`` flit steps.
The coloring is built by repeated refinement: each stage splits every
color class into ``r`` new classes uniformly at random, and the Lovász
local lemma shows a split exists in which no (color, edge) pair exceeds
the stage's target multiplex size ``mf``:

* **Case 1** (``log D >= ms > B``): ``mf = B``,
  ``r = 3e (D ms)^(1/B) ms / B``;
* **Case 2** (``D >= ms > log D``): ``mf = log D``,
  ``r = 32 e ms / log D``;
* **Case 3** (``ms > D``): ``mf = max(D, 15 ln^3 ms)``,
  ``r = ms / ((1 - 1/ln ms) mf)``.

The paper's proof is nonconstructive (it cites [29, 30] for a
constructive variant).  We realize each stage with **Moser-Tardos
resampling**, the modern constructive LLL over exactly the same
probability space: draw the split, and while some bad event (a
(color, edge) pair with more than ``mf`` messages) holds, redraw the
colors of the messages in a violated event.  Every returned coloring is
*verified* — :func:`multiplex_size` is recomputed from scratch — so
correctness never depends on the resampler's convergence argument.

Because the paper's stage parameters carry large constants (3e, 32e,
``15 ln^3 ms``) that swamp simulator-scale instances, each refinement
stage also supports an ``adaptive`` mode: start from the
information-theoretic minimum ``r = ceil(ms / mf)`` and double it until
resampling converges within a budget.  Theory mode reproduces the paper's
construction; adaptive mode gives the small schedules the experiments
plot.  Both modes satisfy the invariant the theorem needs — multiplex
size at most ``mf`` after the stage.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..network.graph import NetworkError
from ..routing.paths import Path

__all__ = [
    "MessageEdgeIncidence",
    "multiplex_size",
    "lemma_2_1_5_parameters",
    "refine_colors",
    "reduce_multiplex_size",
    "merge_color_classes",
    "RefinementStage",
    "RefinementTrace",
]

_E = math.e


@dataclass(frozen=True)
class MessageEdgeIncidence:
    """Flattened (message, edge) incidence of a path set.

    ``message_ids[i]`` uses ``edge_ids[i]``; built once and reused by
    every refinement stage and verification pass.
    """

    message_ids: np.ndarray
    edge_ids: np.ndarray
    num_messages: int
    num_edges: int

    @classmethod
    def from_paths(
        cls, paths: Sequence[Path] | Sequence[Sequence[int]]
    ) -> "MessageEdgeIncidence":
        msg_ids: list[np.ndarray] = []
        edge_ids: list[np.ndarray] = []
        max_edge = -1
        for m, p in enumerate(paths):
            edges = np.asarray(
                p.edges if isinstance(p, Path) else list(p), dtype=np.int64
            )
            if edges.size == 0:
                continue
            if np.unique(edges).size != edges.size:
                raise NetworkError(f"path {m} is not edge-simple")
            msg_ids.append(np.full(edges.size, m, dtype=np.int64))
            edge_ids.append(edges)
            max_edge = max(max_edge, int(edges.max()))
        if msg_ids:
            mi = np.concatenate(msg_ids)
            ei = np.concatenate(edge_ids)
        else:
            mi = np.empty(0, dtype=np.int64)
            ei = np.empty(0, dtype=np.int64)
        return cls(
            message_ids=mi,
            edge_ids=ei,
            num_messages=len(paths),
            num_edges=max_edge + 1,
        )

    def congestion_dilation(self) -> tuple[int, int]:
        """``(C, D)``: the most messages crossing one edge, and the most
        edges one message crosses (``0`` each for no edges)."""
        C = multiplex_size(self, np.zeros(self.num_messages, dtype=np.int64))
        lengths = np.bincount(self.message_ids, minlength=self.num_messages)
        return C, int(lengths.max()) if lengths.size else 0


def multiplex_size(inc: MessageEdgeIncidence, colors: np.ndarray) -> int:
    """Definition 2.1.4: max over (edge, color) of messages crossing.

    With all messages one color this is the congestion ``C``.
    """
    if inc.message_ids.size == 0:
        return 0
    colors = np.asarray(colors, dtype=np.int64)
    num_colors = int(colors.max()) + 1 if colors.size else 1
    keys = inc.edge_ids * num_colors + colors[inc.message_ids]
    _, counts = np.unique(keys, return_counts=True)
    return int(counts.max())


def lemma_2_1_5_parameters(ms: int, D: int, B: int) -> tuple[int, int, int]:
    """The applicable case of Lemma 2.1.5 for multiplex size ``ms``.

    Returns ``(case, mf, r)`` with the paper's exact formulas (``r``
    rounded up).  Requires ``ms > B``.
    """
    if ms <= B:
        raise ValueError(f"multiplex size {ms} already <= B = {B}; nothing to refine")
    log_d = math.log2(max(D, 2))
    if ms <= log_d:
        mf = B
        r = 3 * _E * ((D * ms) ** (1.0 / B)) * ms / B
        case = 1
    elif ms <= D:
        mf = max(int(math.floor(log_d)), B)
        r = 32 * _E * ms / log_d
        case = 2
    else:
        ln_ms = math.log(ms)
        mf = max(D, int(math.ceil(15 * ln_ms**3)))
        mf = min(mf, ms - 1)  # keep the stage a strict refinement
        r = ms / ((1.0 - 1.0 / ln_ms) * mf)
        case = 3
    return case, int(mf), max(2, int(math.ceil(r)))


def refine_colors(
    inc: MessageEdgeIncidence,
    colors: np.ndarray,
    r: int,
    mf: int,
    rng: np.random.Generator,
    max_rounds: int = 10_000,
) -> np.ndarray | None:
    """One refinement stage: split each class into ``r``; resample to ``mf``.

    Moser-Tardos over the product space of per-message subcolor choices:
    messages start with uniform subcolors in ``[0, r)``; while some
    (new color, edge) pair carries more than ``mf`` messages, every
    message of a violated pair redraws its subcolor.  Returns the new
    color array (``new = old * r + sub``) or ``None`` if the budget of
    ``max_rounds`` resampling rounds is exhausted (callers then retry
    with a larger ``r``).
    """
    if r < 1 or mf < 1:
        raise ValueError("need r >= 1 and mf >= 1")
    colors = np.asarray(colors, dtype=np.int64)
    M = inc.num_messages
    sub = rng.integers(0, r, size=M)
    if inc.message_ids.size == 0:
        return colors * r + sub
    parent = colors[inc.message_ids]
    edge = inc.edge_ids
    for _ in range(max_rounds):
        new_color = parent * r + sub[inc.message_ids]
        # Key each incidence by (edge, new color); count occupancy.
        keys = edge * np.int64(r) * np.int64(colors.max() + 1) + new_color
        uniq, inverse, counts = np.unique(
            keys, return_inverse=True, return_counts=True
        )
        violated = counts[inverse] > mf
        if not violated.any():
            return colors * r + sub
        bad_messages = np.unique(inc.message_ids[violated])
        sub[bad_messages] = rng.integers(0, r, size=bad_messages.size)
    return None


@dataclass(frozen=True)
class RefinementStage:
    """Record of one executed refinement stage."""

    case: int
    ms_before: int
    mf_target: int
    r: int
    ms_after: int
    resample_doublings: int


@dataclass(frozen=True)
class RefinementTrace:
    """Full history of a :func:`reduce_multiplex_size` run."""

    stages: tuple[RefinementStage, ...]
    colors: np.ndarray
    num_color_classes: int

    @property
    def final_multiplex(self) -> int:
        return self.stages[-1].ms_after if self.stages else -1


def reduce_multiplex_size(
    paths: Sequence[Path] | Sequence[Sequence[int]],
    B: int,
    D: int | None = None,
    rng: np.random.Generator | None = None,
    mode: str = "adaptive",
    max_rounds_per_stage: int = 800,
    merge: bool = True,
) -> RefinementTrace:
    """Reduce multiplex size from ``C`` to ``<= B`` (Theorem 2.1.6's engine).

    Applies the Lemma 2.1.5 case cascade: case 3 while ``ms > D``, case 2
    while ``ms > log D``, case 1 down to ``B``.

    Parameters
    ----------
    paths:
        The message routes (edge-simple).
    B:
        Virtual channels per edge — the final multiplex target.
    D:
        Dilation; computed from ``paths`` when omitted.
    mode:
        ``"theory"`` uses the paper's ``r`` at every stage (verbatim
        construction, large color counts); ``"adaptive"`` starts each
        stage at ``r = ceil(ms / mf)`` and doubles until the resampler
        converges (small color counts, same invariant); ``"direct"``
        skips the cascade entirely and refines from ``C`` straight to
        ``B`` in one adaptive stage — the tightest schedules in practice,
        used for the measured curves in the experiments.
    merge:
        Apply :func:`merge_color_classes` to the final coloring (packs
        underfilled classes; never increases the class count or the
        multiplex size).
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if mode not in ("theory", "adaptive", "direct"):
        raise ValueError("mode must be 'theory', 'adaptive' or 'direct'")
    if rng is None:
        rng = np.random.default_rng(0)
    inc = MessageEdgeIncidence.from_paths(paths)
    if D is None:
        lengths = np.bincount(inc.message_ids, minlength=inc.num_messages)
        D = int(lengths.max()) if lengths.size else 0
    colors = np.zeros(inc.num_messages, dtype=np.int64)
    stages: list[RefinementStage] = []
    ms = multiplex_size(inc, colors)
    max_stages = ms + 8  # every stage strictly reduces the multiplex size
    guard = 0
    while ms > B:
        guard += 1
        if guard > max_stages:
            raise RuntimeError(f"refinement failed to converge in {max_stages} stages")
        if mode == "direct":
            case, mf, r_theory = 1, B, 0
        else:
            case, mf, r_theory = lemma_2_1_5_parameters(ms, max(D, 1), B)
        if mode == "adaptive" and case == 3 and mf >= ms:
            # The paper's 15 ln^3(ms) floor exceeds ms itself at simulator
            # scales; halving preserves the cascade's geometric progress.
            mf = max(B, ms // 2)
        mf = min(mf, ms - 1)
        mf = max(mf, B)
        r = r_theory if mode == "theory" else max(2, math.ceil(1.5 * ms / mf))
        doublings = 0
        while True:
            new = refine_colors(inc, colors, r, mf, rng, max_rounds_per_stage)
            if new is not None:
                break
            r = max(r + 1, math.ceil(r * 1.5))
            doublings += 1
            if doublings > 48:
                raise RuntimeError(
                    f"stage (case {case}) failed to converge even at r={r}"
                )
        ms_before = ms
        colors = _compact(new)
        ms = multiplex_size(inc, colors)
        stages.append(
            RefinementStage(
                case=case,
                ms_before=ms_before,
                mf_target=mf,
                r=r,
                ms_after=ms,
                resample_doublings=doublings,
            )
        )
    if merge:
        colors = merge_color_classes(inc, colors, B)
    return RefinementTrace(
        stages=tuple(stages),
        colors=colors,
        num_color_classes=int(colors.max()) + 1 if colors.size else 0,
    )


def _compact(colors: np.ndarray) -> np.ndarray:
    """Renumber colors to a dense ``0..K-1`` range."""
    _, compacted = np.unique(colors, return_inverse=True)
    return compacted.astype(np.int64)


def merge_color_classes(
    inc: MessageEdgeIncidence, colors: np.ndarray, B: int
) -> np.ndarray:
    """Greedily merge color classes while multiplex size stays ``<= B``.

    The refinement stages guarantee multiplex size ``<= B`` but their
    randomized splits leave classes far from full, especially at
    simulator scales where the stage ``r`` overshoots.  First-fit
    merging packs them: class ``c`` joins the first merged bucket whose
    per-edge loads, added to ``c``'s, never exceed ``B``.  The result
    still has multiplex size ``<= B`` (checked by construction), so the
    Theorem 2.1.6 release schedule built from it remains valid, only
    shorter.
    """
    colors = _compact(np.asarray(colors, dtype=np.int64))
    K = int(colors.max()) + 1 if colors.size else 0
    if K <= 1 or inc.message_ids.size == 0:
        return colors
    E = inc.num_edges
    # Per-class edge-load vectors.
    class_loads = np.zeros((K, E), dtype=np.int64)
    np.add.at(class_loads, (colors[inc.message_ids], inc.edge_ids), 1)
    bucket_loads: list[np.ndarray] = []
    assignment = np.empty(K, dtype=np.int64)
    # Pack the heaviest classes first (fewer, better-filled buckets).
    order = np.argsort(-class_loads.max(axis=1), kind="stable")
    for c in order:
        placed = False
        for b, loads in enumerate(bucket_loads):
            if int((loads + class_loads[c]).max()) <= B:
                loads += class_loads[c]
                assignment[c] = b
                placed = True
                break
        if not placed:
            assignment[c] = len(bucket_loads)
            bucket_loads.append(class_loads[c].copy())
    return _compact(assignment[colors])
