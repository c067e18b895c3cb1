"""Butterfly lower-bound machinery (Section 3.2).

Theorem 3.2.1: any *one-pass* routing algorithm needs
``Omega(L q l^(1/B) / (w2(n,q) B))`` flit steps on a random routing
problem with ``q`` messages per input, ``l = min(L, log n)``.  The proof
has two halves, both implemented here:

* **Theorem 3.2.5** — every set of ``s`` messages *collides* (some
  ``B + 1`` of them share an edge of the truncated butterfly,
  Definition 3.2.2) with high probability, for
  ``s = 3 B n log^(2/B)(q log n) / l^(1/(B+1))``.  We expose the exact
  collision predicate and Monte-Carlo subset probing.
* **Theorem 3.2.6** — a routing that finishes in ``T`` steps yields
  ``T / L`` *phases* whose members' headers arrive together, so some
  ``n q L / T`` messages arrive in one phase and must be collision-free;
  hence ``T >= n q L / s``.

:func:`one_pass_workload` is an actual greedy one-pass wormhole
algorithm (the class the bound covers) as a workload, so experiment E4
can run it through :func:`repro.simulate` and compare measured times
against the bound.
"""

from __future__ import annotations

import math

import numpy as np

from ..network.butterfly import Butterfly
from ..network.graph import NetworkError
from ..routing.problems import RoutingInstance
from ..sim.kernels import exact_count

__all__ = [
    "truncated_paths",
    "collides",
    "subset_collision_rate",
    "phase_partition",
    "one_pass_workload",
    "strip_decomposition",
    "strip_collision_counts",
]


def truncated_paths(
    n: int, instance: RoutingInstance, L: int
) -> tuple[Butterfly, np.ndarray]:
    """Greedy paths in the truncated butterfly of depth ``l = min(L, log n)``.

    Section 3.2 analyzes only the first ``l`` levels: any routing
    algorithm on the full butterfly induces one on the truncation that is
    at least as fast.  Destinations are mapped to their column's node at
    level ``l``.
    """
    log_n = n.bit_length() - 1
    l = min(L, log_n)
    if l < 1:
        raise NetworkError("truncated butterfly needs depth >= 1")
    bf = Butterfly(n, depth=l)
    edges = bf.path_edges_batch(instance.sources, instance.dests)
    return bf, edges


def collides(edge_matrix: np.ndarray, B: int) -> bool:
    """Definition 3.2.2: do ``B + 1`` of these messages share an edge?

    ``edge_matrix`` holds one message per row; multiple uses of an edge
    *within* one row (impossible for butterfly paths, but possible for
    caller-supplied sets) are counted once.
    """
    if edge_matrix.size == 0:
        return False
    counts: dict[int, int] = {}
    for row in edge_matrix:
        for e in np.unique(row):
            c = counts.get(int(e), 0) + 1
            if c > B:
                return True
            counts[int(e)] = c
    return False


def subset_collision_rate(
    edge_matrix: np.ndarray,
    s: int,
    B: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of ``Pr[random s-subset collides]``.

    Theorem 3.2.5 asserts this tends to 1 (indeed, *every* subset
    collides w.h.p.) once ``s`` reaches
    :func:`~repro.core.bounds.butterfly_subset_size`.
    """
    M = edge_matrix.shape[0]
    if s > M:
        raise NetworkError(f"cannot sample {s}-subsets of {M} messages")
    hits = 0
    for _ in range(trials):
        pick = rng.choice(M, size=s, replace=False)
        if collides(edge_matrix[pick], B):
            hits += 1
    return hits / trials


def phase_partition(arrival_times: np.ndarray, l: int, L: int) -> np.ndarray:
    """Phase index of each message (Theorem 3.2.6).

    The proof shows every header arrives at the truncation's last level
    at a time of the form ``l + i L``; empirically we bucket arrivals by
    ``floor((t - l) / L)`` (arrivals before ``l`` go to phase 0).
    Returns the per-message phase indices for delivered messages and
    ``-1`` elsewhere.
    """
    t = np.asarray(arrival_times, dtype=np.int64)
    phases = np.full(t.shape, -1, dtype=np.int64)
    ok = t >= 0
    phases[ok] = np.maximum((t[ok] - l) // max(L, 1), 0)
    return phases


def strip_decomposition(bf: Butterfly) -> list[tuple[int, int]]:
    """Lemma 3.2.4's strips: ``(start_level, end_level)`` pairs.

    The truncated butterfly of depth ``l`` is cut into ``l / log m``
    strips of ``log m`` edge-levels each, ``m = log n`` (the last strip
    may be shorter).  Within a strip, the network splits into disjoint
    ``m``-input subbutterflies, which is what makes the per-strip
    collision events independent in the proof.
    """
    m = max(int(math.floor(math.log2(max(bf.n.bit_length() - 1, 2)))), 1)
    strips = []
    start = 0
    while start < bf.depth:
        strips.append((start, min(start + m, bf.depth)))
        start += m
    return strips


def strip_collision_counts(
    bf: Butterfly,
    edges: np.ndarray,
    B: int,
) -> list[int]:
    """Messages involved in a collision, per strip (Lemma 3.2.4 probe).

    For each strip, counts how many of the ``edges``-matrix messages
    share a strip edge with more than ``B - 1`` others.  The lemma lower
    bounds the probability that *some* strip collides; empirically the
    counts grow with load and the no-collision event dies off strip by
    strip.
    """
    out = []
    for start, end in strip_decomposition(bf):
        sub = edges[:, start:end]
        flat = sub.ravel()
        counts = np.bincount(flat, minlength=bf.num_edges)
        hot = counts > B
        involved = hot[sub].any(axis=1)
        out.append(int(involved.sum()))
    return out


def one_pass_workload(n: int, instance: RoutingInstance, L: int):
    """A greedy one-pass wormhole algorithm on the truncated butterfly,
    as a workload at ``L`` flits.

    All messages are injected at time 0 and contend for virtual channels
    under random arbitration — a representative member of the one-pass
    class Theorem 3.2.1 lower-bounds, whose phase floor ``n q L / s``
    (:func:`~repro.core.bounds.butterfly_subset_size`) a run is set
    against.  Header arrival at the last level is
    ``completion - (L - 1)``.
    """
    from ..sim.spec import Workload

    L = exact_count(L, "L", 1)
    bf, edges = truncated_paths(n, instance, L)
    return Workload(
        bf,
        [list(row) for row in edges],
        default_length=L,
        info={"n": n, "l": bf.depth, "messages": instance.num_messages},
    )
