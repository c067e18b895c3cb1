"""Conflict-free permutation routing on Benes networks (Waksman [48]).

Section 1.3.3: Waksman's algorithm sets the switches of a Benes network
to realize any permutation with edge-disjoint paths, so wormhole routing
finishes in exactly ``L + D - 1`` flit steps with no blocking — but it
needs *global* knowledge of the permutation (it was used on the IBM
GF-11).  This facade ties :func:`repro.network.benes.waksman_paths` to
the flit-level simulator and asserts the guarantee.

q-relations route as ``q`` successive permutation batches (decompose the
relation into permutations by Hall's theorem; here the caller supplies
the batches or uses :func:`route_q_relation_benes` with per-round
permutations), giving ``O(q L + log n)`` flit steps as the paper notes.
"""

from __future__ import annotations

import numpy as np

from ..network.benes import Benes, waksman_paths
from ..network.graph import NetworkError
from ..sim.stats import SimulationResult
from ..sim.batch import run_wormhole_batch
from ..sim.kernels import exact_count

__all__ = ["route_permutation_benes", "route_q_relation_benes"]


def route_permutation_benes(
    perm: np.ndarray,
    message_length: int,
    B: int = 1,
    seed: int | None = 0,
) -> SimulationResult:
    """Route permutation ``perm`` on a Benes network in ``L + D - 1`` steps.

    Raises :class:`NetworkError` if the run blocks or overruns — which
    the Waksman construction guarantees cannot happen.
    """
    perm = np.asarray(perm, dtype=np.int64)
    L = exact_count(message_length, "message_length", 1)
    benes = Benes(perm.size)
    cols = waksman_paths(perm)
    edges = benes.columns_to_edges(cols)
    result = run_wormhole_batch(
        benes.to_network(), [list(r) for r in edges], L,
        seeds=[seed], num_virtual_channels=B,
    )[0]
    expected = L + benes.depth - 1
    if not result.all_delivered or result.total_blocked_steps != 0:
        raise NetworkError("Waksman routing blocked; construction broken")
    if result.makespan != expected:
        raise NetworkError(
            f"Waksman routing took {result.makespan} != {expected} steps"
        )
    return result


def route_q_relation_benes(
    perms: list[np.ndarray],
    message_length: int,
    B: int = 1,
    seed: int | None = 0,
) -> SimulationResult:
    """Route a q-relation given as ``q`` permutation batches.

    Batches are pipelined ``L + 1`` flit steps apart (a batch's worms
    hold each first-level buffer for ``L + 1`` steps), achieving the
    ``O(q L + log n)`` total the paper quotes for Waksman-style routing.
    All batches run in one simulation; the result covers all ``q * n``
    messages.
    """
    if not perms:
        raise NetworkError("need at least one permutation batch")
    L = exact_count(message_length, "message_length", 1)
    n = int(np.asarray(perms[0]).size)
    benes = Benes(n)
    net = benes.to_network()
    all_paths: list[list[int]] = []
    releases: list[int] = []
    for i, perm in enumerate(perms):
        perm = np.asarray(perm, dtype=np.int64)
        if perm.size != n:
            raise NetworkError("all batches must be over the same n")
        edges = benes.columns_to_edges(waksman_paths(perm))
        all_paths.extend([list(r) for r in edges])
        releases.extend([i * (L + 1)] * n)
    result = run_wormhole_batch(
        net, all_paths, L, seeds=[seed], num_virtual_channels=B,
        release_times=np.asarray(releases, dtype=np.int64),
    )[0]
    if not result.all_delivered:
        raise NetworkError("Benes q-relation routing failed to deliver")
    return result
