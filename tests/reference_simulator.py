"""Deliberately naive reference simulators: per-flit wormhole, a
per-head adaptive mesh router (:func:`reference_adaptive_run`, below),
a per-message open-loop wormhole loop (:func:`reference_open_loop`) and
a per-message wormhole loop with random or rank priorities, classed
channels and any ``B`` (:func:`reference_message_run`).  None of them
imports ``repro.sim``.

The wormhole reference implements the Section 1.1 model with *explicit
flit state* — one position per flit, edge occupancy computed by
inspecting where flits actually are — and none of the optimized
simulator's derived arithmetic (move counters, release windows).  It is
slow and first-principles; the test suite checks the optimized
:class:`repro.sim.wormhole.WormholeSimulator` produces *identical*
completion times under the same deterministic arbitration, pinning the
lock-step reduction and the buffer-holding windows documented in
MODEL.md.

Per-flit state: ``-1`` waiting at the source; ``i`` in ``[0, D-1)`` = in
the buffer at the head of path edge ``i``; ``DONE`` delivered.  Crossing
the final edge delivers immediately (the buffer at its head is the
destination's delivery buffer).

Rules applied each step — worm lock-step *emerges*, it is not assumed:

* a message occupies edge ``e_i`` iff some flit has crossed ``e_i`` and
  some flit has not yet crossed ``e_{i+1}`` (crossing ``e_D`` meaning
  delivered) — its virtual channel/buffer on ``e_i`` is still in use;
* the header (leading undelivered flit) may cross its next edge iff
  fewer than ``B`` messages occupy that edge at the start of the step
  (same-step grants count; lowest message index wins — matching the
  optimized simulator's ``priority="index"``);
* a trailing flit may advance into exactly the buffer slot its
  predecessor vacates in the same step (intra-message same-step
  handover; cross-message handover needs a fresh grant next step);
* only the header may cross the final edge (one flit per virtual
  channel per step; trailing flits become the header as their
  predecessors deliver);
* with injection queues (``sources``), a header may leave its injection
  buffer only once its queue predecessor's header is in the network
  (MODEL.md section 1).

:func:`reference_message_run` does *not* track each flit: it counts
moves per message (``k``), and a message holds its edge ``i`` from its
move ``i + 1`` until move ``i + L + 1`` (the last edge until
completion at move ``L + D - 1``) — the holding window MODEL.md states.
It is the suite's only witness for random and rank priorities, for
``(edge, class)`` slots and for a batch of mixed ``B``
(``tests/sim/test_grant_classes.py``).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

__all__ = [
    "reference_run",
    "reference_adaptive_run",
    "reference_open_loop",
    "reference_message_run",
    "DONE",
    "REFUSED",
    "UNCONTESTED",
    "CONTESTED",
]

DONE = 1 << 30

#: The classes of a :func:`reference_message_run` step: no contending
#: header could be granted, every viable one was, or some slot had more
#: viable contenders than free seats.
REFUSED, UNCONTESTED, CONTESTED = "refused", "uncontested", "contested"


def _advance(p: int, d: int) -> int:
    """Next position of a flit at ``p`` on a ``d``-edge path."""
    nxt = p + 1
    return nxt if nxt <= d - 2 else DONE


def reference_run(
    paths, L, B, release_times=None, max_steps=100_000, sources=None
):
    """Simulate; returns per-message completion times (-1 undelivered).

    ``paths``: per-message edge-id lists.  Arbitration: lowest message
    index first (the optimized simulator's ``priority="index"``).
    ``sources``: per-message injection-queue ids (FIFO in index order);
    ``None`` puts every message in its own queue.
    """
    M = len(paths)
    D = [len(p) for p in paths]
    release = (
        [0] * M if release_times is None else [int(r) for r in release_times]
    )
    # The message ahead in each queue; a zero-length message never
    # enters the network, so it is nobody's predecessor.
    ahead = [None] * M
    last_in_queue = {}
    for m in range(M):
        if sources is not None and D[m]:
            ahead[m] = last_in_queue.get(sources[m])
            last_in_queue[sources[m]] = m
    pos = [[-1] * L for _ in range(M)]
    completion = [-1] * M
    for m in range(M):
        if D[m] == 0:
            completion[m] = release[m]
            pos[m] = [DONE] * L

    def crossed(p: int, i: int) -> bool:
        return p == DONE or p >= i

    def occupies(snapshot, m: int, e: int) -> bool:
        for i, edge in enumerate(paths[m]):
            if edge != e:
                continue
            some_crossed = any(crossed(p, i) for p in snapshot[m])
            if i + 1 >= D[m]:
                some_not_past = any(p != DONE for p in snapshot[m])
            else:
                some_not_past = any(not crossed(p, i + 1) for p in snapshot[m])
            return some_crossed and some_not_past
        return False

    all_edges = sorted({e for p in paths for e in p})

    for t in range(1, max_steps + 1):
        if all(c >= 0 for c in completion):
            break
        snapshot = [row[:] for row in pos]
        occupants = {
            e: {m for m in range(M) if occupies(snapshot, m, e)}
            for e in all_edges
        }
        granted = []
        for m in range(M):
            if completion[m] >= 0 or release[m] >= t:
                continue
            if ahead[m] is not None and snapshot[ahead[m]][0] == -1:
                continue  # still behind its predecessor's header
            h = next(j for j in range(L) if snapshot[m][j] != DONE)
            crossing_edge = paths[m][snapshot[m][h] + 1]
            # A message already holding a virtual channel on the edge
            # (its earlier flits crossed it — the final-edge case) needs
            # no new grant; otherwise it contends for a free slot.
            if m in occupants[crossing_edge] or len(occupants[crossing_edge]) < B:
                occupants[crossing_edge].add(m)
                granted.append(m)

        for m in granted:
            h = next(j for j in range(L) if snapshot[m][j] != DONE)
            prev_vacated = snapshot[m][h]
            pos[m][h] = _advance(snapshot[m][h], D[m])
            for j in range(h + 1, L):
                target = _advance(snapshot[m][j], D[m])
                if target == DONE:  # only the header crosses the final edge
                    break
                if prev_vacated != target:  # not chained to a vacated slot
                    break
                prev_vacated = snapshot[m][j]
                pos[m][j] = target
            if all(p == DONE for p in pos[m]):
                completion[m] = t
    return np.asarray(completion, dtype=np.int64)


def reference_adaptive_run(
    k, demands, L, B, policy, rng, release_times=None, max_steps=100_000
):
    """A naive per-head adaptive mesh router (MODEL.md section 7).

    ``demands`` are ``(source, destination)`` node ids of a ``k x k``
    mesh, node ``(x, y)`` having id ``x * k + y``; ``policy`` is
    ``"dimension"``, ``"west-first"`` or ``"fully-adaptive"`` and ``rng``
    the trial's :class:`numpy.random.Generator`.  Each step the active
    messages are served one at a time in shuffled order against *live*
    link occupancy (a dict keyed by the directed link ``(u, v)``); a
    head lists its x-move before its y-move and draws
    ``integers(len(free))`` only when two channels are free.

    Returns ``(completion, blocked, walks, deadlocked)``: per-message
    completion times (``-1`` undelivered), blocked-step counts, the node
    walk each head took (source first), and whether the run ended with
    no message able to move.
    """
    M = len(demands)
    release = (
        [0] * M if release_times is None else [int(r) for r in release_times]
    )
    xy = [divmod(int(v), k) for v in range(k * k)]
    dist = [
        abs(xy[s][0] - xy[d][0]) + abs(xy[s][1] - xy[d][1]) for s, d in demands
    ]
    walks = [[int(s)] for s, _ in demands]
    moves = [0] * M
    blocked = [0] * M
    completion = [release[m] if dist[m] == 0 else -1 for m in range(M)]
    occupancy: dict[tuple[int, int], int] = {}

    def options(node: int, dst: int) -> list[int]:
        """Neighbours the policy allows, x-move first."""
        (x, y), (tx, ty) = xy[node], xy[dst]
        east_west = [] if tx == x else [(x + (1 if tx > x else -1)) * k + y]
        north_south = [] if ty == y else [x * k + y + (1 if ty > y else -1)]
        if policy == "dimension":
            return east_west or north_south
        if policy == "west-first" and tx < x:
            return east_west
        return east_west + north_south

    t = 0
    while any(c < 0 for c in completion) and t < max_steps:
        t += 1
        pending = [m for m in range(M) if completion[m] < 0]
        active = [m for m in pending if release[m] < t]
        if not active:
            t = min(release[m] for m in pending)
            continue
        draws = rng.random(len(active)).tolist()
        order = [m for _, m in sorted(zip(draws, active))]
        movers = []
        for m in order:
            if moves[m] < dist[m]:  # head still extending its route
                here = walks[m][-1]
                free = [
                    (here, nxt)
                    for nxt in options(here, demands[m][1])
                    if occupancy.get((here, nxt), 0) < B
                ]
                if not free:
                    blocked[m] += 1
                    continue
                link = free[int(rng.integers(2)) if len(free) == 2 else 0]
                occupancy[link] = occupancy.get(link, 0) + 1
                walks[m].append(link[1])
            movers.append(m)
        for m in movers:
            moves[m] += 1
            vacated = moves[m] - L - 1  # the link the tail flit just left
            if 0 <= vacated < dist[m] - 1:
                occupancy[(walks[m][vacated], walks[m][vacated + 1])] -= 1
            if moves[m] == L + dist[m] - 1:
                occupancy[(walks[m][-2], walks[m][-1])] -= 1
                completion[m] = t
        if not movers and len(active) == len(pending):
            return completion, blocked, walks, True
    return completion, blocked, walks, False


def reference_open_loop(
    num_edges, num_sources, B, rate, L, path_of, horizon, seed,
    sample_every=50,
):
    """A per-message open-loop wormhole loop over Bernoulli arrivals.

    Each step: the contenders — worms in the network whose header has
    edges left, and each source queue's head — draw one uniform
    priority each in ascending message index from the arbitration
    stream, and every edge admits the ``B - occupancy`` best of its
    requesters; movers advance one move, a tail frees the edge it left
    (move ``k - L - 1``), and the final edge frees at completion (move
    ``L + D - 1``).  A queue's head is popped at its first move, so
    the next message contends from the following step.  Then each
    source draws its arrival on the arrival stream (one
    ``random(num_sources)`` per step); a new message's route comes
    from ``path_of(source, route stream)``, and it first contends the
    step after it arrives (zero-length routes are delivered on
    arrival).

    The three streams are children of ``default_rng(seed)``, split as
    ``ContinuousWormholeSimulator.run`` splits them.  Returns
    per-message ``arrival`` / ``completion`` (``-1`` undelivered) in
    creation order, plus the report's counts, mean latency and backlog
    series.
    """
    entropy = np.random.default_rng(seed).integers(1 << 32, size=4)
    arrivals, routes, arbitration = (
        np.random.default_rng(child)
        for child in np.random.SeedSequence(entropy).spawn(3)
    )
    rates = np.broadcast_to(np.asarray(rate, dtype=np.float64), (horizon,))
    occupancy = [0] * num_edges
    paths, k, arrival, completion = [], [], [], []
    queues = [[] for _ in range(num_sources)]
    active = []  # in the network, undelivered
    samples = []
    for t in range(1, horizon + 1):
        heads = [q[0] for q in queues if q]
        contenders = sorted(
            [m for m in active if k[m] < len(paths[m])] + heads
        )
        movers = [m for m in active if k[m] >= len(paths[m])]  # draining
        if contenders:
            prio = arbitration.random(len(contenders))
            for i in sorted(range(len(contenders)), key=lambda i: prio[i]):
                m = contenders[i]
                edge = paths[m][k[m]]
                if occupancy[edge] < B:
                    occupancy[edge] += 1
                    movers.append(m)
        for m in movers:
            if k[m] == 0:  # first move: leaves the head of its queue
                for q in queues:
                    if q and q[0] == m:
                        q.pop(0)
                active.append(m)
            k[m] += 1
            d = len(paths[m])
            if 0 <= k[m] - L - 1 < d - 1:
                occupancy[paths[m][k[m] - L - 1]] -= 1
            if k[m] == L + d - 1:
                occupancy[paths[m][d - 1]] -= 1
                completion[m] = t
                active.remove(m)
        for s in np.flatnonzero(arrivals.random(num_sources) < rates[t - 1]):
            m = len(paths)
            paths.append([int(e) for e in path_of(int(s), routes)])
            k.append(0)
            arrival.append(t)
            completion.append(t if not paths[m] else -1)
            if paths[m]:
                queues[s].append(m)
        if t % sample_every == 0:
            samples.append(sum(len(q) for q in queues) + len(active))
    delivered = [m for m, c in enumerate(completion) if c >= 0]
    latency = sum(completion[m] - arrival[m] for m in delivered)
    return SimpleNamespace(
        arrival=np.asarray(arrival, dtype=np.int64),
        completion=np.asarray(completion, dtype=np.int64),
        generated=len(paths),
        delivered=len(delivered),
        mean_latency=latency / len(delivered) if delivered else 0.0,
        final_backlog=sum(len(q) for q in queues) + len(active),
        backlog_series=np.asarray(samples, dtype=np.int64),
    )


def reference_message_run(
    paths, L, B, release, rng, priority, vc_ids=None, max_steps=500
):
    """Per-message wormhole run: ``(completion, blocked, class per step)``.

    ``priority`` is ``"random"`` (one ``rng.random`` per contending
    header per round, hopeless ones included) or ``"rank"`` (one
    ``rng.permutation(M)`` up front); the class of a step is
    :data:`REFUSED`, :data:`UNCONTESTED` or :data:`CONTESTED`.

    Each step the released, undelivered headers with path left contend
    (ascending message = draw order); in priority order a header is
    granted while its slot holds fewer than its capacity, counting this
    step's earlier grants.  A slot is an edge with ``B`` seats, or an
    ``(edge, class)`` pair with one.
    """
    M = len(paths)
    D = [len(p) for p in paths]
    rank = rng.permutation(M) if priority == "rank" else None
    cap = B if vc_ids is None else 1
    slot = (lambda m, i: paths[m][i]) if vc_ids is None else (
        lambda m, i: (paths[m][i], vc_ids[m][i])
    )
    k = [0] * M
    held: dict = {}
    completion = [int(release[m]) if D[m] == 0 else -1 for m in range(M)]
    blocked = [0] * M
    classes = {}
    for t in range(1, max_steps + 1):
        pending = [m for m in range(M) if completion[m] < 0]
        if not pending:
            break
        active = [m for m in pending if release[m] < t]
        heads = [m for m in active if k[m] < D[m]]
        movers = [m for m in active if k[m] >= D[m]]
        if heads:
            prio = (
                rng.random(len(heads)) if priority == "random"
                else [rank[m] for m in heads]
            )
            want = [slot(m, k[m]) for m in heads]
            free = {s: cap - held.get(s, 0) for s in want}
            viable = [s for s in want if free[s] > 0]
            if not viable:
                classes[t] = REFUSED
            elif any(viable.count(s) > free[s] for s in viable):
                classes[t] = CONTESTED
            else:
                classes[t] = UNCONTESTED
            for j in sorted(range(len(heads)), key=lambda j: prio[j]):
                if free[want[j]] > 0:
                    free[want[j]] -= 1
                    held[want[j]] = held.get(want[j], 0) + 1
                    movers.append(heads[j])
                else:
                    blocked[heads[j]] += 1
        for m in movers:
            k[m] += 1
            if k[m] > L[m]:  # the tail left path edge k - L - 1
                held[slot(m, k[m] - L[m] - 1)] -= 1
            if k[m] == L[m] + D[m] - 1:
                held[slot(m, D[m] - 1)] -= 1
                completion[m] = t
    return completion, blocked, classes
