"""ASCII rendering of networks and worm dynamics.

Visualization helpers for debugging and for the Figure reproductions:

* :func:`render_butterfly` — a textual Fig. 1: levels, columns, and the
  straight/cross wiring rule per level;
* :func:`render_route` — a hop table for one path through a butterfly
  (the Fig. 2 artifact);
* :func:`render_spacetime` — a worm spacetime diagram from a traced
  wormhole run (:func:`repro.simulate` with a
  :class:`~repro.telemetry.TraceSnapshotCollector`): one row per flit
  step, one column per message, showing each worm's head position along
  its path (``.`` = not yet injected, ``*`` = delivered).  Blocking shows
  up as vertically repeated digits.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..network.butterfly import Butterfly

__all__ = ["render_butterfly", "render_route", "render_spacetime"]


def render_butterfly(bf: Butterfly) -> str:
    """Textual reproduction of Fig. 1 for any butterfly / cascade."""
    lines = [
        f"{bf.n}-input butterfly, {bf.num_levels} levels "
        f"({bf.num_nodes} nodes, {bf.num_edges} edges)"
    ]
    for level in range(bf.num_levels):
        row = " ".join(f"({w},{level})" for w in range(bf.n))
        lines.append(row)
        if level < bf.depth:
            bit = 1 << bf.cross_bit(level)
            lines.append(f"   | straight: w -> w;  cross: w -> w ^ {bit}")
    return "\n".join(lines)


def render_route(bf: Butterfly, edges: Sequence[int]) -> str:
    """Hop-by-hop table of a butterfly route (the Fig. 2 artifact)."""
    lines = ["hop  level  column -> column  kind"]
    for hop, e in enumerate(edges):
        tail, head = bf.edge_endpoints(int(e))
        kind = "straight" if bf.column_of(tail) == bf.column_of(head) else "cross"
        lines.append(
            f"{hop:>3}  {bf.level_of(tail):>5}  "
            f"{bf.column_of(tail):>6} -> {bf.column_of(head):<6}  {kind}"
        )
    return "\n".join(lines)


def render_spacetime(
    trace: np.ndarray,
    path_lengths: Sequence[int],
    message_length: int,
    max_rows: int = 200,
) -> str:
    """Worm spacetime diagram from a recorded trace.

    Parameters
    ----------
    trace:
        ``(steps, M)`` array of completed-move counts (``-1`` before
        release), as produced by attaching a
        :class:`repro.telemetry.TraceSnapshotCollector` and reading its
        ``matrix``.
    path_lengths:
        Per-message ``D_m`` (to mark delivery).
    message_length:
        ``L``, to compute delivery at ``k == L + D - 1``.
    max_rows:
        Truncate very long runs (a marker line notes the cut).

    Returns
    -------
    One text row per flit step.  Cell characters: ``.`` not released,
    ``-`` released but still waiting in the injection buffer,
    ``0``-``9``/``a``-``z`` the head flit's edge index along the path
    (mod 36; a worm with ``k`` completed moves has its head at edge
    ``k - 1``), ``*`` delivered.
    """
    trace = np.asarray(trace)
    if trace.ndim != 2:
        raise ValueError("trace must be a (steps, M) array")
    steps, M = trace.shape
    D = np.asarray(path_lengths, dtype=np.int64)
    if D.shape != (M,):
        raise ValueError(f"path_lengths must have shape ({M},)")
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    lines = [f"t    {' '.join(f'm{m:<2}' for m in range(M))}"]
    shown = min(steps, max_rows)
    for t in range(shown):
        cells = []
        for m in range(M):
            kv = int(trace[t, m])
            if kv < 0:
                cells.append(".")
            elif kv >= message_length + D[m] - 1:
                cells.append("*")
            elif kv == 0:
                cells.append("-")
            else:
                head = min(kv - 1, int(D[m]) - 1)
                cells.append(digits[head % len(digits)])
        lines.append(f"{t + 1:<4} " + "   ".join(cells))
    if steps > shown:
        lines.append(f"... ({steps - shown} more steps)")
    return "\n".join(lines)
