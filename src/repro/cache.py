"""Shared content-hash result cache for trial metrics.

Simulation trials are pure functions of ``(workload, model, B, seed)``
— the same spec at the same root seed always yields bit-identical
metrics — which makes their results infinitely cacheable.  This module
is the one cache implementation every consumer fronts:

* :func:`repro.sim.sweep.run_sweep` serves repeated grid cells from it
  (``cache_dir=``), recomputing only the delta when a grid axis
  changes;
* the :mod:`repro.cluster` router consults it *before* forwarding a
  ``run`` request to a worker, so repeat traffic across the whole
  sharded tier is answered without spending any worker compute — a
  persistent **cross-worker** result tier.

Entries are one JSON file per trial under a cache directory, named by
:meth:`~repro.sim.sweep.TrialSpec.cache_key` — a SHA-256 of the trial's
canonical identity plus the root seed.  Every entry stores the full
identity alongside the metrics, and :meth:`ResultCache.load` verifies
the stored identity against the requested one: a hash collision (or a
stale format) is detected and treated as a miss, never served — the
same fallback the sweep cache has always had.  Writes are atomic
(temp file + :func:`os.replace`), so concurrent writers — parallel
sweeps, several router processes sharing one directory — can race
without ever exposing a torn entry.

Hit/miss/store counters ride on :class:`~repro.telemetry.metrics
.EventCounter` and surface through ``stats``/``health`` wherever the
cache is mounted.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from .telemetry.metrics import EventCounter

__all__ = [
    "CACHE_VERSION",
    "ResultCache",
    "entry_path",
    "load_entry",
    "store_entry",
]

#: On-disk entry format version.  Bumping it invalidates every existing
#: entry (they fail the version check and are recomputed), which is the
#: correct response to any change in metric semantics.
CACHE_VERSION = 1


def entry_path(root: Path, key: str) -> Path:
    """The file holding the entry for ``key`` under cache directory ``root``."""
    return root / f"{key}.json"


def load_entry(path: Path, identity: dict[str, Any]) -> dict[str, Any] | None:
    """Read one cache file; ``None`` unless it verifiably matches.

    ``identity`` is the trial's canonical identity dict (see
    :meth:`~repro.sim.sweep.TrialSpec.key`).  A missing or unreadable
    file, a stale format version, or a stored identity differing from
    the requested one (a hash collision) all return ``None`` — the
    caller recomputes, it never serves a wrong answer.  So does a file
    whose JSON is not an object (``[]``, ``null``, a number, a string).
    """
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("v") != CACHE_VERSION or payload.get("spec") != identity:
        return None  # hash collision or stale format: recompute
    metrics = payload.get("metrics")
    return metrics if isinstance(metrics, dict) else None


def store_entry(
    path: Path,
    identity: dict[str, Any],
    metrics: dict[str, Any],
    root_seed: int,
) -> None:
    """Atomically write one cache file (temp + rename, racer-safe)."""
    payload = {
        "v": CACHE_VERSION,
        "root_seed": int(root_seed),
        "spec": identity,
        "metrics": metrics,
    }
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
    os.replace(tmp, path)


class ResultCache:
    """A directory of per-trial JSON results with hit/miss accounting.

    Parameters
    ----------
    root:
        Cache directory (created if missing).  Safe to share between
        processes; entries are written atomically.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.counters = EventCounter("hits", "misses", "stores")

    def load(self, key: str, identity: dict[str, Any]) -> dict[str, Any] | None:
        """Metrics for ``key`` if present and identity-verified, else ``None``."""
        metrics = load_entry(entry_path(self.root, key), identity)
        self.counters.bump("hits" if metrics is not None else "misses")
        return metrics

    def store(
        self,
        key: str,
        identity: dict[str, Any],
        metrics: dict[str, Any],
        root_seed: int,
    ) -> None:
        """Record ``metrics`` under ``key`` (atomic, last writer wins)."""
        store_entry(entry_path(self.root, key), identity, metrics, root_seed)
        self.counters.bump("stores")

    def __len__(self) -> int:
        """Entries currently on disk (scans the directory)."""
        return sum(1 for _ in self.root.glob("*.json"))

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe counters for ``stats``/``health`` endpoints.

        The canonical keys are namespaced — ``cache_hits``,
        ``cache_misses``, ``cache_stores``, ``cache_hit_rate`` — so a
        cache block can be merged into a service's flat counter dict
        without colliding with other subsystems (the schema every
        endpoint follows; see ``repro.service.endpoint.Endpoint``).
        """
        counts = self.counters.snapshot()
        lookups = counts["hits"] + counts["misses"]
        hit_rate = round(counts["hits"] / lookups, 4) if lookups else 0.0
        return {
            "dir": str(self.root),
            "cache_hits": counts["hits"],
            "cache_misses": counts["misses"],
            "cache_stores": counts["stores"],
            "cache_hit_rate": hit_rate,
        }
