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
same fallback the sweep cache has always had.  Every entry also stores
a SHA-256 of its canonical metrics JSON, recomputed on load: metrics
damaged on disk but still parseable are a miss, never a wrong number.
Writes are atomic (temp file + :func:`os.replace`), so concurrent
writers — parallel sweeps, several router processes sharing one
directory — can race without ever exposing a torn entry, and a write
the disk refuses (full, read-only) costs the entry, never the answer.

Hit/miss/store counters ride on :class:`~repro.telemetry.metrics
.EventCounter` and surface through ``stats``/``health`` wherever the
cache is mounted.
"""

from __future__ import annotations

import hashlib
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
#: correct response to any change in metric semantics.  Version 2 added
#: the metrics digest; version 3 drops the numbers of scenario trials
#: that ran without their workload's VC classes or arbitration.
CACHE_VERSION = 3


def entry_path(root: Path, key: str) -> Path:
    """The file holding the entry for ``key`` under cache directory ``root``."""
    return root / f"{key}.json"


def _metrics_digest(metrics: dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON of ``metrics`` (what an entry stores)."""
    canonical = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _read_entry(
    path: Path, identity: dict[str, Any]
) -> tuple[dict[str, Any] | None, bool]:
    """``(metrics or None, whether the metrics failed their digest)``."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None, False
    if not isinstance(payload, dict):
        return None, False
    if payload.get("v") != CACHE_VERSION or payload.get("spec") != identity:
        return None, False  # hash collision or stale format: recompute
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        return None, False
    if payload.get("digest") != _metrics_digest(metrics):
        return None, True  # damaged on disk: recompute
    return metrics, False


def load_entry(path: Path, identity: dict[str, Any]) -> dict[str, Any] | None:
    """Read one cache file; ``None`` unless it verifiably matches.

    ``identity`` is the trial's canonical identity dict (see
    :meth:`~repro.sim.sweep.TrialSpec.key`).  A missing or unreadable
    file, a stale format version, a stored identity differing from the
    requested one (a hash collision), or metrics that fail the stored
    digest all return ``None`` — the caller recomputes, it never serves
    a wrong answer.  So does a file whose JSON is not an object (``[]``,
    ``null``, a number, a string).
    """
    return _read_entry(path, identity)[0]


def store_entry(
    path: Path,
    identity: dict[str, Any],
    metrics: dict[str, Any],
    root_seed: int,
) -> None:
    """Atomically write one cache file (temp + rename, racer-safe).

    On an ``OSError`` the temp file is removed before the error is
    re-raised, so a refused write leaves the directory as it was.
    """
    payload = {
        "v": CACHE_VERSION,
        "root_seed": int(root_seed),
        "spec": identity,
        "metrics": metrics,
        "digest": _metrics_digest(metrics),
    }
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    try:
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


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
        self.counters = EventCounter(
            "hits", "misses", "stores", "store_errors", "corrupt"
        )

    def load(self, key: str, identity: dict[str, Any]) -> dict[str, Any] | None:
        """Metrics for ``key`` if present and verified, else ``None``.

        An entry whose metrics fail their digest is a miss that also
        counts as ``corrupt``.
        """
        metrics, corrupt = _read_entry(entry_path(self.root, key), identity)
        self.counters.bump("hits" if metrics is not None else "misses")
        if corrupt:
            self.counters.bump("corrupt")
        return metrics

    def store(
        self,
        key: str,
        identity: dict[str, Any],
        metrics: dict[str, Any],
        root_seed: int,
    ) -> None:
        """Record ``metrics`` under ``key`` (atomic, last writer wins).

        Never raises ``OSError``: a write the disk refuses (e.g. a full
        cache directory) is counted as a ``store_error`` and the entry
        is simply absent — the caller already holds the answer.
        """
        try:
            store_entry(entry_path(self.root, key), identity, metrics, root_seed)
        except OSError:
            self.counters.bump("store_errors")
            return
        self.counters.bump("stores")

    def __len__(self) -> int:
        """Entries currently on disk (scans the directory)."""
        return sum(1 for _ in self.root.glob("*.json"))

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe counters for ``stats``/``health`` endpoints.

        The canonical keys are namespaced — ``cache_hits``,
        ``cache_misses``, ``cache_stores``, ``cache_store_errors``,
        ``cache_corrupt``, ``cache_hit_rate`` — so a cache block can be
        merged into a service's flat counter dict without colliding
        with other subsystems (the schema every endpoint follows; see
        ``repro.service.endpoint.Endpoint``).
        """
        counts = self.counters.snapshot()
        lookups = counts["hits"] + counts["misses"]
        hit_rate = round(counts["hits"] / lookups, 4) if lookups else 0.0
        return {
            "dir": str(self.root),
            "cache_hits": counts["hits"],
            "cache_misses": counts["misses"],
            "cache_stores": counts["stores"],
            "cache_store_errors": counts["store_errors"],
            "cache_corrupt": counts["corrupt"],
            "cache_hit_rate": hit_rate,
        }
