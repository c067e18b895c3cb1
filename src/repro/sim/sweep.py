"""Parallel trial-grid sweeps over (simulator, workload, B, seed).

Every experiment in this repository ultimately runs the same loop: build
a workload, instantiate a router at some ``B``, route, and record a
handful of scalars.  This module centralizes that loop as a *trial grid*:

* a :class:`TrialSpec` names one (workload, simulator, ``B``, repeat)
  cell declaratively — everything needed to run the trial is in the spec,
  so trials can be shipped to worker processes or keyed into a cache
  (the spec and the registries it names live in the NumPy-free
  :mod:`repro.sim.spec`; this module re-exports them);
* :func:`run_sweep` executes a list of specs on any
  :mod:`repro.exec` backend — inline, thread pool, or the
  fault-tolerant :class:`~repro.exec.process.ProcessPoolBackend`
  (``workers``/``backend`` arguments) — with a content-hash on-disk
  result cache (change one axis of a grid and only the delta is
  recomputed);
* cells of any flit-level router (:data:`repro.sim.batch.LOCKSTEP_MODELS`)
  that share a workload shape (same workload, params, ``L``, and sim
  params) are packed into *batches* and run in lockstep by the
  per-model ``run_*_batch`` drivers in :mod:`repro.sim.batch` — a
  single trial is a batch of one through the same driver, so results
  are bit-identical at every width and wide batches are several times
  faster (``batch_size``/``--batch-size``; ``1`` runs every trial
  alone);
* each worker process memoizes built workloads and their packed path
  matrices (:meth:`Workload.padded_paths`), so repeated trials of one
  grid cell pay for path padding and edge-simplicity validation once;
* per-trial randomness is derived with
  :meth:`numpy.random.SeedSequence.spawn` from a root seed and a digest
  of the trial's configuration, so results are independent of execution
  order and worker count — a parallel sweep is bit-identical to a serial
  one — and adding trials to a grid never perturbs existing ones.

Workloads and simulators are looked up in registries by name (the spec
must stay JSON-serializable); :data:`WORKLOADS` covers the standard
instances used by the E1/E2/E5 experiments and the CLI, and new entries
can be registered with :func:`register_workload`.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from ..cache import ResultCache
from ..network.errors import NetworkError
from .batch import LOCKSTEP_MODELS, run_model
from .kernels import exact_count
from .spec import (
    SIMULATORS,
    WORKLOADS,
    TrialSpec,
    Workload,
    _builder,
    batch_compat_key,
    check_root_seed,
    register_workload,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "SweepPlan",
    "SweepResult",
    "TrialResult",
    "TrialSpec",
    "WORKLOADS",
    "SIMULATORS",
    "Workload",
    "build_workload",
    "call_builder",
    "execute_compatible",
    "plan_sweep",
    "register_workload",
    "run_sweep",
    "sweep_grid",
    "trial_seed",
]

#: Per-process memo for :func:`trial_seed`: (root_seed, config digest)
#: -> (base sequence, children spawned so far).  Spawned children are a
#: stable prefix sequence, so extending the cached list with
#: ``base.spawn(k)`` yields exactly the children a fresh
#: ``base.spawn(repeat + 1)`` would — but the per-config work drops
#: from O(repeats^2) spawns per sweep to O(repeats).
_SEED_CACHE: dict[
    tuple[int, bytes],
    tuple[np.random.SeedSequence, list[np.random.SeedSequence]],
] = {}
_SEED_CACHE_MAX = 4096
#: Per-process memo of the configuration digest, keyed on a repr of the
#: spec less its ``repeat``: hashing JSON costs more than everything
#: else a cached call does, and values that compare equal but encode
#: differently (1, 1.0 and True; 0.0 and -0.0) have different reprs.
_DIGEST_CACHE: dict[str, bytes] = {}


def trial_seed(spec: TrialSpec, root_seed: int) -> np.random.SeedSequence:
    """Derive the trial's :class:`~numpy.random.SeedSequence`.

    The sequence is keyed on ``root_seed`` plus a digest of the trial
    configuration *excluding* ``repeat``; repeats are then separated with
    :meth:`~numpy.random.SeedSequence.spawn` (children are a stable
    prefix sequence, so repeat ``i`` never changes when more repeats are
    added).  Execution order and worker count cannot influence this.

    Returned sequences and configuration digests are memoized per
    process; the sequences are safe to share because every consumer
    treats them read-only (``default_rng`` and ``generate_state`` never
    mutate a :class:`SeedSequence`).
    """
    fields = repr((
        spec.workload, spec.simulator, spec.B, spec.workload_params,
        spec.sim_params, spec.message_length,
    ))
    digest = _DIGEST_CACHE.get(fields)
    if digest is None:
        if len(_DIGEST_CACHE) >= _SEED_CACHE_MAX:
            _DIGEST_CACHE.clear()
        config = spec.key()
        config.pop("repeat")
        blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
        digest = _DIGEST_CACHE[fields] = hashlib.sha256(blob.encode()).digest()
    key = (int(root_seed), digest[:16])
    entry = _SEED_CACHE.get(key)
    if entry is None:
        if len(_SEED_CACHE) >= _SEED_CACHE_MAX:
            _SEED_CACHE.clear()
        entropy = [
            int(root_seed) & 0xFFFFFFFF,
            int.from_bytes(digest[:16], "little"),
        ]
        entry = (np.random.SeedSequence(entropy), [])
        _SEED_CACHE[key] = entry
    base, children = entry
    if len(children) <= spec.repeat:
        children.extend(base.spawn(spec.repeat + 1 - len(children)))
    return children[spec.repeat]


# Per-process memo of built workloads: builders are pure functions of
# their parameters, so trials of the same grid cell (and batches) share
# one instance — and with it the cached padded-path matrix.  Keyed on the
# builder *function* (not its registry name) so re-registering a name
# can never serve a stale build.
_WORKLOAD_CACHE: dict[tuple[Any, tuple[tuple[str, Any], ...]], Workload] = {}
_WORKLOAD_CACHE_MAX = 8


def call_builder(what: str, fn: Callable[..., Any], params: dict[str, Any]):
    """``fn(**params)`` where ``params`` came from outside the program.

    A name the builder's signature lacks, or a value it cannot use (its
    ``TypeError`` / ``ValueError``), is the one :class:`NetworkError`
    naming ``what`` and its legal parameters; a builder's own
    :class:`NetworkError` already says what is wrong and passes through.
    """
    accepted = inspect.signature(fn).parameters.values()
    legal = [p.name for p in accepted if p.kind is not p.VAR_KEYWORD]
    unknown = sorted(set(params) - set(legal))
    try:
        if unknown and len(legal) == len(accepted):
            raise TypeError(f"no parameter named {', '.join(unknown)}")
        return fn(**params)
    except NetworkError:
        raise
    except (TypeError, ValueError) as exc:
        given = ", ".join(f"{k}={v!r}" for k, v in sorted(params.items()))
        raise NetworkError(
            f"{what} cannot be built with {given}: {exc}; "
            f"parameters: {', '.join(legal)}"
        ) from None


def build_workload(name: str, params=()) -> Workload:
    """The built (memoized) workload ``name``; ``params`` is a mapping or
    a :attr:`TrialSpec.workload_params` tuple of pairs."""
    fn = _builder(name)
    if not isinstance(params, tuple):
        params = tuple(sorted(params.items()))
    key = (fn, params)
    wl = _WORKLOAD_CACHE.get(key)
    if wl is None:
        wl = call_builder(f"workload {name!r}", fn, dict(params))
        if len(_WORKLOAD_CACHE) >= _WORKLOAD_CACHE_MAX:
            _WORKLOAD_CACHE.pop(next(iter(_WORKLOAD_CACHE)))
        _WORKLOAD_CACHE[key] = wl
    return wl


# ----------------------------------------------------------------------
# Simulator runners
# ----------------------------------------------------------------------


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


def _result_metrics(res) -> dict[str, Any]:
    return {
        "makespan": int(res.makespan),
        "steps": int(res.steps_executed),
        "messages": int(res.num_messages),
        "delivered": int(res.num_delivered),
        "blocked": int(res.total_blocked_steps),
        "deadlocked": bool(res.deadlocked),
        "hit_step_cap": bool(res.hit_step_cap),
        "completion_digest": _digest(res.completion_times),
    }


def _sim_seed(sp: dict[str, Any], ss: np.random.SeedSequence):
    """Explicit ``seed`` in sim_params wins over the derived sequence."""
    return sp["seed"] if "seed" in sp else ss


#: :data:`SIMULATORS` names the models without importing a kernel; a
#: model row it does not name in this order fails the import.
if SIMULATORS != tuple(LOCKSTEP_MODELS):
    raise ImportError(
        "repro.sim.spec.SIMULATORS must list the LOCKSTEP_MODELS rows; "
        f"got {SIMULATORS}, want {tuple(LOCKSTEP_MODELS)}"
    )

#: Default trials per lockstep batch when ``batch_size`` is ``None``.
#: With the SoA kernels the per-step cost is almost flat in the trial
#: count, so wider batches are nearly free wall-clock-wise and slash
#: the number of per-batch Python setups; 128 still splits big sweeps
#: into enough batches to load-balance across worker processes.
DEFAULT_BATCH_SIZE = 128


def execute_compatible(
    items: Sequence[tuple[TrialSpec, int]],
) -> list[dict[str, Any]]:
    """Run compatible ``(spec, root_seed)`` trials; metrics in input order.

    All items must share :func:`~repro.sim.spec.batch_compat_key`, so
    they share the workload, ``L`` and the sim params; ``B`` and the
    derived seed vary per trial (mixed root seeds are fine).  They run
    as one :func:`~repro.sim.batch.run_model` call — one trial is a
    batch of one through the same driver.  Trials are independent
    inside a batch, so the metrics are bit-identical to running each
    item alone.  The
    sweep's work units and the service batcher both execute through
    this function, so offline and online execution cannot drift.
    """
    spec0 = items[0][0]
    wl = build_workload(spec0.workload, spec0.workload_params)
    L = wl.default_length if spec0.message_length is None else spec0.message_length
    results = run_model(
        spec0.simulator,
        wl,
        L,
        seeds=[
            _sim_seed(dict(spec.sim_params), trial_seed(spec, root))
            for spec, root in items
        ],
        B=[spec.B for spec, _ in items],
        options={k: v for k, v in spec0.sim_params if k != "seed"},
    )
    out = []
    for res in results:
        metrics = _result_metrics(res)
        if "max_queue" in res.extra:
            metrics["max_queue"] = int(res.extra["max_queue"])
        metrics["message_length"] = int(L)
        for key, value in wl.info.items():
            metrics.setdefault(f"workload_{key}", value)
        out.append(metrics)
    return out


def _execute_unit(
    unit: tuple[tuple[TrialSpec, ...], int],
) -> list[tuple[dict[str, Any], float]]:
    """Top-level (picklable) worker entry point: run one work unit.

    A unit is ``(specs, root_seed)`` — compatible trials that ride in
    one :func:`execute_compatible` call.  Returns per-trial
    ``(metrics, seconds)`` in input order, the call's wall time shared
    evenly.
    """
    specs, root_seed = unit
    start = time.perf_counter()
    metrics = execute_compatible([(spec, root_seed) for spec in specs])
    elapsed = (time.perf_counter() - start) / len(specs)
    return [(m, elapsed) for m in metrics]


def _execute_trial(item: tuple[TrialSpec, int]) -> tuple[dict[str, Any], float]:
    """One trial's ``(metrics, seconds)`` — a unit of one."""
    spec, root_seed = item
    return _execute_unit(((spec,), root_seed))[0]


# ----------------------------------------------------------------------
# Sweep execution
# ----------------------------------------------------------------------


@dataclass
class TrialResult:
    """One executed (or cache-served) trial."""

    spec: TrialSpec
    metrics: dict[str, Any]
    cached: bool = False
    elapsed: float = 0.0

    @property
    def provenance(self) -> str:
        """Where the numbers came from, in the :class:`repro.SimResult`
        vocabulary: ``"cache"`` for cache-served trials, otherwise the
        metrics' execution mode (``"exact"`` | ``"estimate"``)."""
        if self.cached:
            return "cache"
        return str(self.metrics.get("mode", "exact"))

    def row(self) -> dict[str, Any]:
        return {
            "workload": self.spec.workload,
            "simulator": self.spec.simulator,
            "B": self.spec.B,
            "repeat": self.spec.repeat,
            "provenance": self.provenance,
            **self.metrics,
        }


@dataclass
class SweepResult:
    """Results of :func:`run_sweep`, in input-spec order."""

    trials: list[TrialResult]
    root_seed: int = 0
    wall_time: float = 0.0

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    @property
    def num_cached(self) -> int:
        return sum(t.cached for t in self.trials)

    def rows(self) -> list[dict[str, Any]]:
        return [t.row() for t in self.trials]

    def column(self, name: str) -> list[Any]:
        return [t.metrics.get(name) for t in self.trials]

    def filter(self, **eq: Any) -> "SweepResult":
        """Trials whose spec fields equal the given values."""
        kept = [
            t
            for t in self.trials
            if all(getattr(t.spec, k) == v for k, v in eq.items())
        ]
        return SweepResult(kept, self.root_seed, self.wall_time)


def sweep_grid(
    workload: str,
    simulators: str | Sequence[str],
    Bs: Iterable[int],
    *,
    workload_params: dict[str, Any] | None = None,
    sim_params: dict[str, Any] | None = None,
    message_length: int | None = None,
    repeats: int = 1,
) -> list[TrialSpec]:
    """The cartesian grid ``simulators x Bs x repeats`` on one workload."""
    if isinstance(simulators, str):
        simulators = [simulators]
    if repeats < 1:
        raise NetworkError("repeats must be >= 1")
    return [
        TrialSpec.make(
            workload,
            simulator,
            B=B,
            workload_params=workload_params,
            sim_params=sim_params,
            message_length=message_length,
            repeat=r,
        )
        for simulator in simulators
        for B in Bs
        for r in range(repeats)
    ]


class SweepPlan(NamedTuple):
    """What :func:`run_sweep` will do: :func:`plan_sweep`'s answer."""

    batch_size: int  #: the resolved trials-per-lockstep-batch cap
    cached: dict[int, dict[str, Any]]  #: spec index -> metrics the cache holds
    #: ``(work unit, spec indexes)`` pairs covering every other trial; a
    #: unit is the ``(specs, root_seed)`` payload of :func:`_execute_unit`.
    units: list[tuple[tuple[tuple[TrialSpec, ...], int], list[int]]]


def plan_sweep(
    specs: Sequence[TrialSpec],
    *,
    root_seed: int = 0,
    cache_dir: str | os.PathLike | None = None,
    force: bool = False,
    batch_size: int | None = None,
) -> SweepPlan:
    """Scan the cache and pack the remaining trials into work units.

    The arguments are :func:`run_sweep`'s.  Trials sharing a
    :func:`~repro.sim.spec.batch_compat_key` are chunked into units of
    at most ``batch_size`` trials; a chunk of one (every trial when
    ``batch_size == 1``) is a one-trial unit, listed after the
    multi-trial ones.  Planning only reads: a missing
    ``cache_dir`` is not created, so ``repro sweep --dry-run`` prints
    exactly the plan a real run then executes.
    """
    batch_size = exact_count(
        DEFAULT_BATCH_SIZE if batch_size is None else batch_size, "batch_size", 1
    )
    cache = ResultCache(cache_dir) if cache_dir is not None and not force else None
    cached: dict[int, dict[str, Any]] = {}
    groups: dict[tuple, list[int]] = {}
    singles: list[int] = []
    for i, spec in enumerate(specs):
        if cache is not None:
            metrics = cache.load(spec.cache_key(root_seed), spec.key())
            if metrics is not None:
                cached[i] = metrics
                continue
        if batch_size >= 2:
            groups.setdefault(batch_compat_key(spec), []).append(i)
        else:
            singles.append(i)
    chunks: list[list[int]] = []
    for idxs in groups.values():
        for j in range(0, len(idxs), batch_size):
            chunk = idxs[j : j + batch_size]
            if len(chunk) == 1:
                singles.extend(chunk)
            else:
                chunks.append(chunk)
    chunks.extend([i] for i in singles)
    units = [
        ((tuple(specs[i] for i in chunk), root_seed), chunk) for chunk in chunks
    ]
    return SweepPlan(batch_size, cached, units)


def run_sweep(
    specs: Sequence[TrialSpec],
    *,
    root_seed: int = 0,
    workers: int = 0,
    cache_dir: str | os.PathLike | None = None,
    force: bool = False,
    batch_size: int | None = None,
    backend: str | None = None,
) -> SweepResult:
    """Execute a list of trial specs; returns results in input order.

    Parameters
    ----------
    specs:
        The grid (see :func:`sweep_grid` / :meth:`TrialSpec.make`).
    root_seed:
        Root entropy for :func:`trial_seed`, an integer in ``[0, 2**32)``;
        one sweep at two different root seeds is two independent
        replications of the whole grid.
    workers:
        Pool width for thread/process backends.  With the default
        ``backend=None``, ``0`` or ``1`` runs serially in-process and
        ``>= 2`` fans work units out over a fault-tolerant
        :class:`~repro.exec.process.ProcessPoolBackend`.  Results are
        bit-identical either way.
    cache_dir:
        Optional directory of per-trial JSON results keyed by a content
        hash of (spec, root_seed).  Cached trials are served without
        executing; changing any axis of the grid recomputes only the new
        cells.
    force:
        Ignore (and overwrite) existing cache entries.
    batch_size:
        Trials per lockstep batch for the lockstep models (every
        flit-level router; see :mod:`repro.sim.batch`).  ``None`` picks
        :data:`DEFAULT_BATCH_SIZE`; ``1`` runs every trial as a batch
        of one.  Results, seeds, and cache entries are bit-identical at
        every setting.
    backend:
        Execution substrate: ``None`` (derive from ``workers`` as
        above) or an :mod:`repro.exec` backend name (``"inline"``,
        ``"thread"``, ``"process"``).  The substrate never changes any
        trial's metrics.
    """
    specs = list(specs)
    root_seed = check_root_seed(root_seed)
    workers = exact_count(workers, "workers")
    started = time.perf_counter()
    plan = plan_sweep(
        specs,
        root_seed=root_seed,
        cache_dir=cache_dir,
        force=force,
        batch_size=batch_size,
    )
    results: list[TrialResult | None] = [None] * len(specs)
    for i, metrics in plan.cached.items():
        results[i] = TrialResult(specs[i], metrics, cached=True)

    if plan.units:
        from ..exec import create_backend

        cache = ResultCache(cache_dir) if cache_dir is not None else None
        if backend is None:
            backend = "process" if workers >= 2 else "inline"
        exec_backend = create_backend(backend, workers=max(workers, 2))
        try:
            outcomes = exec_backend.map(
                _execute_unit, [unit for unit, _ in plan.units]
            )
        finally:
            exec_backend.close()
        for (_, idxs), unit_results in zip(plan.units, outcomes):
            for i, (metrics, elapsed) in zip(idxs, unit_results):
                results[i] = TrialResult(
                    specs[i], metrics, cached=False, elapsed=elapsed
                )
                if cache is not None:
                    cache.store(
                        specs[i].cache_key(root_seed),
                        specs[i].key(),
                        metrics,
                        root_seed,
                    )

    done = [r for r in results if r is not None]
    assert len(done) == len(specs)
    return SweepResult(done, root_seed, time.perf_counter() - started)
