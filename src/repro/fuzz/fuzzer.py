"""Seeded cross-model invariant fuzzer: ``repro fuzz --rounds N --seed S``.

A fuzz *family* is a registered scenario (:mod:`repro.scenarios`) plus a
parameter sampler — one :data:`FAMILY_TABLE` row — so the fuzzer builds
no instance of its own: each round draws a family, the sampler draws the
scenario builder's keyword parameters (and ``L`` / the arbitration
priority where the family varies them), and the built workload — with
its routes as plain edge-id lists — is the serialisable
:class:`FuzzCase`.  ``layered`` is the Theorem 2.1.6
substrate (random leveled network, random-walk paths) under the greedy
models, ``schedule`` the same substrate released on its LLL schedule
for one ``B``, ``chain`` bundles with exactly dialed congestion and
dilation, ``gadget`` the Theorem 2.2.1 hard instance run at the ``B`` it
was built for, ``ring`` cyclic traffic whose deadlock is deterministic
(``deadlocked iff B < hops`` given ``L > B``), ``arrival`` constant or
square-wave arrival traces, run as wormhole trials whose releases are
the arrivals.

Every run — each model the scenario declares, at each of the case's
``B`` values, one :func:`repro.simulate` trial of the case's workload —
is judged by every row of the expectation table that applies to it
(:func:`repro.fuzz.expectations.evaluate`).  Only the invariants that
compare *several* runs live here: ``B``-monotonicity (wormhole and
store-and-forward), full-vs-restricted dominance, and batched == serial
bit-exactness for every lockstep kernel (the adaptive one on a
permutation mesh derived from the case seed).

Every case is reproducible from ``(root seed, round index)`` alone.  On
a violation the fuzzer *shrinks* — greedily dropping path chunks and
reducing ``L`` while the violation persists — and writes a replayable
JSON artifact; ``repro fuzz --replay <artifact>`` re-runs exactly that
case.
"""

from __future__ import annotations

import functools
import json
import os
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Any, NamedTuple

import numpy as np

from ..network.graph import Network, NetworkError
from ..sim.batch import LOCKSTEP_MODELS
from ..sim.sweep import WORKLOADS, Workload, _result_metrics
from . import invariants as inv
from .expectations import evaluate
from .invariants import Violation

__all__ = [
    "FAMILIES",
    "FAMILY_TABLE",
    "FuzzCase",
    "FuzzReport",
    "replay_artifact",
    "run_case",
    "run_fuzz",
    "shrink_case",
]

ARTIFACT_VERSION = 4
#: Most candidate cases :func:`shrink_case` runs for one failure.
SHRINK_PROBES = 80


class Family(NamedTuple):
    """One fuzz family: a registered scenario and how to vary it."""

    #: The :data:`repro.scenarios.SCENARIOS` entry that builds the case.
    scenario: str
    #: ``sampler(rng) -> (builder params, L, priority)``: ``None`` keeps the
    #: built case's own; a sampled ``B`` is the one ``B`` the case runs at
    #: (and is built for, where the builder takes one).
    sampler: Callable[[np.random.Generator], tuple[dict[str, Any], Any, Any]]
    #: Draw weight (biased toward the cheap high-yield families).
    weight: float
    #: Any subset of the routes is again an instance: the shrinker may
    #: drop paths, and the legs that presume nothing but ``(network,
    #: paths, L)`` — dominance, batched == serial — apply.
    structural: bool = False


def _ints(rng: np.random.Generator, **ranges) -> dict[str, int]:
    """One ``[lo, hi)`` integer draw per keyword, in keyword order."""
    return {k: int(rng.integers(lo, hi)) for k, (lo, hi) in ranges.items()}


def _priority(rng: np.random.Generator) -> str:
    return str(rng.choice(["random", "age"]))


#: The ``layered-walks`` builder ranges both layered families draw.
_LAYERED = dict(
    width=(4, 7), depth=(3, 6), out_degree=(2, 4), messages=(6, 17), seed=(0, 2**31)
)


def _sample_layered(rng):
    params = _ints(rng, **_LAYERED)
    return params, int(rng.integers(4, 13)), _priority(rng)


def _sample_schedule(rng):
    # The schedule is built for L = length: the case keeps its own L.
    params = _ints(rng, **_LAYERED, length=(4, 13), schedule_seed=(0, 2**31))
    params["B"] = int(rng.choice([1, 2, 4]))
    return params, None, None


def _sample_chain(rng):
    params = _ints(rng, chains=(2, 5), depth=(3, 9), messages=(2, 7))
    return params, int(rng.integers(4, 13)), _priority(rng)


def _sample_gadget(rng):
    B = int(rng.choice([1, 2]))
    params = dict(
        B=B,
        C=(B + 1) * int(rng.integers(2, 4)),
        D=int(rng.integers(max(7, B + 2), 12)),
        length_factor=float(rng.uniform(1.5, 2.5)),
    )
    return params, None, _priority(rng)


def _sample_ring(rng):
    n = int(rng.integers(3, 7))
    hops = int(rng.integers(2, n + 1))
    B = int(rng.choice([1, 2, 3]))
    # L > B, so worms can wrap the cycle shut.
    return dict(B=B, n=n, hops=hops), hops + B + int(rng.integers(1, 4)), None


def _sample_arrival(rng):
    params = _ints(
        rng, width=(4, 7), depth=(3, 5), out_degree=(2, 4), horizon=(150, 301),
        message_length=(3, 9), net_seed=(0, 2**31),
    )
    params["B"] = int(rng.choice([1, 2, 4]))
    if rng.choice(["constant", "burst"]) == "burst":
        params["period"] = period = int(rng.integers(40, 90))
        params["burst_len"] = int(rng.integers(10, period // 2 + 1))
        params["burst_rate"] = float(rng.uniform(0.3, 0.7))
    else:  # burst_rate == idle_rate is the constant shape
        params["burst_rate"] = params["idle_rate"] = float(rng.uniform(0.05, 0.4))
    return params, None, None


def _scenario(family: str):
    """The registered scenario ``family`` varies."""
    from ..scenarios import get_scenario  # the registry imports repro.fuzz

    return get_scenario(FAMILY_TABLE[family].scenario)


#: The families, in draw order.
FAMILY_TABLE: dict[str, Family] = {
    "layered": Family("layered-walks", _sample_layered, 0.25, structural=True),
    "chain": Family("chain-contention", _sample_chain, 0.25, structural=True),
    "gadget": Family("lower-bound-gadget", _sample_gadget, 0.15),
    "ring": Family("ring-deadlock", _sample_ring, 0.15),
    "arrival": Family("bursty-arrivals", _sample_arrival, 0.10),
    "schedule": Family("lll-schedule", _sample_schedule, 0.10),
}
FAMILIES = tuple(FAMILY_TABLE)


@dataclass
class FuzzCase:
    """One generated case: a built workload and how to run it.

    ``workload`` is the whole trial — network, routes as edge-id lists,
    ``L`` (its ``default_length``), priority (its ``arbitration``), the
    arrival family's drawn release times and sources, and the scenario
    builder's ``facts`` (the gadget's ``built_B`` and dilation, the
    ring's forced deadlock verdict, ...).  Like a scenario run it is a
    :func:`repro.simulate` trial of its workload, judged by
    :func:`~repro.fuzz.expectations.evaluate`.  A case is fully
    serializable: the network travels as its insertion-ordered edge
    list, so ``Network.add_edge`` replay rebuilds identical edge ids.
    """

    family: str
    workload: Workload
    sim_seed: int
    channels: tuple[int, ...]

    def describe(self) -> str:
        wl = self.workload
        return (
            f"{self.family}: {wl.net.num_nodes} nodes, "
            f"{wl.net.num_edges} edges, {len(wl.paths)} paths, "
            f"L={wl.default_length}, channels={list(self.channels)}"
        )


@dataclass
class FuzzReport:
    """Outcome of :func:`run_fuzz`."""

    rounds: int
    seed: int
    cases_by_family: dict[str, int]
    checks_run: int
    failures: list[dict[str, Any]]  # artifact payloads (also on disk)
    artifact_paths: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def generate_case(
    root_seed: int, round_index: int, families: tuple[str, ...] = FAMILIES
) -> FuzzCase:
    """The case for ``(root_seed, round_index)`` — stable by construction.

    Each round gets its own :class:`numpy.random.SeedSequence` spawn, so
    inserting new draw sites in one sampler never perturbs any other
    round; the family is the round's first draw.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=root_seed, spawn_key=(round_index,))
    )
    if families == FAMILIES:
        weights = np.asarray([fam.weight for fam in FAMILY_TABLE.values()])
    else:
        weights = np.ones(len(families)) / len(families)
    family = str(rng.choice(list(families), p=weights / weights.sum()))
    params, L, priority = FAMILY_TABLE[family].sampler(rng)
    channels = (params["B"],) if "B" in params else (1, 2, 4)
    wl = _scenario(family).build_case(**{"B": channels[0], **params})

    def ints(values):
        return None if values is None else [int(v) for v in values]

    return FuzzCase(
        family=family,
        # Every other field (``vc_ids``, ``facts``, ...) is the scenario's own.
        workload=replace(
            wl,
            paths=[ints(getattr(p, "edges", p)) for p in wl.paths],
            default_length=int(wl.default_length if L is None else L),
            arbitration=priority or wl.arbitration or "random",
            release_times=ints(wl.release_times),
            sources=ints(wl.sources),
        ),
        sim_seed=int(rng.integers(0, 2**31)),
        channels=channels,
    )


# ----------------------------------------------------------------------
# Checking one case
# ----------------------------------------------------------------------


def _check_case(case: FuzzCase) -> list[Violation]:
    """Every declared model at every ``B``, then the cross-run legs."""
    from ..analysis.estimate import route_stats
    from ..facade import simulate

    models = _scenario(case.family).models
    out: list[Violation] = []
    runs: dict[tuple[str, int], Any] = {}

    def judged(model: str, B: int):
        """The outcome of ``model`` at ``B``, run and judged once."""
        if (model, B) not in runs:
            runs[model, B] = outcome = simulate(
                case.workload, model=model, B=B, seed=case.sim_seed
            )
            verdicts = evaluate(outcome, case.workload, model=model, B=B)
            out.extend(v for _, v in verdicts if v is not None)
        return runs[model, B]

    def clean(res) -> bool:
        return not (res.deadlocked or res.hit_step_cap)

    for model in models:
        for B in case.channels:
            judged(model, B)
    for model in ("wormhole", "store_forward"):
        if model not in models:
            continue
        makespans = {
            B: int(runs[model, B].makespan)
            for B in case.channels
            if clean(runs[model, B])
        }
        out.extend(inv.check_b_monotonicity(makespans, model=model))
    if not FAMILY_TABLE[case.family].structural:
        return out

    # Section 1.4: full B = C multiplexing dominates the restricted model.
    B_low = case.channels[0]
    _, C, _ = route_stats(case.workload, "wormhole")
    if C >= 1:
        restricted, full = judged("restricted", B_low), judged("wormhole", C)
        if clean(restricted) and clean(full):
            got = inv.check_full_vs_restricted(
                int(full.makespan), int(restricted.makespan), B=B_low, congestion=C
            )
            if got is not None:
                out.append(got)
    out.extend(_check_batch_serial(case, B_low))
    return out


def _check_batch_serial(case: FuzzCase, B: int) -> list[Violation]:
    """Lockstep batch == serial replay, for *every* row of the model table.

    The path-based models run the case's own workload; a mesh model runs
    the registered permutation mesh seeded from the case, so the
    invariant still exercises every kernel every round.
    """
    from ..facade import simulate

    seeds = [case.sim_seed, case.sim_seed + 1, case.sim_seed + 2]
    mesh = WORKLOADS["mesh-permutation"](k=4, seed=case.sim_seed)
    out: list[Violation] = []
    for model, spec in LOCKSTEP_MODELS.items():
        problem, L = case.workload, case.workload.default_length
        if spec.kind == "mesh":
            problem, L = mesh, min(L, 6)
        run = functools.partial(simulate, problem, model=model, B=B, message_length=L)
        batch, serial = run(batch=seeds), [run(seed=s) for s in seeds]
        got = inv.check_batch_matches_serial(
            [_result_metrics(r) for r in batch],
            [_result_metrics(r) for r in serial],
            model=model,
        )
        if got is not None:
            out.append(got)
    return out


#: Dispatch table for :func:`run_case`.  Module-level on purpose: tests
#: monkeypatch entries here to prove a sabotaged invariant is caught,
#: shrunk, and serialized without touching any simulator.
CASE_CHECKERS: dict[str, Any] = dict.fromkeys(FAMILIES, _check_case)


def run_case(case: FuzzCase) -> list[Violation]:
    """All applicable invariant checks for one case (empty == clean)."""
    return CASE_CHECKERS[case.family](case)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------


def _still_fails(case: FuzzCase, invariant: str) -> bool:
    try:
        return any(v.invariant == invariant for v in run_case(case))
    except NetworkError:
        return False  # a shrink that breaks preconditions is not smaller


def shrink_case(case: FuzzCase, invariant: str) -> FuzzCase:
    """Greedy delta-debugging: smallest case still violating ``invariant``.

    Alternates dropping path chunks (halves, then quarters, then single
    paths) with reducing ``L``.  Gadget and ring cases keep their path
    sets intact — a strict subset of the hard instance no longer
    satisfies "every ``B + 1`` messages share a primary edge" (the
    recomputed bound would be unsound), and a partial ring breaks the
    deadlock-determinism rule — so those families shrink ``L`` only.
    At most :data:`SHRINK_PROBES` candidates are run.
    """
    probes = 0
    structural = FAMILY_TABLE[case.family].structural

    def fails(c: FuzzCase) -> bool:
        nonlocal probes
        if probes >= SHRINK_PROBES:
            return False
        probes += 1
        return _still_fails(c, invariant)

    def with_workload(c: FuzzCase, **fields) -> FuzzCase:
        return replace(c, workload=replace(c.workload, **fields))

    best = case
    if structural:
        chunk = max(len(best.workload.paths) // 2, 1)
        while chunk >= 1 and len(best.workload.paths) > 1:
            paths, i, shrunk = best.workload.paths, 0, False
            while i < len(paths):
                trial_paths = paths[:i] + paths[i + chunk :]
                if trial_paths:
                    cand = with_workload(best, paths=trial_paths)
                    if fails(cand):
                        best, paths = cand, trial_paths
                        shrunk = True
                        continue  # same i: next chunk slid into place
                i += chunk
            if not shrunk:
                chunk //= 2

    # Reduce L (a case stating its dilation — the gadget — keeps L > D,
    # so its bound stays applicable).
    L_floor = int(case.workload.facts.get("dilation", 0)) + 1
    # Each pass lowers L or halves the cut, so the loop ends even once
    # the probe budget is spent and every candidate reads as passing.
    L = best.workload.default_length
    step = max((L - L_floor) // 2, 1)
    while step >= 1 and L - step >= L_floor:
        cand = with_workload(best, default_length=L - step)
        if fails(cand):
            best = cand
            L -= step
            step = max((L - L_floor) // 2, 1)
        else:
            step //= 2  # probe a gentler cut next pass
    return best


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------


def case_to_artifact(
    case: FuzzCase,
    violations: list[Violation],
    *,
    root_seed: int,
    round_index: int,
) -> dict[str, Any]:
    wl = case.workload
    net = wl.net
    return {
        "version": ARTIFACT_VERSION,
        "family": case.family,
        "violations": [v.to_json() for v in violations],
        "network": {
            "name": net.name,
            "num_nodes": net.num_nodes,
            "edges": [
                [int(net.tail(e)), int(net.head(e))]
                for e in range(net.num_edges)
            ],
        },
        "paths": [[int(e) for e in p] for p in wl.paths],
        "message_length": int(wl.default_length),
        "priority": wl.arbitration,
        "sim_seed": int(case.sim_seed),
        "channels": [int(b) for b in case.channels],
        "extra": wl.facts,
        "release_times": wl.release_times,
        "sources": wl.sources,
        "vc_ids": (
            None if wl.vc_ids is None else [[int(c) for c in p] for p in wl.vc_ids]
        ),
        "fuzz": {"root_seed": int(root_seed), "round": int(round_index)},
    }


def case_from_artifact(payload: dict[str, Any]) -> FuzzCase:
    meta = payload["network"]
    net = Network(name=meta.get("name") or "replayed")
    for i in range(int(meta["num_nodes"])):
        net.add_node(i)
    for tail, head in meta["edges"]:
        net.add_edge(int(tail), int(head))
    return FuzzCase(
        family=payload["family"],
        workload=Workload(
            net=net,
            paths=[[int(e) for e in p] for p in payload["paths"]],
            default_length=int(payload["message_length"]),
            arbitration=payload["priority"],
            release_times=payload["release_times"],
            sources=payload["sources"],
            vc_ids=payload["vc_ids"],
            facts=dict(payload.get("extra") or {}),
        ),
        sim_seed=int(payload["sim_seed"]),
        channels=tuple(int(b) for b in payload["channels"]),
    )


def replay_artifact(path: str) -> list[Violation]:
    """Re-run the exact case stored in a repro artifact."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != ARTIFACT_VERSION:
        raise NetworkError(
            f"unsupported artifact version {payload.get('version')!r}"
        )
    return run_case(case_from_artifact(payload))


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


def run_fuzz(
    rounds: int,
    seed: int = 0,
    *,
    families: tuple[str, ...] | None = None,
    artifact_dir: str = "fuzz-artifacts",
) -> FuzzReport:
    """Fuzz ``rounds`` cases from ``seed``; shrink + serialize failures."""
    fams = FAMILIES if families is None else tuple(families)
    unknown = set(fams) - set(FAMILIES)
    if unknown:
        raise NetworkError(
            f"unknown fuzz families: {', '.join(sorted(unknown))}; "
            f"known: {', '.join(FAMILIES)}"
        )
    by_family = dict.fromkeys(fams, 0)
    failures: list[dict[str, Any]] = []
    artifact_paths: list[str] = []
    checks = 0

    for i in range(int(rounds)):
        case = generate_case(int(seed), i, fams)
        by_family[case.family] += 1
        violations = run_case(case)
        checks += 1
        if not violations:
            continue
        shrunk = shrink_case(case, violations[0].invariant)
        final = run_case(shrunk)
        if not final:  # shrink landed on a flake boundary: keep original
            shrunk, final = case, violations
        payload = case_to_artifact(
            shrunk, final, root_seed=int(seed), round_index=i
        )
        os.makedirs(artifact_dir, exist_ok=True)
        out_path = os.path.join(
            artifact_dir, f"fuzz-{seed}-round{i}-{final[0].invariant}.json"
        )
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        failures.append(payload)
        artifact_paths.append(out_path)

    return FuzzReport(
        rounds=int(rounds),
        seed=int(seed),
        cases_by_family=by_family,
        checks_run=checks,
        failures=failures,
        artifact_paths=artifact_paths,
    )
