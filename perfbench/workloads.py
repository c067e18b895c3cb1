"""The seven workloads: what one round does, and how its outputs are checked.

An *op* is one simulated trial (sweeps) or one ``run`` request (served); a
*reply* is what a caller waits for — one ``run_sweep`` call, or one response
line.  Every round of a workload performs the same ops in the same order;
only ``root_seed`` changes (round ``r`` of ``--seed S`` uses ``S + r``), so
the program only ever sees generated specs and a round is a pure function of
its root seed.  That is what lets the golden digests be keyed by root seed.

Sizes below are for ``scale = 1`` on the 2-core reference box, chosen so a
round takes about a second (``sweep_restricted``: 2.3 s, its lockstep call
costs the same at any width) and several rounds fit in the measured window.
"""

from __future__ import annotations

import hashlib
import json
import resource
from collections import defaultdict
from dataclasses import dataclass, field
from time import monotonic_ns, perf_counter, process_time

from . import env
from .spans import Tracer
from .tier import Generator, Tier

CHAIN = {"chains": 4, "depth": 12, "messages": 8}
CHAIN_SMALL = {"chains": 4, "depth": 10, "messages": 6}
MESH = {"k": 6}
BS = (1, 2, 4)
SWEEP_MODELS = ("wormhole", "cut_through", "store_forward", "adaptive")
#: The warm-up round (part of set-up) is this fraction of a timed round.
WARM = 0.25


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _spec(model: str, B: int, repeat: int, *, L: int | None = None, small: bool = False):
    from repro.sim.sweep import TrialSpec

    if model == "adaptive":
        return TrialSpec.make(
            "mesh-permutation", model, B=B, workload_params=MESH,
            message_length=6, repeat=repeat,
        )
    return TrialSpec.make(
        "chain-bundle", model, B=B,
        workload_params=CHAIN_SMALL if small else CHAIN,
        message_length=24 if L is None else L, repeat=repeat,
    )


def _grid(model: str, repeats: int) -> list:
    """``B``-major, like ``sweep_grid``: one model's B x repeats cells."""
    return [_spec(model, B, r) for B in BS for r in range(repeats)]


def msg_steps(metrics: dict) -> int:
    """Messages x simulated steps one answer stands for.  An estimate
    answers for the steps of its upper envelope without executing them."""
    steps = metrics["steps"] if "steps" in metrics else metrics["makespan_upper"]
    return int(metrics["messages"]) * int(steps)


def digest(metrics_list: list[dict]) -> dict:
    """The golden record of one round: a hash over the ordered per-op
    simulated statistics, plus two exact totals that localise a mismatch."""
    rows = []
    steps_total = 0
    for m in metrics_list:
        if "steps" in m:
            rows.append([m["makespan"], m["steps"], m["completion_digest"]])
            steps_total += m["steps"]
        else:
            rows.append([m["makespan_lower"], m["makespan_upper"], m["delay_lower_digest"]])
            steps_total += m["makespan_upper"]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return {
        "ops": len(rows),
        "digest": hashlib.sha256(blob).hexdigest(),
        "steps_total": steps_total,
        "msg_steps_total": sum(msg_steps(m) for m in metrics_list),
    }


# ----------------------------------------------------------------------
# Oracles (run outside the timed window)
# ----------------------------------------------------------------------


def lockstep_oracle(items: list[tuple]) -> list[dict]:
    """Expected metrics per ``(spec, root_seed)``: compatible items ride one
    lockstep batch of at most 128, whatever round or caller they came from —
    a different batch composition than any measured path used."""
    from repro.service.batcher import execute_compatible
    from repro.sim.batch import batch_compat_key

    groups = defaultdict(list)
    for i, (spec, _) in enumerate(items):
        groups[batch_compat_key(spec)].append(i)
    out: list = [None] * len(items)
    for idxs in groups.values():
        for j in range(0, len(idxs), 128):
            chunk = idxs[j : j + 128]
            for i, m in zip(chunk, execute_compatible([items[i] for i in chunk])):
                out[i] = m
    return out


def serial_oracle(items: list[tuple]) -> list[dict]:
    """Expected metrics through the per-trial (``T = 1``) simulator path."""
    from repro.service.batcher import execute_compatible

    return [execute_compatible([item])[0] for item in items]


def estimate_oracle(items: list[tuple]) -> list[dict]:
    from repro.analysis.estimate import estimate_spec

    return [estimate_spec(spec).to_metrics() for spec, _ in items]


# ----------------------------------------------------------------------
# Rounds and the workload interface
# ----------------------------------------------------------------------


@dataclass
class Round:
    rnd: int
    root_seed: int
    wall: float
    items: list[tuple]  # (spec, root_seed) per op, in op order
    metrics: list  # actual metrics per op; None = error / reject / no reply
    latencies: list[float]  # seconds, one per reply
    traced: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> int:
        return sum(m is not None for m in self.metrics)


class Workload:
    name = ""  # why each workload exists: BENCHMARK.json ``workloads[].why``
    #: How often set-up is repeated; ``setup_s`` is the fastest.
    setup_repeats = 3
    oracle = staticmethod(lockstep_oracle)

    def __init__(self, scale: float, tracer: Tracer) -> None:
        self.scale = scale
        self.tracer = tracer

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_round(self, root_seed: int, rnd: int, scale: float | None = None) -> Round:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def stats(self) -> dict:
        """The tier's ``stats`` snapshot (nothing to ask in-process)."""
        return {}

    def sample(self, rnd: Round) -> list[int]:
        """Op indices of ``rnd`` the oracle replays (default: all)."""
        return list(range(len(rnd.items)))

    def verify(self, rounds: list[Round]) -> int:
        """Failed ops: missing replies plus oracle mismatches."""
        wanted = [(r, i) for r in rounds for i in self.sample(r)]
        distinct = list(dict.fromkeys(r.items[i] for r, i in wanted))
        expected = dict(zip(distinct, self.oracle(distinct)))
        failed = sum(len(r.metrics) - r.ok for r in rounds)
        for r, i in wanted:
            if r.metrics[i] is not None and r.metrics[i] != expected[r.items[i]]:
                failed += 1
        return failed


# ----------------------------------------------------------------------
# Sweep workloads (in-process, inline backend)
# ----------------------------------------------------------------------


class SweepWorkload(Workload):
    setup_repeats = 5  # a set-up is a quarter round: cheap, so take more
    batch_size: int | None = None

    def calls(self, scale: float) -> list[list]:
        """The spec list of every ``run_sweep`` call of one round."""
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        self.run_round(seed, 0, self.scale * WARM)

    def run_round(self, root_seed: int, rnd: int, scale: float | None = None) -> Round:
        from repro.sim import sweep

        tracer = self.tracer
        calls = self.calls(self.scale if scale is None else scale)
        items, metrics, latencies = [], [], []
        started = perf_counter()
        for op, specs in enumerate(calls):
            tracer.op = op
            t0 = perf_counter()
            result = tracer.call(
                "sim.sweep.run", sweep.run_sweep, specs,
                root_seed=root_seed, batch_size=self.batch_size,
            )
            latencies.append(perf_counter() - t0)
            for trial in result:
                items.append((trial.spec, root_seed))
                metrics.append(trial.metrics)
        wall = perf_counter() - started
        if tracer.active:
            for (spec, _), m in zip(items, metrics):
                tracer.count(f"msg_steps.{spec.simulator}", msg_steps(m))
        return Round(rnd, root_seed, wall, items, metrics, latencies, tracer.active)


class SweepBatched(SweepWorkload):
    name = "sweep_batched"
    oracle = staticmethod(serial_oracle)

    def calls(self, scale):
        return [_grid(model, _scaled(128, scale)) for model in SWEEP_MODELS]

    def sample(self, rnd):
        # The serial replay costs 1-34 ms a trial: one trial per model per
        # round, a different B and repeat each round.
        per_b = len(rnd.items) // (len(SWEEP_MODELS) * len(BS))
        return [
            (m * len(BS) + rnd.rnd % len(BS)) * per_b + rnd.rnd % per_b
            for m in range(len(SWEEP_MODELS))
        ]


class SweepSerial(SweepWorkload):
    name = "sweep_serial"
    batch_size = 1

    def calls(self, scale):
        return [[spec] for model in SWEEP_MODELS for spec in _grid(model, _scaled(5, scale))]


class SweepRestricted(SweepWorkload):
    name = "sweep_restricted"
    setup_repeats = 2

    def calls(self, scale):
        return [_grid("restricted", _scaled(32, scale))]

    def sample(self, rnd):
        # A lockstep call costs ~1.5 s at any width: replay two trials per B,
        # all rounds in one differently-composed batch.
        per_b = len(rnd.items) // len(BS)
        return [b * per_b + (rnd.rnd + k) % per_b for b in range(len(BS)) for k in (0, 1)]


# ----------------------------------------------------------------------
# Served workloads (tier subprocesses, closed loop)
# ----------------------------------------------------------------------


class ServedWorkload(Workload):
    tier_kind = "serve"
    mode = "exact"
    #: Closed-loop connections.  Two keep a tier that answers in microseconds
    #: busy.  The workloads whose requests *simulate* use one: with two, the
    #: batcher settles run by run into either coalescing both requests
    #: (occupancy 2, ~120 req/s) or alternating them (occupancy 1, ~90 req/s),
    #: and a metric that flips between two regimes cannot be held to a bound.
    max_connections = 2

    def __init__(self, scale, tracer):
        super().__init__(scale, tracer)
        # Load and tier width are sized to the box, never beyond it.
        self.connections = min(self.max_connections, env.nproc())
        self.workers = min(2, env.nproc())
        self.tier: Tier | None = None
        self.gen: Generator | None = None
        self.cpu_s = 0.0  # generator CPU over the timed rounds
        self.sample_lines: tuple[bytes, bytes] | None = None

    def requests(self, root_seed: int, scale: float) -> list[tuple]:
        """``(spec, root_seed)`` per request of one round."""
        raise NotImplementedError

    def spawn(self, seed: int) -> Tier:
        return Tier(self.tier_kind, workers=self.workers)

    def setup(self, seed: int) -> None:
        self.tier = self.spawn(seed)
        self.gen = Generator(self.tier.port, self.connections)
        self.run_round(seed, 0, self.scale * WARM)
        self.cpu_s = 0.0

    def teardown(self) -> None:
        gen, tier, self.gen, self.tier = self.gen, self.tier, None, None
        try:
            if gen is not None:
                gen.close()
        finally:
            if tier is not None:
                tier.stop()

    def peak_rss_mb(self) -> float:
        return super().peak_rss_mb() + self.tier.peak_rss_mb()

    def stats(self) -> dict:
        return self.gen.request({"op": "stats", "id": "perfbench"})

    def run_round(self, root_seed: int, rnd: int, scale: float | None = None) -> Round:
        from repro.service.protocol import RunRequest, encode_message

        items = self.requests(root_seed, self.scale if scale is None else scale)
        lines = [
            encode_message(
                RunRequest(id=f"r{rnd}-{i}", spec=spec, root_seed=rs, mode=self.mode).to_wire()
            )
            for i, (spec, rs) in enumerate(items)
        ]
        cpu0 = process_time()
        replies, starts, latencies, wall = self.gen.run(lines)
        self.cpu_s += process_time() - cpu0
        metrics, queue_ms, batched = [], [], []
        for i, raw in enumerate(replies):
            reply = json.loads(raw) if raw else {}
            good = reply.get("status") == "ok" and reply.get("id") == f"r{rnd}-{i}"
            metrics.append(reply["metrics"] if good else None)
            if good:
                queue_ms.append(float(reply.get("queue_ms", 0.0)))
                batched.append(int(reply.get("batched", 0)))
        if self.sample_lines is None and replies and replies[0]:
            self.sample_lines = (lines[0], replies[0])  # the warm-up's first exchange
        tracer = self.tracer
        if tracer.active:
            for i, (t0, lat) in enumerate(zip(starts, latencies)):
                tracer.add_span("service.client.request", t0, t0 + lat, i)
        extra = {"queue_ms": queue_ms, "batched": batched}
        return Round(rnd, root_seed, wall, items, metrics, latencies, tracer.active, extra)


class ServiceClosed(ServedWorkload):
    name = "service_closed"
    max_connections = 1

    def requests(self, root_seed, scale):
        n = _scaled(120, scale)
        return [(_spec("wormhole", BS[i % 3], i // 3), root_seed) for i in range(n)]


class ServiceEstimate(ServedWorkload):
    name = "service_estimate"
    mode = "estimate"
    oracle = staticmethod(estimate_oracle)

    def requests(self, root_seed, scale):
        n = _scaled(3000, scale)
        return [
            (_spec(SWEEP_MODELS[i % 4], BS[(i // 4) % 3], i // 12), root_seed)
            for i in range(n)
        ]


_CLUSTER_KEYS = [(m, L) for m in ("wormhole", "cut_through") for L in (8, 16, 24)]


def _cluster_item(i: int, root_seed: int) -> tuple:
    model, L = _CLUSTER_KEYS[i % 6]
    return _spec(model, BS[(i // 6) % 3], i // 18, L=L, small=True), root_seed


class ClusterCold(ServedWorkload):
    name = "cluster_cold"
    tier_kind = "cluster"
    setup_repeats = 2
    max_connections = 1

    def requests(self, root_seed, scale):
        return [_cluster_item(i, root_seed) for i in range(_scaled(108, scale))]


class ClusterWarm(ServedWorkload):
    name = "cluster_warm"
    tier_kind = "cluster"
    setup_repeats = 2
    ENTRIES = 144

    def spawn(self, seed):
        from repro.sim.sweep import run_sweep

        # The working set is fixed at set-up: every round re-reads the
        # entries stored here under root seed ``seed``.
        self.seed = seed
        cache_dir = env.run_dir() / f"warm-cache-{monotonic_ns()}"
        specs = [_cluster_item(i, seed)[0] for i in range(self.ENTRIES)]
        run_sweep(specs, root_seed=seed, cache_dir=cache_dir)
        return Tier("cluster", workers=self.workers, cache_dir=cache_dir)

    def run_round(self, root_seed, rnd, scale=None):
        return super().run_round(self.seed, rnd, scale)

    def requests(self, root_seed, scale):
        n = _scaled(6000, scale)
        return [_cluster_item(i % self.ENTRIES, root_seed) for i in range(n)]


WORKLOADS = {
    cls.name: cls
    for cls in (
        SweepBatched, SweepSerial, SweepRestricted,
        ServiceClosed, ServiceEstimate, ClusterCold, ClusterWarm,
    )
}
