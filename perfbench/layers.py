"""Per-layer metrics of the traced pass.

Three sources, all outside the program: spans the :class:`~perfbench.spans
.Tracer` recorded around calls into each layer, the tiers' own ``stats`` op
(as a delta over the measured window), and direct timing of public functions
on the workload's own inputs.  Every time is as measured: the host's
slowdown is not taken out here, ``trace.host_slowdown`` reports it.  A metric
whose layer a workload does not exercise is reported as 0: the simulator
layers are only visible in-process, so ``sim.*`` and ``exec.*_s`` are
non-zero on the sweep workloads only, and a served workload's in-tier
compute appears as ``service.server.compute_ms_mean``.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

from . import env
from .spans import MODELS, Tracer
from .workloads import CHAIN, Round, ServedWorkload, SweepSerial, Workload


def quantile(values: list[float], q: float) -> float:
    return float(np.quantile(values, q))  # linear interpolation


def median_us(fn, inputs, repeats: int = 1) -> float:
    """Median microseconds of ``fn(x)`` over ``inputs`` (each ``repeats`` times)."""
    samples = []
    for x in inputs:
        for _ in range(repeats):
            t0 = perf_counter()
            fn(x)
            samples.append(perf_counter() - t0)
    return statistics.median(samples) * 1e6


def layer_metrics(
    wl: Workload, rounds: list[Round], tracer: Tracer, host_slowdown: float
) -> dict[str, float]:
    out: dict[str, float] = {}
    _span_layers(out, tracer)
    if isinstance(wl, SweepSerial):
        _exec_backends(out, tracer)
        _facade(out)
    if isinstance(wl, ServedWorkload):
        _served_layers(out, wl, rounds)
    # What the caller saw, as measured (median over the untraced rounds): the
    # tail is reported here and not gated, it does not repeat on a shared box.
    untraced = [r for r in rounds if not r.traced] or rounds
    for name, q in (("client.latency_p50_ms", 0.50), ("client.latency_p95_ms", 0.95)):
        out[name] = statistics.median(quantile(r.latencies, q) for r in untraced) * 1e3
    traced = [r.ok / r.wall for r in rounds if r.traced]
    plain = [r.ok / r.wall for r in rounds if not r.traced]
    out["trace.spans"] = tracer.total_spans
    out["trace.overhead_share"] = (
        1.0 - statistics.median(traced) / statistics.median(plain) if plain else 0.0
    )
    out["trace.host_slowdown"] = host_slowdown
    return out


# ----------------------------------------------------------------------
# From spans (in-process layers)
# ----------------------------------------------------------------------


def _ratio_ns(tracer: Tracer, span: str, counter: str) -> float:
    """Median over traced rounds of busy nanoseconds per counted unit."""
    values = [
        r["agg"][span][1] * 1e9 / r["extra"][counter]
        for r in tracer.rounds
        if span in r["agg"] and r["extra"].get(counter)
    ]
    return statistics.median(values) if values else 0.0


def _span_layers(out: dict, tracer: Tracer) -> None:
    grant = "sim.fastpath.grant"
    out["sim.fastpath.grant_calls"] = tracer.calls(grant)
    out["sim.fastpath.grant_busy_s"] = tracer.busy_s(grant)
    out["sim.fastpath.grant_ns_per_slot"] = _ratio_ns(tracer, grant, "grant_slots")
    for model in MODELS:
        kernel = f"sim.kernels.{model}"
        out[f"{kernel}.body_calls"] = tracer.calls(kernel)
        out[f"{kernel}.busy_s"] = tracer.busy_s(kernel)
        out[f"{kernel}.self_s"] = tracer.self_s(kernel)
        out[f"{kernel}.ns_per_msg_step"] = _ratio_ns(tracer, kernel, f"msg_steps.{model}")
        batch = f"sim.batch.{model}"
        calls = tracer.calls(batch)
        out[f"{batch}.calls"] = calls
        out[f"{batch}.busy_s"] = tracer.busy_s(batch)
        out[f"{batch}.self_s"] = tracer.self_s(batch)
        out[f"{batch}.trials_per_call"] = (
            tracer.extra(f"batch_trials.{model}") / calls if calls else 0.0
        )
    run = "sim.sweep.run"
    out["sim.sweep.run_calls"] = tracer.calls(run)
    out["sim.sweep.busy_s"] = tracer.busy_s(run)
    out["sim.sweep.self_s"] = tracer.self_s(run)
    out["sim.sweep.units"] = tracer.extra("exec_units")
    out["sim.sweep.trial_seed_us_p50"] = tracer.sample_p50_us("sim.sweep.trial_seed")
    out["exec.map_calls"] = tracer.calls("exec.map")
    out["exec.busy_s"] = tracer.busy_s("exec.map")
    out["exec.self_s"] = tracer.self_s("exec.map")
    out["exec.retries"] = tracer.extra("exec_retries")
    out["exec.worker_restarts"] = tracer.extra("exec_worker_restarts")


# ----------------------------------------------------------------------
# Direct probes on the T=1 path (sweep_serial only)
# ----------------------------------------------------------------------


def _exec_backends(out: dict, tracer: Tracer) -> None:
    """Per-unit dispatch overhead of the three backends on real work units.

    The units are ones ``run_sweep`` itself handed to ``backend.map`` during
    the traced rounds; the 16 cheapest are replayed so dispatch, not compute,
    dominates.  Overhead = best wall per unit through the backend minus best
    wall per unit called directly; with two pool workers it can be negative.
    """
    from repro.exec import create_backend

    if not tracer.captured_units:
        return
    fn = tracer.captured_units[0][0]
    timed = []
    for _, unit in tracer.captured_units:
        t0 = perf_counter()
        fn(unit)
        timed.append((perf_counter() - t0, len(timed), unit))
    units = [unit for _, _, unit in sorted(timed)[:16]]
    backends = {n: create_backend(n, workers=2) for n in ("inline", "thread", "process")}
    walls: dict[str, list[float]] = {n: [] for n in ("direct", *backends)}
    try:
        for backend in backends.values():
            backend.map(fn, units[:2])  # pools up, imports done
        for _ in range(5):  # interleaved, so drift hits every side alike
            t0 = perf_counter()
            for unit in units:
                fn(unit)
            walls["direct"].append(perf_counter() - t0)
            for name, backend in backends.items():
                t0 = perf_counter()
                backend.map(fn, units)
                walls[name].append(perf_counter() - t0)
    finally:
        for backend in backends.values():
            backend.close()
    for name in backends:
        out[f"exec.{name}.unit_overhead_us"] = (
            (min(walls[name]) - min(walls["direct"])) / len(units) * 1e6
        )


def _facade(out: dict) -> None:
    """``simulate(...)`` against the T=1 batch runner it ends up calling."""
    from repro import simulate
    from repro.sim.batch import run_wormhole_batch
    from repro.sim.sweep import WORKLOADS

    wl = WORKLOADS["chain-bundle"](**CHAIN)
    padded = wl.padded_paths()
    facade, direct = [], []
    for seed in range(15):
        t0 = perf_counter()
        simulate(wl, model="wormhole", B=2, message_length=24, seed=seed)
        facade.append(perf_counter() - t0)
        t0 = perf_counter()
        run_wormhole_batch(wl.net, padded, 24, seeds=[seed], num_virtual_channels=2)
        direct.append(perf_counter() - t0)
    out["facade.simulate_overhead_us"] = (
        statistics.median(facade) - statistics.median(direct)
    ) * 1e6


# ----------------------------------------------------------------------
# Served tiers: the stats op, response fields, direct probes
# ----------------------------------------------------------------------


def _server_view(stats_list: list[dict]) -> dict:
    """Summable view of one or more ``repro serve`` stats snapshots."""
    view = dict.fromkeys(
        ("count", "lat_sum_ms", "batches", "batch_trials", "rejected", "errors",
         "protocol_errors", "submitted", "retried", "restarts"), 0.0,
    )
    view["queue_peak"] = 0
    p50s = []
    for s in stats_list:
        lat, c, ex = s["latency_ms"], s["counters"], s.get("exec", {})
        view["count"] += lat["count"]
        view["lat_sum_ms"] += lat["mean"] * lat["count"]
        view["batches"] += s["batches"]["count"]
        view["batch_trials"] += s["batches"]["total"]
        view["rejected"] += sum(v for k, v in c.items() if k.startswith("rejected_"))
        view["errors"] += c["errors"]
        view["protocol_errors"] += c["protocol_errors"]
        view["submitted"] += ex.get("submitted", 0)
        view["retried"] += ex.get("retried", 0)
        view["restarts"] += ex.get("worker_restarts", 0)
        view["queue_peak"] = max(view["queue_peak"], s["queue"]["peak"])
        if lat["count"]:
            p50s.append(lat["p50"])
    view["p50"] = statistics.median(p50s) if p50s else 0.0
    return view


def _delta(before: dict, after: dict, key: str) -> float:
    return after[key] - before[key]


def _mean_ms(before: dict, after: dict) -> float:
    n = _delta(before, after, "count")
    return _delta(before, after, "lat_sum_ms") / n if n else 0.0


def _served_layers(out: dict, wl: ServedWorkload, rounds: list[Round]) -> None:
    cluster = wl.tier_kind == "cluster"
    s0, s1 = wl.stats0, wl.stats1
    servers0 = [w for w in s0["workers"] if w] if cluster else [s0]
    servers1 = [w for w in s1["workers"] if w] if cluster else [s1]
    v0, v1 = _server_view(servers0), _server_view(servers1)

    latencies = [lat for r in rounds for lat in r.latencies]
    client_ms = statistics.fmean(latencies) * 1000.0
    queue_ms = [q for r in rounds for q in r.extra["queue_ms"]] or [0.0]
    queue_mean = statistics.fmean(queue_ms)
    server_ms = _mean_ms(v0, v1)
    batches = _delta(v0, v1, "batches")
    occupancy = _delta(v0, v1, "batch_trials") / batches if batches else 0.0

    out["service.client.cpu_share"] = wl.cpu_s / sum(r.wall for r in rounds)
    out["service.client.connect_ms"] = wl.gen.connect_ms
    _protocol(out, wl)

    out["service.admission.queue_peak"] = v1["queue_peak"]
    out["service.admission.rejected"] = _delta(v0, v1, "rejected")
    out["service.batcher.batches"] = batches
    out["service.batcher.occupancy_mean"] = occupancy
    out["service.batcher.queue_wait_ms_mean"] = queue_mean
    out["service.batcher.queue_wait_ms_p95"] = quantile(queue_ms, 0.95)
    out["exec.map_calls"] = _delta(v0, v1, "submitted")
    out["exec.retries"] = _delta(v0, v1, "retried")
    out["exec.worker_restarts"] = _delta(v0, v1, "restarts")

    # What the server's own time should be: the batch it executed, timed
    # directly in-process at the occupancy it actually ran at.
    if wl.mode == "estimate":
        from repro.analysis.estimate import estimate_spec

        specs = list(dict.fromkeys(spec for spec, _ in rounds[0].items))[:200]
        spec_us = median_us(estimate_spec, specs)
        out["analysis.estimate.calls"] = sum(r.ok for r in rounds)
        out["analysis.estimate.spec_us_p50"] = spec_us
        compute_ms = spec_us / 1000.0
    elif batches:
        w1, w8 = _execute_probe(rounds[0])
        out["service.batcher.execute_ms_per_req.t1"] = w1
        out["service.batcher.execute_ms_per_req.t8"] = w8 / 8.0
        compute_ms = w1 + (w8 - w1) * (max(occupancy, 1.0) - 1.0) / 7.0
    else:
        compute_ms = 0.0  # every answer came from the cache
    out["service.server.latency_ms_mean"] = server_ms
    out["service.server.latency_ms_p50"] = v1["p50"]
    out["service.server.compute_ms_mean"] = compute_ms
    out["service.server.errors"] = _delta(v0, v1, "errors")
    out["service.server.protocol_errors"] = _delta(v0, v1, "protocol_errors")
    # client mean = hop + queue wait + compute + unattributed (+ router terms)
    out["service.server.unattributed_ms"] = (
        server_ms - queue_mean - compute_ms if _delta(v0, v1, "count") else 0.0
    )
    if not cluster:
        out["service.server.hop_ms_mean"] = client_ms - server_ms
        return

    router_ms = _mean_ms(*(
        {"count": s["latency_ms"]["count"],
         "lat_sum_ms": s["latency_ms"]["mean"] * s["latency_ms"]["count"]}
        for s in (s0, s1)
    ))
    c0, c1 = s0["counters"], s1["counters"]
    completed = (c1["completed"] - c0["completed"]) or 1
    forwarded = c1["forwarded"] - c0["forwarded"]
    out["cluster.router.latency_ms_mean"] = router_ms
    out["cluster.router.hop_ms_mean"] = client_ms - router_ms
    out["cluster.router.forwarded"] = forwarded
    out["cluster.router.forward_retries"] = c1["forward_retries"] - c0["forward_retries"]
    out["cluster.router.cache_served"] = c1["cache_served"] - c0["cache_served"]
    out["cluster.router.rejected"] = sum(
        c1[k] - c0[k] for k in ("rejected_draining", "rejected_unavailable")
    )
    out["cluster.worker.latency_ms_mean"] = server_ms
    out["cluster.worker.occupancy_mean"] = occupancy
    out["cluster.worker.restarts"] = (
        s1["tier"]["worker_restarts"] - s0["tier"]["worker_restarts"]
    )
    out["cluster.worker.spawn_s"] = wl.tier.spawn_s

    k0, k1 = s0["cache"], s1["cache"]
    hits = k1["cache_hits"] - k0["cache_hits"]
    loads = hits + k1["cache_misses"] - k0["cache_misses"]
    stores = k1["cache_stores"] - k0["cache_stores"]
    out["cache.loads"] = loads
    out["cache.stores"] = stores
    out["cache.hit_share"] = hits / loads if loads else 0.0
    _cache_probe(out, rounds[0])
    _hashing_probe(out, wl, rounds[0])
    # router mean = its share of worker time + cache + hashing + unattributed
    out["cluster.router.unattributed_ms"] = router_ms - (
        forwarded / completed * server_ms
        + loads / completed * out["cache.load_us_p50"] / 1000.0
        + stores / completed * out["cache.store_us_p50"] / 1000.0
        + forwarded / completed * out["cluster.hashing.node_for_us_p50"] / 1000.0
    )


def _protocol(out: dict, wl: ServedWorkload) -> None:
    """The wire functions on one captured request line and its response."""
    from repro.service import protocol

    request_line, response_line = wl.sample_lines
    request = protocol.decode_message(request_line)
    response = json.loads(response_line)
    out["service.protocol.encode_us_p50"] = median_us(protocol.encode_message, [response], 200)
    out["service.protocol.decode_us_p50"] = median_us(protocol.decode_message, [request_line], 200)
    out["service.protocol.parse_run_us_p50"] = median_us(protocol.parse_run_request, [request], 200)
    out["service.protocol.request_bytes"] = len(request_line)
    out["service.protocol.response_bytes"] = len(response_line)


def _execute_probe(rnd: Round) -> tuple[float, float]:
    """Wall milliseconds of one in-process lockstep call at 1 and 8 items,
    averaged over the round's compat keys (each carries an equal share).
    The single-item figure is the mean over the key's first three requests,
    which cover the B mix."""
    from repro.service.batcher import execute_compatible
    from repro.sim.batch import batch_compat_key

    groups: dict = {}
    for item in rnd.items:
        groups.setdefault(batch_compat_key(item[0]), []).append(item)
    w1, w8 = [], []
    for items in groups.values():
        items = items[:8]
        while len(items) < 8:  # smoke-sized rounds: pad with further root seeds
            spec, rs = items[-1]
            items.append((spec, rs + 1))
        w1 += [median_us(execute_compatible, [[item]], 3) / 1000.0 for item in items[:3]]
        w8.append(median_us(execute_compatible, [items], 3) / 1000.0)
    return statistics.fmean(w1), statistics.fmean(w8)


def _cache_probe(out: dict, rnd: Round) -> None:
    """``ResultCache.store`` / ``.load`` on a fresh directory, real entries."""
    from repro.cache import ResultCache

    cache = ResultCache(env.run_dir() / "probe-cache")
    entries = [
        (spec.cache_key(rs), spec.key(), m, rs)
        for (spec, rs), m in zip(rnd.items, rnd.metrics)
        if m is not None
    ][:100]
    out["cache.store_us_p50"] = median_us(lambda e: cache.store(*e), entries)
    out["cache.load_us_p50"] = median_us(lambda e: cache.load(e[0], e[1]), entries)


def _hashing_probe(out: dict, wl: ServedWorkload, rnd: Round) -> None:
    """``HashRing.node_for`` on the round's shard keys, and how evenly the
    round's requests spread over the worker slots."""
    from repro.cluster.hashing import HashRing
    from repro.sim.batch import batch_compat_key

    ring = HashRing(range(wl.workers))
    keys = [repr(batch_compat_key(spec)) for spec, _ in rnd.items]
    out["cluster.hashing.node_for_us_p50"] = median_us(ring.node_for, keys[:200], 3)
    slots = [ring.node_for(key) for key in keys]
    out["cluster.hashing.max_slot_share"] = max(
        slots.count(s) for s in set(slots)
    ) / len(slots)
