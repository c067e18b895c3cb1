"""Shared fixtures for the repro test suite."""

import errno
import os

import numpy as np
import pytest

from repro.network.butterfly import Butterfly
from repro.network.graph import Network
from repro.network.random_networks import layered_network, random_walk_paths
from repro.routing.paths import paths_from_node_walks
from repro.sim.batch import run_model
from repro.sim.continuous import ContinuousResult, draw_arrivals, open_loop_streams
from repro.sim.spec import Workload


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_line():
    """A 5-node directed line a->b->c->d->e."""
    net = Network(name="line5")
    nodes = net.add_nodes(["a", "b", "c", "d", "e"])
    for u, v in zip(nodes[:-1], nodes[1:]):
        net.add_edge(u, v)
    return net


@pytest.fixture
def butterfly8():
    return Butterfly(8)


@pytest.fixture
def layered_workload(rng):
    """A modest layered network with 60 random-walk paths."""
    net = layered_network(width=8, depth=6, out_degree=2, rng=rng)
    walks = random_walk_paths(net, 8, 6, 60, rng)
    return net, paths_from_node_walks(net, walks)


@pytest.fixture
def run_schedule():
    """``run(net, paths, build, B)``: the schedule ``build`` released on
    ``(net, paths)`` (:meth:`~repro.core.scheduler.ScheduleBuild.apply`)
    as one wormhole trial at ``B``.  The expectation table judges the
    run and must find no violation; its ``schedule`` row (Theorem 2.1.6:
    unblocked, within ``length_bound``) must be among the rows applied."""
    from repro import simulate
    from repro.fuzz.expectations import evaluate

    def run(net, paths, build, B):
        wl = build.apply(Workload(net, paths), B)
        result = simulate(wl, B=B)
        verdicts = evaluate(result, wl, model="wormhole", B=B)
        assert "schedule" in {row.name for row, _ in verdicts}
        assert [v for _, v in verdicts if v] == []
        return result

    return run


@pytest.fixture(scope="session")
def open_loop():
    """``run(net, num_sources, Bs, rate, L, path_of, horizon, seed,
    sample_every=50) -> (reports, completion times)``: one open-loop
    trace at a constant ``rate``, run at every ``B`` of ``Bs`` in one
    lockstep wormhole call for ``horizon`` steps; one
    :class:`ContinuousResult` and one completion-time array per ``B``."""

    def run(net, num_sources, Bs, rate, L, path_of, horizon, seed, sample_every=50):
        arrivals, routes, arbitration = open_loop_streams(seed)
        release, sources, paths = draw_arrivals(
            np.full(horizon, rate), num_sources, path_of, arrivals, routes
        )
        wl = Workload(
            net=net, paths=paths, default_length=L,
            release_times=release, sources=sources,
        )
        runs = run_model(
            "wormhole", wl, L, seeds=[arbitration] * len(Bs), B=list(Bs),
            max_steps=horizon,
        )
        completions = [run.completion_times for run in runs]
        reports = [
            ContinuousResult.of(release, c, horizon, sample_every) for c in completions
        ]
        return reports, completions

    return run


@pytest.fixture
def full_cache_disk(monkeypatch):
    """Cache entries are refused as by a full disk, after the temp write."""
    real_replace = os.replace

    def replace(src, dst):
        if str(dst).endswith(".json"):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(dst))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
