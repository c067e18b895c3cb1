"""Shared fixtures for the repro test suite."""

import errno
import os

import numpy as np
import pytest

from repro.network.butterfly import Butterfly
from repro.network.graph import Network
from repro.network.random_networks import layered_network, random_walk_paths
from repro.routing.paths import paths_from_node_walks


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
def full_cache_disk(monkeypatch):
    """Cache entries are refused as by a full disk, after the temp write."""
    real_replace = os.replace

    def replace(src, dst):
        if str(dst).endswith(".json"):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(dst))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
