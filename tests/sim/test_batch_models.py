"""Batch-vs-serial bit-exactness for the non-wormhole lockstep runners.

Companion to ``test_batch.py`` (which pins ``run_wormhole_batch``):
every other entry of :data:`repro.sim.batch.LOCKSTEP_MODELS` — cut
through, store-and-forward, restricted, adaptive — must produce trials
bit-identical to its one-seed driver call with the same ``(B, seed)``.
On top of the per-model suites, the degenerate shapes every kernel must
survive are covered across models: ``T = 1`` batches, mixed message
lengths at the padding boundary, all-deadlocked batches, and per-trial
step-cap masking.
"""

import asyncio
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_cases import _layered_workload, _ring, _stagger
from repro import simulate
from repro.core import (
    ButterflyRouter,
    ColorClassSchedule,
    random_delay_release,
    route_online_random_delays,
    route_permutation_benes,
    route_q_relation_benes,
)
from repro.network.butterfly import Butterfly
from repro.network.graph import Network, NetworkError
from repro.network.mesh import KAryNCube
from repro.network.multibutterfly import Multibutterfly
from repro.routing.problems import random_permutation
from repro.sim import batch as batch_module
from repro.sim.batch import (
    LOCKSTEP_MODELS,
    default_step_cap,
    run_adaptive_batch,
    run_cut_through_batch,
    run_restricted_batch,
    run_store_forward_batch,
)
from repro.sim.circuit import circuit_switch_butterfly
from repro.sim.spec import Workload
from repro.sim.sweep import SIMULATORS, TrialSpec, run_sweep
from repro.service.protocol import ProtocolError, parse_run_request
from repro.telemetry.probe import Probe


def _assert_equal(batch_res, serial_res, label=""):
    assert np.array_equal(
        batch_res.completion_times, serial_res.completion_times
    ), label
    assert batch_res.makespan == serial_res.makespan, label
    assert batch_res.steps_executed == serial_res.steps_executed, label
    assert np.array_equal(
        batch_res.blocked_steps, serial_res.blocked_steps
    ), label
    assert batch_res.deadlocked == serial_res.deadlocked, label
    assert batch_res.hit_step_cap == serial_res.hit_step_cap, label


def _check_cut_through(net, paths, L, trials, priority="random", **kw):
    batch = run_cut_through_batch(
        net, paths, L,
        seeds=[s for _, s in trials],
        buffer_flits=[B for B, _ in trials],
        priority=priority, **kw,
    )
    assert len(batch) == len(trials)
    for res, (B, seed) in zip(batch, trials):
        (serial,) = run_cut_through_batch(
            net, paths, L, seeds=[seed], buffer_flits=B, priority=priority, **kw
        )
        _assert_equal(res, serial, f"cut_through B={B} seed={seed}")
    return batch


def _check_store_forward(net, paths, L, trials, priority="farthest", **kw):
    batch = run_store_forward_batch(
        net, paths, L,
        seeds=[s for _, s in trials],
        bandwidth_flits_per_step=[B for B, _ in trials],
        priority=priority, **kw,
    )
    assert len(batch) == len(trials)
    for res, (B, seed) in zip(batch, trials):
        (serial,) = run_store_forward_batch(
            net, paths, L, seeds=[seed], bandwidth_flits_per_step=B,
            priority=priority, **kw,
        )
        _assert_equal(res, serial, f"store_forward B={B} seed={seed}")
        assert res.extra["max_queue"] == serial.extra["max_queue"]
        assert res.extra["message_step_flits"] == serial.extra[
            "message_step_flits"
        ]
    return batch


def _check_restricted(net, paths, L, trials, **kw):
    batch = run_restricted_batch(
        net, paths, L,
        seeds=[s for _, s in trials],
        num_buffers=[B for B, _ in trials],
        **kw,
    )
    assert len(batch) == len(trials)
    for res, (B, seed) in zip(batch, trials):
        (serial,) = run_restricted_batch(
            net, paths, L, seeds=[seed], num_buffers=B, **kw
        )
        _assert_equal(res, serial, f"restricted B={B} seed={seed}")
    return batch


def _check_adaptive(cube, demands, L, trials, policy="west-first", **kw):
    batch = run_adaptive_batch(
        cube, demands, L,
        seeds=[s for _, s in trials],
        num_virtual_channels=[B for B, _ in trials],
        policy=policy, **kw,
    )
    assert len(batch) == len(trials)
    for run, (B, seed) in zip(batch, trials):
        (serial,) = run_adaptive_batch(
            cube, demands, L, seeds=[seed], num_virtual_channels=B,
            policy=policy, **kw,
        )
        _assert_equal(
            run.result, serial.result, f"adaptive B={B} seed={seed}"
        )
        assert run.taken_paths == serial.taken_paths, (
            f"adaptive routes diverged at B={B} seed={seed}"
        )
    return batch


@pytest.fixture(scope="module")
def layered():
    return _layered_workload()


@pytest.fixture(scope="module")
def mesh():
    cube = KAryNCube(5, 2, wrap=False)
    perm = np.random.default_rng(77).permutation(cube.num_nodes)
    demands = [(int(s), int(perm[s])) for s in range(cube.num_nodes)]
    return cube, demands


# ----------------------------------------------------------------------
# Per-model suites: mixed B / seeds, priorities, staggered releases
# ----------------------------------------------------------------------


@pytest.mark.parametrize("priority", ["random", "index"])
def test_cut_through_priorities_mixed_B_and_seeds(layered, priority):
    net, paths = layered
    trials = [(B, seed) for B in (1, 2, 4) for seed in (9, 17)]
    _check_cut_through(net, paths, 8, trials, priority=priority)


def test_cut_through_staggered_releases(layered):
    net, paths = layered
    _check_cut_through(
        net, paths, 6, [(1, 4), (2, 4), (2, 11)],
        release_times=_stagger(len(paths)),
    )


@pytest.mark.parametrize("priority", ["random", "age", "farthest"])
def test_store_forward_priorities_mixed_B_and_seeds(layered, priority):
    net, paths = layered
    trials = [(B, seed) for B in (1, 2, 4) for seed in (9, 17)]
    _check_store_forward(net, paths, 8, trials, priority=priority)


def test_store_forward_staggered_releases_and_delay(layered):
    """Per-trial RNG delays must replay in serial draw order."""
    net, paths = layered
    _check_store_forward(
        net, paths, 6, [(1, 4), (2, 4), (2, 11)],
        release_times=_stagger(len(paths)), delay_range=3,
    )


def test_restricted_mixed_B_and_seeds(layered):
    net, paths = layered
    trials = [(B, seed) for B in (1, 2, 4) for seed in (9, 17)]
    _check_restricted(net, paths, 8, trials)


def test_restricted_staggered_releases(layered):
    net, paths = layered
    _check_restricted(
        net, paths, 6, [(1, 4), (2, 4), (2, 11)],
        release_times=_stagger(len(paths)),
    )


@pytest.mark.parametrize(
    "policy", ["dimension", "west-first", "fully-adaptive"]
)
def test_adaptive_policies_mixed_B_and_seeds(mesh, policy):
    cube, demands = mesh
    trials = [(B, seed) for B in (1, 2) for seed in (9, 17)]
    _check_adaptive(cube, demands, 5, trials, policy=policy)


def test_adaptive_staggered_releases(mesh):
    cube, demands = mesh
    _check_adaptive(
        cube, demands, 4, [(2, 4), (2, 11), (1, 4)],
        release_times=_stagger(len(demands)),
    )


# ----------------------------------------------------------------------
# Degenerate batch shapes, across models
# ----------------------------------------------------------------------


def test_batches_of_one(layered, mesh):
    """T=1 batches: the lockstep path with nothing to amortize."""
    net, paths = layered
    cube, demands = mesh
    _check_cut_through(net, paths, 8, [(2, 42)])
    _check_store_forward(net, paths, 8, [(2, 42)])
    _check_restricted(net, paths, 8, [(2, 42)])
    _check_adaptive(cube, demands, 5, [(2, 42)])


def test_mixed_message_lengths_at_padding_boundary():
    """Per-message L on ragged paths (incl. empty) must pad identically.

    ``cut_through`` and ``restricted`` accept per-message lengths; the
    path set mixes the full line, single edges, and a zero-hop message
    so the padded ``(M, max_len)`` matrix has live cells flush against
    the padding in every row.
    """
    net = Network()
    nodes = net.add_nodes(range(6))
    edges = [net.add_edge(nodes[i], nodes[i + 1]) for i in range(5)]
    paths = [edges[:5], edges[:1], [], edges[1:4], edges[2:3]]
    L = np.array([4, 2, 3, 5, 1], dtype=np.int64)
    _check_cut_through(net, paths, L, [(1, 3), (2, 3), (1, 8)])
    _check_restricted(net, paths, L, [(1, 3), (2, 3), (1, 8)])
    # store-and-forward advances whole packets on a scalar L.
    _check_store_forward(net, paths, 4, [(1, 3), (2, 3), (1, 8)])


def test_all_deadlocked_batch():
    """A batch with no live trial must settle exactly like serial runs."""
    net, _, paths = _ring(4)
    for res in _check_cut_through(net, paths, 6, [(1, 0), (2, 5)]):
        assert res.deadlocked and not res.all_delivered
    for res in _check_restricted(net, paths, 6, [(1, 0), (2, 5)]):
        assert res.deadlocked and not res.all_delivered


def test_deadlocked_trial_mixed_with_live_trial():
    """fully-adaptive at B=1 can wedge; a live co-trial must not notice."""
    cube = KAryNCube(3, 2, wrap=False)
    # Four worms turning around a unit square: a classic cyclic wait.
    corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
    ids = [cube.node(c) for c in corners]
    demands = [(ids[i], ids[(i + 2) % 4]) for i in range(4)]
    batch = run_adaptive_batch(
        cube, demands, 4, seeds=[0, 1, 2],
        num_virtual_channels=[1, 1, 4], policy="fully-adaptive",
    )
    for run, (B, seed) in zip(batch, [(1, 0), (1, 1), (4, 2)]):
        (serial,) = run_adaptive_batch(
            cube, demands, 4, seeds=[seed], num_virtual_channels=B,
            policy="fully-adaptive",
        )
        _assert_equal(run.result, serial.result, f"B={B} seed={seed}")


def test_per_trial_step_cap_masking(layered):
    """A shared cap must freeze each trial at its own step budget."""
    net, _, paths = _ring(5)
    batch = _check_cut_through(
        net, paths, 4, [(1, 2), (2, 2), (4, 2)], max_steps=4
    )
    assert any(res.hit_step_cap or res.deadlocked for res in batch)
    batch = _check_restricted(
        net, paths, 4, [(1, 2), (2, 2), (4, 2)], max_steps=4
    )
    assert any(res.hit_step_cap or res.deadlocked for res in batch)
    # Store-and-forward counts the cap in message steps, which scale
    # with per-trial bandwidth: the same cap masks trials differently.
    net2, paths2 = layered
    batch = _check_store_forward(
        net2, paths2, 9, [(1, 2), (2, 2), (4, 2)], max_steps=3
    )
    assert any(res.hit_step_cap for res in batch)


def test_idle_trial_whose_release_exceeds_the_cap(layered):
    """Serial jumps the clock past the cap; batches must finalize alike."""
    net, paths = layered
    release = np.full(len(paths), 100, dtype=np.int64)
    _check_cut_through(
        net, paths, 6, [(2, 1), (1, 3)], release_times=release, max_steps=50
    )
    _check_restricted(
        net, paths, 6, [(2, 1), (1, 3)], release_times=release, max_steps=50
    )


def test_empty_workload(layered):
    net, _ = layered
    for runner in (
        run_cut_through_batch, run_store_forward_batch, run_restricted_batch
    ):
        out = runner(net, [], 8, seeds=[0, 1])
        assert len(out) == 2
        for res in out:
            assert res.num_messages == 0 and res.makespan == -1
    cube = KAryNCube(3, 2, wrap=False)
    out = run_adaptive_batch(cube, [], 4, seeds=[0, 1])
    assert len(out) == 2
    for run in out:
        assert run.result.num_messages == 0 and run.taken_paths == []


def test_validation_errors(layered):
    net, paths = layered
    cube = KAryNCube(3, 2, wrap=False)
    with pytest.raises(NetworkError, match="seeds"):
        run_cut_through_batch(net, paths, 8, seeds=[])
    with pytest.raises(NetworkError, match="buffer"):
        run_cut_through_batch(net, paths, 8, seeds=[0], buffer_flits=0)
    with pytest.raises(NetworkError, match="priority"):
        run_cut_through_batch(net, paths, 8, seeds=[0], priority="age")
    with pytest.raises(NetworkError, match="bandwidth"):
        run_store_forward_batch(
            net, paths, 8, seeds=[0], bandwidth_flits_per_step=0
        )
    with pytest.raises(NetworkError, match="one entry per trial"):
        run_store_forward_batch(
            net, paths, 8, seeds=[0, 1], bandwidth_flits_per_step=[1, 2, 3]
        )
    with pytest.raises(NetworkError, match="buffer"):
        run_restricted_batch(net, paths, 8, seeds=[0], num_buffers=0)
    with pytest.raises(NetworkError, match="policy"):
        run_adaptive_batch(cube, [(0, 8)], 4, seeds=[0], policy="nope")
    with pytest.raises(NetworkError, match="virtual channel"):
        run_adaptive_batch(
            cube, [(0, 8)], 4, seeds=[0], num_virtual_channels=0
        )


@pytest.mark.parametrize(
    "model",
    [name for name, spec in LOCKSTEP_MODELS.items() if spec.kind == "paths"],
)
@pytest.mark.parametrize("T", [1, 2])
@pytest.mark.parametrize("edge", ["num_edges", -3])
def test_a_route_naming_a_missing_edge_is_rejected(model, T, edge):
    """Not a deadlock, a delivery or an IndexError: a route over an edge
    the network does not have is a bad problem."""
    net, _ = _line_net(3)
    bad = net.num_edges if edge == "num_edges" else edge
    with pytest.raises(NetworkError, match=f"message 0 names edge {bad}"):
        LOCKSTEP_MODELS[model].driver(net, [[0, bad]], 2, seeds=range(T))


def test_a_missing_edge_is_rejected_through_the_facade():
    net, _ = _line_net(3)
    with pytest.raises(NetworkError, match="names edge 9"):
        simulate((net, [[0], [0, 9]]), model="wormhole", message_length=2)


# ----------------------------------------------------------------------
# Randomized equivalence sweeps
# ----------------------------------------------------------------------


def _line_net(num_edges):
    net = Network()
    nodes = net.add_nodes(range(num_edges + 1))
    edges = [net.add_edge(nodes[i], nodes[i + 1]) for i in range(num_edges)]
    return net, edges


def _draw_line_case(data):
    num_edges = data.draw(st.integers(2, 8), label="edges")
    net, edges = _line_net(num_edges)
    M = data.draw(st.integers(1, 7), label="messages")
    paths = []
    for _ in range(M):
        a = data.draw(st.integers(0, num_edges - 1))
        b = data.draw(st.integers(a, num_edges))
        paths.append(edges[a:b])
    T = data.draw(st.integers(1, 5), label="batch")
    trials = [
        (data.draw(st.integers(1, 3)), data.draw(st.integers(0, 999)))
        for _ in range(T)
    ]
    release = np.array(
        [data.draw(st.integers(0, 12)) for _ in range(M)], dtype=np.int64
    )
    max_steps = data.draw(st.one_of(st.none(), st.integers(1, 30)), label="cap")
    return net, paths, trials, release, max_steps


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_random_cut_through_matches_serial(data):
    net, paths, trials, release, max_steps = _draw_line_case(data)
    L = data.draw(st.integers(1, 6), label="L")
    priority = data.draw(st.sampled_from(["random", "index"]), label="priority")
    _check_cut_through(
        net, paths, L, trials,
        priority=priority, release_times=release, max_steps=max_steps,
    )


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_random_store_forward_matches_serial(data):
    net, paths, trials, release, max_steps = _draw_line_case(data)
    L = data.draw(st.integers(1, 6), label="L")
    priority = data.draw(
        st.sampled_from(["random", "age", "farthest"]), label="priority"
    )
    delay = data.draw(st.integers(0, 3), label="delay")
    _check_store_forward(
        net, paths, L, trials,
        priority=priority, release_times=release,
        delay_range=delay, max_steps=max_steps,
    )


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_random_restricted_matches_serial(data):
    net, paths, trials, release, max_steps = _draw_line_case(data)
    L = data.draw(st.integers(1, 6), label="L")
    _check_restricted(
        net, paths, L, trials, release_times=release, max_steps=max_steps
    )


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_random_adaptive_matches_serial(data):
    k = data.draw(st.integers(3, 5), label="k")
    cube = KAryNCube(k, 2, wrap=False)
    n = cube.num_nodes
    M = data.draw(st.integers(1, 6), label="messages")
    demands = [
        (
            data.draw(st.integers(0, n - 1)),
            data.draw(st.integers(0, n - 1)),
        )
        for _ in range(M)
    ]
    L = data.draw(st.integers(1, 5), label="L")
    T = data.draw(st.integers(1, 4), label="batch")
    trials = [
        (data.draw(st.integers(1, 3)), data.draw(st.integers(0, 999)))
        for _ in range(T)
    ]
    policy = data.draw(
        st.sampled_from(["dimension", "west-first", "fully-adaptive"]),
        label="policy",
    )
    max_steps = data.draw(st.one_of(st.none(), st.integers(1, 40)), label="cap")
    _check_adaptive(cube, demands, L, trials, policy=policy, max_steps=max_steps)


# ----------------------------------------------------------------------
# One model table, one validation: every front end reaches a model
# through LOCKSTEP_MODELS and raises the driver's own NetworkError
# ----------------------------------------------------------------------

MODEL_NAMES = list(LOCKSTEP_MODELS)


def _problem(model, layered, mesh):
    """``(net | cube, routes | demands, L)`` for ``model``."""
    if LOCKSTEP_MODELS[model].kind == "mesh":
        return (*mesh, 4)
    return (*layered, 8)


def _via_driver(model, problem, B=1, message_length=None, seeds=(0,), **kw):
    first, second, L = problem
    spec = LOCKSTEP_MODELS[model]
    L = L if message_length is None else message_length
    return spec.driver(first, second, L, seeds=list(seeds), **{spec.knob: B}, **kw)


def _via_simulate(model, problem, B=1, message_length=None, release_times=None, **kw):
    """The facade on the problem's :class:`Workload` (releases are one of
    its fields, not a facade option)."""
    first, second, L = problem
    L = L if message_length is None else message_length
    routes = (
        {"net": first.network, "cube": first, "demands": list(second)}
        if LOCKSTEP_MODELS[model].kind == "mesh"
        else {"net": first, "paths": list(second)}
    )
    wl = Workload(**routes, release_times=release_times)
    return simulate(wl, model=model, B=B, message_length=L, **kw)


def _via_sweep(model, B=1, message_length=8):
    """A raw spec (``TrialSpec.make`` would pre-check ``B``) run alone."""
    mesh_model = LOCKSTEP_MODELS[model].kind == "mesh"
    spec = TrialSpec(
        workload="mesh-permutation" if mesh_model else "chain-bundle",
        simulator=model,
        B=B,
        workload_params=(
            (("k", 4),)
            if mesh_model
            else (("chains", 2), ("depth", 4), ("messages", 3))
        ),
        message_length=message_length,
    )
    return run_sweep([spec], batch_size=1)


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_validation_is_the_drivers_on_every_path(model, layered, mesh):
    problem = _problem(model, layered, mesh)
    M = len(problem[1])
    through_run = (_via_driver, _via_simulate)
    bad_inputs = [
        ("release times must be >= 0", {"release_times": np.full(M, -1)}),
        ("release_times must have shape", {"release_times": np.zeros(M + 1)}),
        ("message_length must be a scalar", {"message_length": np.ones(M + 1)}),
        ("message length L must be >= 1", {"message_length": 0}),
        (LOCKSTEP_MODELS[model].knob_error, {"B": 0}),
    ]
    for match, bad in bad_inputs:
        for path in through_run:
            with pytest.raises(NetworkError, match=match):
                path(model, problem, **bad)
    # run_sweep carries B and a scalar L only.
    with pytest.raises(NetworkError, match=LOCKSTEP_MODELS[model].knob_error):
        _via_sweep(model, B=0)
    with pytest.raises(NetworkError, match="message length L must be >= 1"):
        _via_sweep(model, message_length=0)
    # An empty batch is expressible where seeds are: driver and facade.
    with pytest.raises(NetworkError, match="seeds is empty"):
        _via_driver(model, problem, seeds=())
    with pytest.raises(NetworkError, match="seeds is empty"):
        _via_simulate(model, problem, batch=[])


#: An integer parameter, a fraction for it and an integral float for it.
#: ``repeat`` is a spec field only; release times are a driver input only.
INTEGER_FIELDS = {
    "B": (1.5, 2.0),
    "message_length": (2.5, 3.0),
    "release_times": (0.5, 1.0),
    "repeat": (1.5, 2.0),
}


def _completion(res):
    """Completion times of whatever a path returns (list, wrapper, run)."""
    res = res[0] if isinstance(res, list) else res
    return getattr(res, "result", res).completion_times.tolist()


@pytest.mark.parametrize("field", list(INTEGER_FIELDS))
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_a_fraction_is_rejected_not_truncated_on_every_path(
    model, field, layered, mesh
):
    """``B``, ``L``, ``repeat`` and release times are integers.  A
    fraction, truncated, answered a different question (``L = 2.5`` ran
    as ``L = 2``); on every path it is an error naming the parameter,
    while an integral float is still the integer it equals."""
    fraction, whole = INTEGER_FIELDS[field]
    if field != "repeat":
        problem = _problem(model, layered, mesh)
        M = len(problem[1])
        if field == "release_times":
            bad, good, same = ({field: np.full(M, v)} for v in (fraction, whole, 1))
        else:
            bad, good, same = {field: fraction}, {field: whole}, {field: int(whole)}
        knob = LOCKSTEP_MODELS[model].knob if field == "B" else field
        for path in (_via_driver, _via_simulate):
            name = field if path is _via_simulate else knob  # simulate's B
            with pytest.raises(NetworkError, match=f"{name} must be an integer"):
                path(model, problem, **bad)
            assert _completion(path(model, problem, **good)) == _completion(
                path(model, problem, **same)
            )
        if field != "release_times":  # ``B = True`` once ran as ``B = 1``
            for mode in ("exact", "estimate"):
                with pytest.raises(NetworkError, match=f"{field} must be an integer"):
                    _via_simulate(model, problem, mode=mode, **{field: True})
    if field != "release_times":
        for bad in (fraction, True):
            with pytest.raises(NetworkError, match=f"{field} must be an integer"):
                TrialSpec.make("chain-bundle", model, **{field: bad})
        assert TrialSpec.make("chain-bundle", model, **{field: whole}) == (
            TrialSpec.make("chain-bundle", model, **{field: int(whole)})
        )
        for wire in (fraction, str(int(whole)), True):
            spec = {"workload": "chain-bundle", "simulator": model, field: wire}
            with pytest.raises(ProtocolError, match=f"'{field}' must be an integer"):
                parse_run_request({"op": "run", "spec": spec})


#: A count that must be a whole number >= 0, and values that once ran as
#: a different one (11.5 as 11, "12" as 12, True as 1, -3 as 0).
NOT_A_COUNT = (11.5, "12", True, -3)


def _line_paths(_source, _rng):
    return [0, 1, 2]


@pytest.mark.parametrize(
    "knob",
    [f"max_steps-{m}" for m in MODEL_NAMES]
    + ["delay_range", "sample_every", "num_sources", "workers", "batch_size"],
)
def test_a_count_is_rejected_not_truncated_on_every_path(knob, layered, mesh):
    """``max_steps``, store-and-forward's ``delay_range``, the
    open-loop ``num_sources`` (of :func:`draw_arrivals`) and
    ``sample_every`` (of ``ContinuousResult.of``), and ``run_sweep``'s
    ``workers`` and ``batch_size`` are counts: a fraction, a string, a
    bool or a number below the least is an error naming the knob, never
    the count it truncates or clips to."""
    from repro.sim.continuous import ContinuousResult, draw_arrivals

    name, _, model = knob.partition("-")
    if name in ("workers", "batch_size"):
        spec = TrialSpec.make("chain-bundle", "wormhole", workload_params=SMALL_CHAIN)
        least = -3 if name == "workers" else 0  # workers >= 0, batch_size >= 1
        for value in (2.5, "2", True, least):
            with pytest.raises(NetworkError, match=f"{name} must be an integer"):
                run_sweep([spec], **{name: value})
        return
    if name == "max_steps":
        problem = _problem(model, layered, mesh)
        for value in NOT_A_COUNT:
            for path in (_via_driver, _via_simulate):
                with pytest.raises(NetworkError, match="max_steps must be an integer"):
                    path(model, problem, max_steps=value)
        # A zero cap still means "stop before the first step".
        res = _via_simulate(model, problem, max_steps=0)
        assert res.hit_step_cap and res.steps_executed == 0
        return
    if name == "delay_range":
        problem = _problem("store_forward", layered, mesh)
        for value in (3.7, -2, "3", True):
            with pytest.raises(NetworkError, match="delay_range must be an integer"):
                _via_driver("store_forward", problem, delay_range=value)
        return
    rng = np.random.default_rng(0)
    for value in (4.5, "4", True, 0):
        with pytest.raises(NetworkError, match=f"{name} must be an integer"):
            if name == "num_sources":
                draw_arrivals(np.full(200, 0.2), value, _line_paths, rng, rng)
            else:
                ContinuousResult.of([1, 2], [5, -1], 200, sample_every=value)


def _multibutterfly_run(B=1, message_length=4, **run):
    """A 16-input multibutterfly permutation through the adaptive driver."""
    mbf = Multibutterfly(16, d=2, rng=np.random.default_rng(0))
    inst = random_permutation(16, np.random.default_rng(1))
    demands = np.stack([inst.sources, inst.dests], axis=1)
    return run_adaptive_batch(
        mbf, demands, message_length, seeds=[0], num_virtual_channels=B,
        policy="fully-adaptive", **run,
    )[0]


_PERM8 = np.random.default_rng(2).permutation(8)
_L_ERROR = "message_length must be an integer"

#: A ``core/`` entry point (or the driver a removed one called) given a
#: value it once truncated (L = 4.9 ran as 4), accepted (B = 1.5 ran a
#: model that does not exist; a release of -3 ran) or let escape as a
#: bare ValueError, and the error it owes.
TRUNCATED_BY_CORE = {
    "benes-L": (lambda: route_permutation_benes(_PERM8, 4.9), _L_ERROR),
    "benes-q-L": (lambda: route_q_relation_benes([_PERM8] * 2, 4.6), _L_ERROR),
    "delays-L": (
        lambda: route_online_random_delays(*_layered_workload(), 4.8), _L_ERROR
    ),
    "delays-window": (
        lambda: route_online_random_delays(*_layered_workload(), 4, window=2.5),
        "window must be an integer",
    ),
    "delays-window-zero": (
        lambda: route_online_random_delays(*_layered_workload(), 4, window=0),
        "window must be an integer",
    ),
    "delays-B-zero": (
        lambda: route_online_random_delays(*_layered_workload(), 4, B=0),
        "need C, D, B >= 1",
    ),
    "delay-release-C": (
        lambda: random_delay_release(6, 4, 2.5, np.random.default_rng(0)),
        "C must be an integer",
    ),
    "delay-release-C-bool": (
        lambda: random_delay_release(6, 4, True, np.random.default_rng(0)),
        "C must be an integer",
    ),
    "butterfly-L": (lambda: ButterflyRouter(16, message_length=3.9), _L_ERROR),
    "butterfly-B": (lambda: ButterflyRouter(16, B=1.5), "B must be an integer"),
    "schedule-L": (
        lambda: ColorClassSchedule.from_colors(np.arange(4), 4.9, 3), _L_ERROR
    ),
    "schedule-D": (
        lambda: ColorClassSchedule.from_colors(np.arange(4), 4, 3.5),
        "D must be an integer",
    ),
    "circuit-capacity": (
        lambda: circuit_switch_butterfly(
            Butterfly(16), np.arange(16), 1.7, np.random.default_rng(0)
        ),
        "capacity must be an integer",
    ),
    "mbf-L": (lambda: _multibutterfly_run(message_length=4.7), _L_ERROR),
    "mbf-L-str": (lambda: _multibutterfly_run(message_length="4"), _L_ERROR),
    "mbf-L-bool": (lambda: _multibutterfly_run(message_length=True), _L_ERROR),
    "mbf-B": (
        lambda: _multibutterfly_run(B=1.9),
        "num_virtual_channels must be an integer",
    ),
    "mbf-release-fraction": (
        lambda: _multibutterfly_run(release_times=np.full(16, 2.7)),
        "release_times must be an integer",
    ),
    "mbf-release-negative": (
        lambda: _multibutterfly_run(release_times=np.full(16, -3)),
        "release times must be >= 0",
    ),
    "mbf-release-shape": (
        lambda: _multibutterfly_run(release_times=np.zeros(15, dtype=np.int64)),
        "release_times must have shape",
    ),
    "mbf-max-steps": (
        lambda: _multibutterfly_run(max_steps=2.5),
        "max_steps must be an integer",
    ),
}


@pytest.mark.parametrize("case", list(TRUNCATED_BY_CORE))
def test_a_core_entry_point_rejects_what_it_once_truncated(case):
    """The ``core/`` routers, schedules and the circuit switch take
    ``L``, ``B``, ``D``, capacities, release times and step caps on the
    simulators' terms: a fraction, a string or a bool is a
    :class:`NetworkError` naming the parameter, never the number it
    truncates to."""
    call, error = TRUNCATED_BY_CORE[case]
    with pytest.raises(NetworkError, match=error):
        call()


#: An arbitration option the model does not take, and what the error
#: says.  The parent ran each as if it were absent (or, for ``""``, as
#: the default).
STRAY_OPTIONS = {
    "priority-on-restricted": (
        "restricted", {"priority": "index"}, "has no arbitration option",
    ),
    "policy-on-wormhole": (
        "wormhole", {"policy": "dimension"}, "does not take 'policy'",
    ),
    "empty-priority": ("wormhole", {"priority": ""}, "priority must be one of"),
    "misspelt-priority": (
        "wormhole", {"prioirty": "index"}, "its one option is 'priority'",
    ),
}
SMALL_CHAIN = {"chains": 2, "depth": 4, "messages": 3}


def _served(case):
    """The in-process ``repro serve`` endpoint's reply to one exact run."""
    from repro.service import ServiceConfig, SimulationService

    model, options, _ = STRAY_OPTIONS[case]
    spec = {
        "workload": "chain-bundle", "simulator": model, "B": 2,
        "workload_params": SMALL_CHAIN, "sim_params": options,
        "message_length": 8,
    }

    async def converse():
        service = SimulationService(ServiceConfig(port=0))
        task = asyncio.create_task(service.run())
        await service.started.wait()
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        replies = []
        for msg in ({"op": "run", "id": case, "spec": spec}, {"op": "shutdown"}):
            writer.write(json.dumps(msg).encode() + b"\n")
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
        writer.close()
        await writer.wait_closed()
        await asyncio.wait_for(task, 60)
        return replies[0]

    return asyncio.run(asyncio.wait_for(converse(), 120))


@pytest.mark.parametrize(
    "path, case",
    [
        (path, case)
        for path in ("simulate", "sweep", "endpoint")
        for case in STRAY_OPTIONS
        # simulate names its options (a misspelling is a TypeError).
        if path != "simulate" or case != "misspelt-priority"
    ],
)
def test_an_option_the_model_does_not_take_is_an_error(path, case):
    """``priority`` on the restricted model, ``policy`` on a path model,
    a misspelt key or an empty value once ran the default arbitration
    and answered ``ok``: a wrong number under the asked-for label."""
    model, options, needle = STRAY_OPTIONS[case]
    if path == "endpoint":
        reply = _served(case)
        assert reply["status"] == "error" and needle in reply["error"]
        return
    with pytest.raises(NetworkError, match=needle):
        if path == "simulate":
            simulate(
                "chain-bundle", workload_params=SMALL_CHAIN, model=model,
                B=2, message_length=8, **options,
            )
        else:
            run_sweep([
                TrialSpec.make(
                    "chain-bundle", model, B=2, workload_params=SMALL_CHAIN,
                    sim_params=options, message_length=8,
                )
            ])


#: Arbitration options ``simulate`` refuses, by problem and model: one
#: the model does not take, a value outside its choices, and one given
#: again for a workload that states its own arbitration.
REFUSED_ARBITRATION = {
    "priority-on-restricted": (
        "chain-bundle", "restricted", {"priority": "bogus"},
        "does not take 'priority'",
    ),
    "bogus-priority": (
        "chain-bundle", "wormhole", {"priority": "bogus"},
        "priority must be one of",
    ),
    "priority-given-twice": (
        "scenario:ring-deadlock", "wormhole", {"priority": "random"},
        "already states priority 'index'",
    ),
}


@pytest.mark.parametrize("path", ["simulate", "spec"])
@pytest.mark.parametrize("mode", ["exact", "estimate"])
@pytest.mark.parametrize("case", REFUSED_ARBITRATION)
def test_both_modes_check_the_arbitration_option(path, mode, case):
    """An estimate answers for the trial the exact run would simulate,
    so an option the exact run refuses is refused by the estimate too:
    through the facade and for a sweep / wire spec."""
    from repro.analysis.estimate import estimate_spec

    problem, model, options, needle = REFUSED_ARBITRATION[case]
    spec = TrialSpec.make(problem, model, sim_params=options)
    with pytest.raises(NetworkError, match=needle):
        if path == "simulate":
            simulate(problem, model=model, mode=mode, **options)
        elif mode == "exact":
            run_sweep([spec])
        else:
            estimate_spec(spec)


def test_model_table_is_complete():
    from golden_cases import CASES
    from repro.analysis.estimate import ESTIMATABLE_MODELS, estimate_paths
    from repro.facade import MODELS
    from repro.sim import kernels

    assert MODEL_NAMES == [
        "wormhole", "cut_through", "store_forward", "restricted", "adaptive",
    ]
    assert set(ESTIMATABLE_MODELS) == set(LOCKSTEP_MODELS)
    # The class names perfbench rebinds ``body`` on, model by model.
    kernel_names = {
        "wormhole": "WormholeKernel",
        "cut_through": "CutThroughKernel",
        "store_forward": "StoreForwardKernel",
        "restricted": "RestrictedKernel",
        "adaptive": "AdaptiveKernel",
    }
    dims = {
        "release": np.array([0, 3], dtype=np.int64),
        "lengths": np.array([2, 4], dtype=np.int64),
        "message_length": np.array([5, 5], dtype=np.int64),
    }
    for name, spec in LOCKSTEP_MODELS.items():
        assert spec.name == name and name in MODELS and name in SIMULATORS
        # kernel class: one construction contract, pinned by a golden case
        assert spec.kernel is getattr(kernels, kernel_names[name])
        assert callable(spec.kernel.pack) and callable(spec.kernel.body)
        assert list(inspect.signature(spec.kernel.__init__).parameters) == [
            "self", "loop", "packed", "B", "option", "rngs",
        ]
        assert any(case.startswith(name) for case in CASES)
        # driver + knob (+ the keywords every front end passes)
        assert spec.driver is getattr(batch_module, f"run_{name}_batch")
        params = inspect.signature(spec.driver).parameters
        assert {spec.knob, "seeds", "release_times", "max_steps", "telemetry"} <= set(
            params
        )
        assert spec.kind in ("paths", "mesh")
        for field in ("vc_ids", "sources"):
            assert (field in params) == (field in spec.workload_fields)
        # cap rule, shifted by the release like every documented bound
        cap = default_step_cap(name, **dims)
        assert cap > 0
        assert default_step_cap(name, **{**dims, "release": dims["release"] + 7}) == cap + 7
        # facade / sweep default of the arbitration option
        if spec.option is None:
            assert spec.default is None and not spec.choices
        else:
            assert spec.default in spec.choices
            assert params[spec.option].default == spec.default
        # estimator formula
        env = estimate_paths(
            name,
            message_length=4,
            B=2,
            path_lengths=[2, 3],
            congestion=None if spec.kind == "mesh" else 2,
        )
        assert env.model == name and env.upper >= 4 + 3 - 1


class _MetaProbe(Probe):
    """Keeps the :class:`RunMeta` the driver announces."""

    meta = None

    def on_run_start(self, meta):
        self.meta = meta


@pytest.mark.parametrize(
    "model", [m for m in MODEL_NAMES if LOCKSTEP_MODELS[m].telemetry]
)
def test_run_meta_announced_at_t1(model, layered, mesh):
    """What ``telemetry.collectors`` weights grants by, model by model."""
    first, second, L = _problem(model, layered, mesh)
    spec = LOCKSTEP_MODELS[model]
    probe = _MetaProbe()
    (run,) = spec.driver(
        first, second, L, seeds=[0], telemetry=probe, **{spec.knob: 3}
    )
    meta = probe.meta
    M = len(second)
    net = first.network if spec.kind == "mesh" else first
    assert meta.simulator == model
    assert meta.num_messages == M and meta.num_edges == net.num_edges
    assert meta.message_length.tolist() == [L] * M
    assert meta.release.tolist() == [0] * M
    if spec.kind == "mesh":
        assert meta.paths is None
        assert meta.lengths.tolist() == [len(p) for p in run.taken_paths]
    else:
        assert meta.paths.shape[0] == M
        assert meta.lengths.tolist() == [len(p.edges) for p in second]
    # B slots per edge where grants are per flit slot; one owner otherwise.
    want_vcs = {"wormhole": 3, "cut_through": 1, "store_forward": 1, "adaptive": 3}
    assert meta.num_virtual_channels == want_vcs[model]
    extra = dict(meta.extra)
    if model == "cut_through":  # per-message L, as an array
        assert extra.pop("flits_per_grant").tolist() == [L] * M
    assert extra == {
        "wormhole": {},
        "cut_through": {},
        "store_forward": {"flits_per_grant": L, "flit_steps_per_step": -(-L // 3)},
        "adaptive": {"flits_per_grant": L, "policy": "west-first"},
    }[model]


# ----------------------------------------------------------------------
# A Generator seed passes through: two calls given one continue its stream
# ----------------------------------------------------------------------


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_two_runs_on_one_instance_continue_one_rng_stream(model, layered, mesh):
    """Two ``simulate`` calls on one problem given one ``Generator``
    equal two driver calls sharing another: the second run continues
    the stream the first left, as the hypercube router's two phases do."""
    problem = _problem(model, layered, mesh)
    first, second, L = problem
    spec = LOCKSTEP_MODELS[model]
    # An arbitration that draws every step, where the model has one.
    option = {"priority": "random"} if spec.option == "priority" else {}
    stream = np.random.default_rng(5)
    runs = [_via_simulate(model, problem, B=2, seed=stream, **option)
            for _ in range(2)]
    rng = np.random.default_rng(5)
    for got in runs:
        (want,) = spec.driver(
            first, second, L, seeds=[rng], **{spec.knob: 2}, **option
        )
        _assert_equal(got, getattr(want, "result", want), model)
    state = stream.bit_generator.state
    assert state == rng.bit_generator.state
    assert state != np.random.default_rng(5).bit_generator.state  # it advanced
    if model != "store_forward":  # identical greedy hops need no second look
        fresh = _via_simulate(model, problem, B=2, seed=5, **option)
        assert not np.array_equal(
            runs[1].completion_times, fresh.completion_times
        ), "the second run restarted the stream instead of continuing it"


def test_single_trial_draws_are_not_block_buffered(layered):
    """``_RandomBlock`` over-draws, so it must stay a ``T > 1`` device:
    one wormhole trial consumes exactly one double per header request —
    also at ``L = 64``, where most refused requests fall in forced spans
    that are coasted, not drawn one round at a time."""
    net, paths = layered
    for L in (8, 64):
        stream = np.random.default_rng(11)
        res = simulate((net, paths), B=2, message_length=L, seed=stream)
        requests = sum(len(p.edges) for p in paths) + res.total_blocked_steps
        rng = np.random.default_rng(11)
        rng.random(requests)
        assert stream.bit_generator.state == rng.bit_generator.state, L


class _Started(Probe):
    started = False

    def on_run_start(self, meta):
        self.started = True


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_probes_are_a_single_trial_contract(model, layered, mesh):
    problem = _problem(model, layered, mesh)
    probe = _Started()
    if not LOCKSTEP_MODELS[model].telemetry:
        with pytest.raises(NetworkError, match="does not support telemetry"):
            _via_driver(model, problem, telemetry=[probe])
    else:
        with pytest.raises(NetworkError, match="T = 1"):
            _via_driver(model, problem, seeds=(0, 1), telemetry=[probe])
        with pytest.raises(NetworkError, match="single trial"):
            _via_simulate(model, problem, batch=[0, 1], telemetry=[probe])
    assert not probe.started
