"""Batch-vs-serial bit-exactness for the non-wormhole lockstep runners.

Companion to ``test_batch.py`` (which pins ``run_wormhole_batch``):
every other entry of :data:`repro.sim.batch.LOCKSTEP_MODELS` — cut
through, store-and-forward, restricted, adaptive — must produce trials
bit-identical to its serial simulator run with the same ``(B, seed)``.
On top of the per-model suites, the degenerate shapes every kernel must
survive are covered across models: ``T = 1`` batches, mixed message
lengths at the padding boundary, all-deadlocked batches, and per-trial
step-cap masking.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_cases import _layered_workload, _ring, _stagger
from repro import simulate
from repro.network.graph import Network, NetworkError
from repro.network.mesh import KAryNCube
from repro.sim import batch as batch_module
from repro.sim.adaptive import AdaptiveMeshRouter
from repro.sim.batch import (
    LOCKSTEP_MODELS,
    default_step_cap,
    run_adaptive_batch,
    run_cut_through_batch,
    run_restricted_batch,
    run_store_forward_batch,
)
from repro.sim.cut_through import CutThroughSimulator
from repro.sim.restricted import RestrictedWormholeSimulator
from repro.sim.store_forward import StoreForwardSimulator
from repro.sim.sweep import SIMULATORS, TrialSpec, run_sweep
from repro.service.protocol import ProtocolError, parse_run_request
from repro.sim.wormhole import WormholeSimulator
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
        serial = CutThroughSimulator(net, B, priority=priority, seed=seed).run(
            paths, message_length=L, **kw
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
        serial = StoreForwardSimulator(
            net, B, priority=priority, seed=seed
        ).run(paths, message_length=L, **kw)
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
        serial = RestrictedWormholeSimulator(net, B, seed=seed).run(
            paths, message_length=L, **kw
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
        serial = AdaptiveMeshRouter(cube, B, policy=policy, seed=seed).run(
            demands, message_length=L, **kw
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
        serial = AdaptiveMeshRouter(
            cube, B, policy="fully-adaptive", seed=seed
        ).run(demands, message_length=4)
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

FRONT_ENDS = {
    "wormhole": WormholeSimulator,
    "cut_through": CutThroughSimulator,
    "store_forward": StoreForwardSimulator,
    "restricted": RestrictedWormholeSimulator,
    "adaptive": AdaptiveMeshRouter,
}
MODEL_NAMES = list(LOCKSTEP_MODELS)


def _problem(model, layered, mesh):
    """``(net | cube, routes | demands, L)`` for ``model``."""
    if LOCKSTEP_MODELS[model].kind == "mesh":
        return (*mesh, 4)
    return (*layered, 8)


def _via_class(model, problem, B=1, message_length=None, **run_kw):
    first, second, L = problem
    L = L if message_length is None else message_length
    return FRONT_ENDS[model](first, B).run(second, L, **run_kw)


def _via_driver(model, problem, B=1, message_length=None, seeds=(0,), **kw):
    first, second, L = problem
    spec = LOCKSTEP_MODELS[model]
    L = L if message_length is None else message_length
    return spec.driver(first, second, L, seeds=list(seeds), **{spec.knob: B}, **kw)


def _via_simulate(model, problem, B=1, message_length=None, **kw):
    first, second, L = problem
    L = L if message_length is None else message_length
    return simulate((first, second), model=model, B=B, message_length=L, **kw)


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
    through_run = (_via_class, _via_driver, _via_simulate)
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
        for path in (_via_class, _via_driver, _via_simulate):
            name = field if path is _via_simulate else knob  # simulate's B
            with pytest.raises(NetworkError, match=f"{name} must be an integer"):
                path(model, problem, **bad)
            assert _completion(path(model, problem, **good)) == _completion(
                path(model, problem, **same)
            )
    if field != "release_times":
        with pytest.raises(NetworkError, match=f"{field} must be an integer"):
            TrialSpec.make("chain-bundle", model, **{field: fraction})
        assert TrialSpec.make("chain-bundle", model, **{field: whole}) == (
            TrialSpec.make("chain-bundle", model, **{field: int(whole)})
        )
        for wire in (fraction, str(int(whole)), True):
            spec = {"workload": "chain-bundle", "simulator": model, field: wire}
            with pytest.raises(ProtocolError, match=f"'{field}' must be an integer"):
                parse_run_request({"op": "run", "spec": spec})


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
        assert ("vc_ids" in params) == spec.vc_classes
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
# A simulator instance is the T = 1 driver on its own generator
# ----------------------------------------------------------------------


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_two_runs_on_one_instance_continue_one_rng_stream(model, layered, mesh):
    first, second, L = _problem(model, layered, mesh)
    spec = LOCKSTEP_MODELS[model]
    # An arbitration that draws every step, where the model has one.
    option = {"priority": "random"} if spec.option == "priority" else {}
    sim = FRONT_ENDS[model](first, 2, seed=5, **option)
    runs = [sim.run(second, L), sim.run(second, L)]
    # The same two calls straight on the driver, sharing one generator.
    rng = np.random.default_rng(5)
    for got in runs:
        (want,) = spec.driver(
            first, second, L, seeds=[rng], **{spec.knob: 2}, **option
        )
        _assert_equal(
            getattr(got, "result", got), getattr(want, "result", want), model
        )
    state = sim._rng.bit_generator.state
    assert state == rng.bit_generator.state
    assert state != np.random.default_rng(5).bit_generator.state  # it advanced
    if model != "store_forward":  # identical greedy hops need no second look
        fresh = FRONT_ENDS[model](first, 2, seed=5, **option).run(second, L)
        assert not np.array_equal(
            getattr(runs[1], "result", runs[1]).completion_times,
            getattr(fresh, "result", fresh).completion_times,
        ), "the second run restarted the stream instead of continuing it"


def test_single_trial_draws_are_not_block_buffered(layered):
    """``_RandomBlock`` over-draws, so it must stay a ``T > 1`` device:
    one wormhole trial consumes exactly one double per header request."""
    net, paths = layered
    sim = WormholeSimulator(net, 2, priority="random", seed=11)
    res = sim.run(paths, 8)
    requests = sum(len(p.edges) for p in paths) + res.total_blocked_steps
    rng = np.random.default_rng(11)
    rng.random(requests)
    assert sim._rng.bit_generator.state == rng.bit_generator.state


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
