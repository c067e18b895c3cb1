"""Tests for the parallel trial-grid runner (:mod:`repro.sim.sweep`)."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import NetworkError
from repro.sim.sweep import (
    SIMULATORS,
    WORKLOADS,
    TrialSpec,
    Workload,
    register_workload,
    run_sweep,
    sweep_grid,
    trial_seed,
)

TINY_WL = {"chains": 2, "depth": 5, "messages": 3}


def tiny_grid(simulators=("wormhole", "store_forward"), Bs=(1, 2), repeats=1):
    return sweep_grid(
        "chain-bundle",
        list(simulators),
        Bs,
        workload_params=TINY_WL,
        message_length=8,
        repeats=repeats,
    )


# ----------------------------------------------------------------------
# specs and seeds
# ----------------------------------------------------------------------


def test_spec_params_are_canonicalized():
    a = TrialSpec.make("layered", "wormhole", workload_params={"b": 1, "a": 2})
    b = TrialSpec.make("layered", "wormhole", workload_params={"a": 2, "b": 1})
    assert a == b
    assert a.cache_key(0) == b.cache_key(0)


def test_unknown_workload_is_one_error_on_every_surface():
    """``build_workload`` owns the message; spec validation, the facade,
    the wire protocol and the CLI surface it, registered names included."""
    from repro import simulate
    from repro.cli import main
    from repro.service.protocol import ProtocolError, parse_run_request
    from repro.sim.sweep import build_workload

    with pytest.raises(NetworkError) as raised:
        build_workload("zzz", {})
    message = str(raised.value)
    assert message.startswith("unknown workload 'zzz'; registered: ")
    assert all(name in message for name in WORKLOADS)

    with pytest.raises(NetworkError) as raised:
        TrialSpec.make("zzz", "wormhole")
    assert str(raised.value) == message
    with pytest.raises(NetworkError) as raised:
        simulate("zzz")
    assert str(raised.value) == message
    with pytest.raises(ProtocolError) as raised:
        parse_run_request({"op": "run", "spec": {"workload": "zzz"}})
    assert str(raised.value) == f"invalid spec: {message}"
    with pytest.raises(SystemExit) as raised:
        main(["sweep", "--workload", "zzz"])
    assert str(raised.value) == f"repro sweep: {message}"


def test_spec_rejects_unknown_names_and_bad_values():
    with pytest.raises(NetworkError, match="unknown workload"):
        TrialSpec.make("nope", "wormhole")
    with pytest.raises(NetworkError, match="unknown simulator"):
        TrialSpec.make("layered", "nope")
    with pytest.raises(NetworkError, match="B must be"):
        TrialSpec.make("layered", "wormhole", B=0)
    with pytest.raises(NetworkError, match="JSON scalar"):
        TrialSpec.make("layered", "wormhole", workload_params={"x": [1, 2]})


def test_trial_seed_is_stable_and_repeat_separated():
    spec0 = TrialSpec.make("layered", "wormhole", B=2)
    spec1 = TrialSpec.make("layered", "wormhole", B=2, repeat=1)
    s0a = np.random.default_rng(trial_seed(spec0, 7)).integers(1 << 30)
    s0b = np.random.default_rng(trial_seed(spec0, 7)).integers(1 << 30)
    s1 = np.random.default_rng(trial_seed(spec1, 7)).integers(1 << 30)
    other_root = np.random.default_rng(trial_seed(spec0, 8)).integers(1 << 30)
    assert s0a == s0b  # deterministic
    assert s0a != s1  # repeats are independent streams
    assert s0a != other_root  # root seed matters


def test_trial_seed_ignores_grid_membership():
    """Repeat i's seed is identical whether 1 or 100 repeats exist."""
    spec = TrialSpec.make("layered", "wormhole", repeat=2)
    direct = trial_seed(spec, 0)
    assert direct.spawn_key == trial_seed(spec, 0).spawn_key


def _seed_unmemoised(spec, root_seed):
    """``trial_seed`` from its definition: a digest of the spec less its
    repeat, keyed with the root seed; repeat ``i`` is child ``i``."""
    config = spec.key()
    config.pop("repeat")
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).digest()
    entropy = [root_seed & 0xFFFFFFFF, int.from_bytes(digest[:16], "little")]
    return np.random.SeedSequence(entropy, spawn_key=(spec.repeat,))


def _assert_seeds_match(specs, root_seed):
    for spec in specs:
        got, want = trial_seed(spec, root_seed), _seed_unmemoised(spec, root_seed)
        assert (got.entropy, got.spawn_key) == (want.entropy, want.spawn_key)
        assert np.array_equal(got.generate_state(4), want.generate_state(4))


def test_trial_seed_memo_serves_the_definition_on_the_sweep_grids():
    """Every spec of the four lockstep sweep grids perfbench times (three
    chain-bundle models and the adaptive mesh, B in {1, 2, 4}, 128
    repeats), asked twice: a memo hit serves what a miss computed."""
    chain = {"chains": 4, "depth": 12, "messages": 8}
    specs = sweep_grid(
        "chain-bundle", ["wormhole", "cut_through", "store_forward"],
        (1, 2, 4), workload_params=chain, message_length=24, repeats=128,
    ) + sweep_grid(
        "mesh-permutation", ["adaptive"], (1, 2, 4),
        workload_params={"k": 6}, message_length=6, repeats=128,
    )
    for root_seed in (0, 7, 0):
        _assert_seeds_match(specs, root_seed)


@settings(max_examples=60, deadline=None)
@given(
    value=st.one_of(
        st.integers(-3, 3), st.booleans(), st.sampled_from([1.0, 0.0, -0.0]),
        st.none(), st.text(max_size=3),
    ),
    B=st.integers(1, 4),
    repeat=st.integers(0, 5),
    root_seed=st.integers(0, 2**40),
)
def test_trial_seed_memo_keeps_equal_values_of_other_types_apart(
    value, B, repeat, root_seed
):
    """1, 1.0 and True compare equal but encode differently: each gets
    its own digest however the memo was filled before."""
    specs = [
        TrialSpec.make(
            "layered", "wormhole", B=B, repeat=repeat,
            workload_params={"x": v},
        )
        for v in (value, 1, 1.0, True, 0.0, -0.0)
    ]
    _assert_seeds_match(specs, root_seed)


def test_trial_seed_memo_stays_bounded(monkeypatch):
    from repro.sim import sweep

    monkeypatch.setattr(sweep, "_SEED_CACHE_MAX", 8)
    monkeypatch.setattr(sweep, "_DIGEST_CACHE", {})
    monkeypatch.setattr(sweep, "_SEED_CACHE", {})
    specs = [
        TrialSpec.make("layered", "wormhole", workload_params={"x": i})
        for i in range(30)
    ]
    _assert_seeds_match(specs, 3)
    assert 0 < len(sweep._DIGEST_CACHE) <= 8
    assert 0 < len(sweep._SEED_CACHE) <= 8


def test_sweep_grid_shape():
    specs = tiny_grid(repeats=2)
    assert len(specs) == 2 * 2 * 2
    assert {(s.simulator, s.B, s.repeat) for s in specs} == {
        (sim, B, r)
        for sim in ("wormhole", "store_forward")
        for B in (1, 2)
        for r in (0, 1)
    }


# ----------------------------------------------------------------------
# execution: serial == parallel, cache behavior
# ----------------------------------------------------------------------


def test_parallel_matches_serial_bit_exactly():
    specs = tiny_grid(repeats=2)
    serial = run_sweep(specs, root_seed=5, workers=0)
    parallel = run_sweep(specs, root_seed=5, workers=2)
    assert [t.metrics for t in serial] == [t.metrics for t in parallel]
    assert [t.spec for t in serial] == specs  # input order preserved


def test_results_in_input_order_and_complete():
    specs = tiny_grid()
    out = run_sweep(specs)
    assert [t.spec for t in out] == specs
    for t in out:
        assert t.metrics["delivered"] == t.metrics["messages"]
        assert t.metrics["message_length"] == 8
        assert t.metrics["workload_dilation"] == 5


def test_cache_round_trip_and_delta_recompute(tmp_path):
    specs = tiny_grid()
    first = run_sweep(specs, cache_dir=tmp_path)
    assert first.num_cached == 0
    second = run_sweep(specs, cache_dir=tmp_path)
    assert second.num_cached == len(specs)
    assert [t.metrics for t in second] == [t.metrics for t in first]
    # Extend one axis: only the new cells execute.
    bigger = tiny_grid(Bs=(1, 2, 4))
    third = run_sweep(bigger, cache_dir=tmp_path)
    assert third.num_cached == len(specs)
    assert len(third) == len(bigger)


def test_cache_force_recomputes(tmp_path):
    specs = tiny_grid(simulators=("wormhole",), Bs=(1,))
    run_sweep(specs, cache_dir=tmp_path)
    out = run_sweep(specs, cache_dir=tmp_path, force=True)
    assert out.num_cached == 0


def test_cache_keyed_on_root_seed(tmp_path):
    specs = tiny_grid(simulators=("wormhole",), Bs=(1,))
    run_sweep(specs, root_seed=0, cache_dir=tmp_path)
    out = run_sweep(specs, root_seed=1, cache_dir=tmp_path)
    assert out.num_cached == 0  # different root seed is a different trial


def test_a_root_seed_outside_32_bits_is_rejected_not_aliased():
    """The seed derivation keys on 32 bits, so root seeds 0, 2**32 and
    -2**32 once ran one trial under three cache keys; out of range is
    now an error on the wire (before any forwarding) and in the sweep."""
    from repro.service.protocol import ProtocolError, parse_run_request

    specs = tiny_grid(simulators=("wormhole",), Bs=(1,))
    wire = {"workload": "chain-bundle", "workload_params": TINY_WL}
    out_of_range = r"root_seed must be in \[0, 2\*\*32\)"
    for seed in (2**32, -(2**32), -5, 2**40):
        with pytest.raises(ProtocolError, match=out_of_range):
            parse_run_request({"op": "run", "spec": wire, "root_seed": seed})
        with pytest.raises(NetworkError, match=out_of_range):
            run_sweep(specs, root_seed=seed)
    for seed in (0, 2**32 - 1):
        assert parse_run_request({"spec": wire, "root_seed": seed}).root_seed == seed
    assert run_sweep(specs, root_seed=2**32 - 1).trials[0].metrics["delivered"] == 6


def test_cache_rejects_corrupt_entry(tmp_path):
    specs = tiny_grid(simulators=("wormhole",), Bs=(1,))
    run_sweep(specs, cache_dir=tmp_path)
    entry = next(tmp_path.glob("*.json"))
    entry.write_text("{not json")
    out = run_sweep(specs, cache_dir=tmp_path)
    assert out.num_cached == 0  # silently recomputed
    assert json.loads(entry.read_text())["metrics"]["delivered"] == 6


def test_explicit_sim_seed_overrides_derived():
    spec_a = TrialSpec.make(
        "chain-bundle",
        "wormhole",
        B=1,
        workload_params=TINY_WL,
        sim_params={"seed": 0},
        message_length=8,
    )
    out_a = run_sweep([spec_a], root_seed=1)
    out_b = run_sweep([spec_a], root_seed=99)
    # With an explicit simulator seed the root seed is irrelevant.
    assert out_a.trials[0].metrics == out_b.trials[0].metrics


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------


def test_every_registered_simulator_runs():
    specs = [
        TrialSpec.make(
            "chain-bundle",
            sim,
            B=2,
            workload_params=TINY_WL,
            message_length=8,
        )
        for sim in ("wormhole", "cut_through", "store_forward", "restricted")
    ]
    specs.append(
        TrialSpec.make(
            "mesh-permutation", "adaptive", B=2, workload_params={"k": 3}
        )
    )
    specs.append(
        TrialSpec.make(
            "scenario:lll-schedule",
            "wormhole",
            B=2,
            workload_params={"B": 2, "width": 6, "depth": 4, "messages": 20},
        )
    )
    out = run_sweep(specs)
    for t in out:
        assert t.metrics["delivered"] == t.metrics["messages"], t.spec.label()
    sched = out.trials[-1].metrics
    assert sched["blocked"] == 0 and sched["workload_classes"] >= 1


def test_store_forward_reports_max_queue():
    spec = TrialSpec.make(
        "chain-bundle",
        "store_forward",
        workload_params=TINY_WL,
        message_length=8,
    )
    out = run_sweep([spec])
    assert out.trials[0].metrics["max_queue"] >= 1


def test_adaptive_requires_mesh_workload():
    spec = TrialSpec.make(
        "chain-bundle", "adaptive", workload_params=TINY_WL, message_length=8
    )
    with pytest.raises(NetworkError, match="mesh"):
        run_sweep([spec])


def test_register_workload_and_result_helpers():
    @register_workload("_test_tiny")
    def _tiny(depth: int = 3) -> Workload:
        from repro.network.random_networks import chain_bundle
        from repro.routing.paths import paths_from_node_walks

        net, walks = chain_bundle(1, depth, 2)
        return Workload(
            net=net,
            paths=paths_from_node_walks(net, walks),
            default_length=4,
            info={"depth": depth},
        )

    try:
        out = run_sweep(sweep_grid("_test_tiny", "wormhole", [1, 2]))
        assert out.column("makespan") == [
            t.metrics["makespan"] for t in out.trials
        ]
        only_b2 = out.filter(B=2)
        assert len(only_b2) == 1 and only_b2.trials[0].spec.B == 2
        row = out.trials[0].row()
        assert row["simulator"] == "wormhole" and row["workload_depth"] == 3
    finally:
        del WORKLOADS["_test_tiny"]


def test_registries_cover_the_documented_names():
    assert {
        "layered",
        "hard-instance",
        "chain-bundle",
        "butterfly-bitrev",
        "mesh-permutation",
    } <= set(WORKLOADS)
    assert {
        "wormhole",
        "cut_through",
        "store_forward",
        "restricted",
        "adaptive",
    } == set(SIMULATORS)
    with pytest.raises(NetworkError, match="unknown simulator 'schedule'"):
        TrialSpec.make("layered", "schedule")


# ----------------------------------------------------------------------
# batched execution
# ----------------------------------------------------------------------


def wormhole_grid(repeats=3, Bs=(1, 2, 4), **sim_params):
    return sweep_grid(
        "chain-bundle",
        "wormhole",
        Bs,
        workload_params=TINY_WL,
        sim_params=sim_params or None,
        message_length=8,
        repeats=repeats,
    )


@pytest.mark.parametrize("batch_size", [2, 3, None])
def test_batched_matches_serial_bit_exactly(batch_size):
    specs = wormhole_grid()
    serial = run_sweep(specs, root_seed=5, batch_size=1)
    batched = run_sweep(specs, root_seed=5, batch_size=batch_size)
    assert [t.metrics for t in serial] == [t.metrics for t in batched]
    assert [t.spec for t in batched] == specs


def test_batched_with_workers_and_cache(tmp_path):
    specs = wormhole_grid(repeats=2)
    serial = run_sweep(specs, root_seed=3, batch_size=1)
    batched = run_sweep(specs, root_seed=3, workers=2, cache_dir=tmp_path)
    assert [t.metrics for t in serial] == [t.metrics for t in batched]
    # Batch-produced cache entries serve later serial runs unchanged.
    again = run_sweep(specs, root_seed=3, batch_size=1, cache_dir=tmp_path)
    assert again.num_cached == len(specs)
    assert [t.metrics for t in again] == [t.metrics for t in serial]


def test_batched_respects_sim_params():
    for sim_params in ({"priority": "rank"}, {"seed": 7}):
        specs = wormhole_grid(repeats=2, **sim_params)
        serial = run_sweep(specs, batch_size=1)
        batched = run_sweep(specs)
        assert [t.metrics for t in serial] == [t.metrics for t in batched]


def test_batching_only_groups_compatible_cells():
    from repro.sim.sweep import plan_sweep

    specs = wormhole_grid(repeats=2) + tiny_grid(
        simulators=("store_forward",), Bs=(1,)
    )
    units = plan_sweep(specs, batch_size=4).units
    # 6 wormhole trials -> units of 4 and 2; 1 store_forward unit of one.
    assert sorted(len(idxs) for _, idxs in units) == [1, 2, 4]
    covered = sorted(i for _, idxs in units for i in idxs)
    assert covered == list(range(len(specs)))
    for (payload, root_seed), idxs in units:
        assert root_seed == 0 and payload == tuple(specs[i] for i in idxs)
        if len(idxs) >= 2:
            assert all(s.simulator == "wormhole" for s in payload)


def test_singleton_batch_tail_runs_as_single():
    from repro.sim.sweep import plan_sweep

    specs = wormhole_grid(repeats=3, Bs=(1,))
    units = plan_sweep(specs, batch_size=2).units
    # Multi-trial units first, the one-trial tail after them.
    assert [len(idxs) for _, idxs in units] == [2, 1]


def test_batch_size_validation():
    with pytest.raises(NetworkError, match="batch_size"):
        run_sweep(wormhole_grid(repeats=1), batch_size=0)


def test_workload_cache_reuses_instances():
    from repro.sim.sweep import _WORKLOAD_CACHE, build_workload

    _WORKLOAD_CACHE.clear()
    params = tuple(sorted(TINY_WL.items()))
    a = build_workload("chain-bundle", params)
    b = build_workload("chain-bundle", params)
    assert a is b
    assert a.padded_paths() is b.padded_paths()


def test_workload_cache_keyed_on_builder_function():
    from repro.sim.sweep import _WORKLOAD_CACHE, build_workload

    @register_workload("_test_cache")
    def _v1() -> Workload:
        from repro.network.random_networks import chain_bundle
        from repro.routing.paths import paths_from_node_walks

        net, walks = chain_bundle(1, 2, 1)
        return Workload(net=net, paths=paths_from_node_walks(net, walks))

    try:
        first = build_workload("_test_cache", ())

        @register_workload("_test_cache")
        def _v2() -> Workload:
            from repro.network.random_networks import chain_bundle
            from repro.routing.paths import paths_from_node_walks

            net, walks = chain_bundle(2, 2, 1)
            return Workload(net=net, paths=paths_from_node_walks(net, walks))

        second = build_workload("_test_cache", ())
        # Re-registering the name must not serve the stale build.
        assert second is not first
        assert len(second.paths) == 2
    finally:
        del WORKLOADS["_test_cache"]
        _WORKLOAD_CACHE.clear()
