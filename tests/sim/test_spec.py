"""A trial's identity lives in :mod:`repro.sim.spec` and nowhere else.

The spec, its parameter check, the workload registry and the batch key
are re-exported where callers always found them; these tests pin that
the re-exports are the same objects and that the identity — equality,
``cache_key`` — is exactly what it has always been, NumPy scalars
included.
"""

import numpy as np

from repro.network import errors, graph
from repro.service import config, server
from repro.sim import batch, spec, sweep
from repro.sim.spec import TrialSpec

CHAIN = {"chains": 4, "depth": 12, "messages": 8}


def _chain(**workload_params):
    return TrialSpec.make(
        "chain-bundle",
        "wormhole",
        B=2,
        workload_params=workload_params,
        message_length=24,
        repeat=3,
    )


def test_cache_key_is_pinned():
    # The key hashes the entry format's CACHE_VERSION (3 since scenario
    # trials run their workload's VC classes and arbitration): only a
    # version bump may move these pins.
    assert (
        _chain(**CHAIN).cache_key(7)
        == "68885b3d2eeded34db1341951c93af2273b45071e15ce6d9a4361ca7e2870154"
    )


def test_numpy_integers_make_the_same_trial():
    plain = _chain(**CHAIN)
    numpy = _chain(chains=np.int64(4), depth=np.int32(12), messages=8)
    assert numpy == plain
    assert numpy.cache_key(7) == plain.cache_key(7)


def test_numpy_scalars_are_stored_as_python_scalars():
    trial = TrialSpec.make(
        "layered",
        "cut_through",
        workload_params={"width": 6, "seed": np.int16(3)},
        sim_params={"priority": "random", "x": np.float32(0.5), "y": np.bool_(True)},
    )
    assert trial.workload_params == (("seed", 3), ("width", 6))
    assert trial.sim_params == (("priority", "random"), ("x", 0.5), ("y", True))
    stored = [v for _, v in trial.workload_params + trial.sim_params]
    assert [type(v) for v in stored] == [int, int, str, float, bool]
    assert (
        trial.cache_key(0)
        == "500e1f9f88f03f697312420e233788aa0d73e3095e5fffa9df349b730f9fdcaf"
    )


def test_re_exports_are_the_same_objects():
    assert sweep.TrialSpec is spec.TrialSpec
    assert sweep.WORKLOADS is spec.WORKLOADS
    assert sweep.register_workload is spec.register_workload
    assert sweep.Workload is spec.Workload
    assert sweep.SIMULATORS is spec.SIMULATORS
    assert batch.batch_compat_key is spec.batch_compat_key
    assert graph.NetworkError is errors.NetworkError is spec.NetworkError
    assert server.ServiceConfig is config.ServiceConfig


def test_replacing_the_paths_never_keeps_the_old_pack():
    from dataclasses import replace

    wl = sweep.build_workload("chain-bundle", {})
    assert wl.padded_paths().num_messages == len(wl.paths) == 32
    one = replace(wl, paths=wl.paths[:1])
    assert one.padded_paths().num_messages == 1
    assert wl.padded_paths().num_messages == 32
