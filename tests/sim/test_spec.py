"""A trial's identity lives in :mod:`repro.sim.spec` and nowhere else.

The spec, its parameter check, the workload registry and the batch key
are re-exported where callers always found them; these tests pin that
the re-exports are the same objects and that the identity — equality,
``cache_key`` — is exactly what it has always been, NumPy scalars
included.
"""

import numpy as np

from repro.network import errors, graph
from repro.service import batcher, config, server
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
    # The key hashes the entry format's CACHE_VERSION (2 since entries
    # carry a metrics digest): only a version bump may move these pins.
    assert (
        _chain(**CHAIN).cache_key(7)
        == "4fe8747398cd4c2c32d91cfd0a356c186fc02edf82fa0fb9b956cde0be093d35"
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
        == "e81719dc23a9cd8557366cb6f9de0a87f1b05a79613ea4065671dcf10fde07c5"
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
    assert batcher.BatchPolicy is config.BatchPolicy
