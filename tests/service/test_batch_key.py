"""The batch-compatibility key is defined once and shared everywhere.

``repro.sim.spec.batch_compat_key`` owns the definition of "these
trials may share a lockstep batch" (``repro.sim.batch`` re-exports it).
Both consumers — the offline sweep packer and the online service
batcher — must use that exact function, so the two can never drift
apart on what is batchable.
"""

from repro.sim import batch, spec, sweep
from repro.sim.sweep import TrialSpec
from repro.service import server as service_server


def _spec(**overrides):
    kwargs = dict(
        workload="chain-bundle",
        simulator="wormhole",
        B=2,
        workload_params={"chains": 2, "depth": 4, "messages": 3},
        message_length=8,
        repeat=0,
    )
    kwargs.update(overrides)
    return TrialSpec.make(**kwargs)


def test_sweep_uses_the_shared_helper():
    assert sweep.batch_compat_key is batch.batch_compat_key


def test_service_uses_the_shared_helper():
    assert service_server.batch_compat_key is spec.batch_compat_key
    assert batch.batch_compat_key is spec.batch_compat_key


def test_key_ignores_B_and_repeat_but_not_workload():
    base = batch.batch_compat_key(_spec())
    # B and repeat vary within a batch (per-trial vectors / fresh seeds).
    assert batch.batch_compat_key(_spec(B=4)) == base
    assert batch.batch_compat_key(_spec(repeat=3)) == base
    # Anything shaping the shared lockstep state splits the batch.
    assert batch.batch_compat_key(_spec(message_length=16)) != base
    assert (
        batch.batch_compat_key(
            _spec(workload_params={"chains": 3, "depth": 4, "messages": 3})
        )
        != base
    )
    assert batch.batch_compat_key(_spec(simulator="store_forward")) != base
    assert (
        batch.batch_compat_key(_spec(sim_params={"priority": "index"})) != base
    )
