"""Failure-path tests for the process backend.

Crash functions must stay harmless when they execute *in this process*
(after degradation, or under the inline fallback), so each one takes
the parent PID in its payload and only misbehaves inside a worker.
"""

import os
import signal
import time

import pytest

from repro.exec import ExecutionError, ProcessPoolBackend


def _echo(x):
    return x


def _suicide_once(payload):
    """Die the first time a worker runs this; succeed on retry."""
    flag, value = payload
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("died")
        os._exit(1)
    return value * 10


def _die_in_worker(payload):
    """Always kill the hosting process — unless it is the parent."""
    parent_pid, value = payload
    if os.getpid() != parent_pid:
        os._exit(1)
    return value + 100


def _sleep_in_worker(payload):
    parent_pid, duration = payload
    if os.getpid() != parent_pid:
        time.sleep(duration)
    return "done"


def test_prewarm_spawns_workers_immediately():
    backend = ProcessPoolBackend(workers=2)
    try:
        pids = backend.worker_pids()
        assert len(pids) == 2
        assert all(p != os.getpid() for p in pids)
    finally:
        backend.close()


def test_crash_mid_unit_is_retried_and_pool_restarted(tmp_path):
    backend = ProcessPoolBackend(workers=2, backoff_base_s=0.01)
    try:
        flag = str(tmp_path / "crash-once")
        assert backend.run(_suicide_once, (flag, 7)) == 70
        snap = backend.stats_snapshot()
        assert snap["retried"] >= 1
        assert snap["worker_restarts"] >= 1
        assert snap["completed"] == 1
        assert not backend.degraded
    finally:
        backend.close()


def test_map_survives_crash_with_no_dropped_units(tmp_path):
    backend = ProcessPoolBackend(workers=2, backoff_base_s=0.01)
    try:
        flag = str(tmp_path / "crash-once-map")
        payloads = [(flag, v) for v in range(6)]
        assert backend.map(_suicide_once, payloads) == [
            v * 10 for v in range(6)
        ]
        snap = backend.stats_snapshot()
        assert snap["worker_restarts"] >= 1
    finally:
        backend.close()


def test_external_worker_kill_recovers():
    backend = ProcessPoolBackend(workers=2, backoff_base_s=0.01)
    try:
        victim = backend.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        # SIGKILL is asynchronous: a map can finish on the surviving
        # worker before the executor sees the dead one, and it is the
        # next submit that trips the restart.  Every unit admitted after
        # the kill completes either way; the restart must follow.
        deadline = time.monotonic() + 30.0
        while True:
            assert backend.map(_echo, list(range(4))) == [0, 1, 2, 3]
            if backend.stats_snapshot()["worker_restarts"] >= 1:
                break
            assert time.monotonic() < deadline, "dead worker never noticed"
            time.sleep(0.01)
        pids = backend.worker_pids()
        assert len(pids) == 2 and victim not in pids
    finally:
        backend.close()


def test_degrades_to_inline_after_repeated_crashes():
    backend = ProcessPoolBackend(
        workers=2, max_retries=3, degrade_after=2, backoff_base_s=0.01
    )
    try:
        parent = os.getpid()
        # Two consecutive infrastructure failures trip degradation; the
        # unit then executes inline (where _die_in_worker is harmless).
        assert backend.run(_die_in_worker, (parent, 1)) == 101
        assert backend.degraded
        snap = backend.stats_snapshot()
        assert snap["degradations"] == 1
        assert snap["mode"] == "inline"
        assert snap["mode_transitions"] == 1
        # Degraded backend keeps serving — availability over parallelism.
        assert backend.run(_echo, 5) == 5
        assert backend.map(_echo, [1, 2]) == [1, 2]
        assert backend.worker_pids() == []
    finally:
        backend.close()


def test_retries_exhausted_raises_with_degradation_disabled():
    backend = ProcessPoolBackend(
        workers=1, max_retries=1, degrade_after=0, backoff_base_s=0.01
    )
    try:
        with pytest.raises(ExecutionError, match="retries exhausted"):
            backend.run(_die_in_worker, (os.getpid(), 0))
        snap = backend.stats_snapshot()
        assert snap["failures"] == 1
        assert snap["retried"] == 1
        assert not backend.degraded
    finally:
        backend.close()


def test_unit_timeout_counts_and_retries():
    backend = ProcessPoolBackend(
        workers=1,
        timeout_s=0.2,
        max_retries=1,
        degrade_after=0,
        backoff_base_s=0.01,
    )
    try:
        with pytest.raises(ExecutionError):
            backend.run(_sleep_in_worker, (os.getpid(), 30.0))
        snap = backend.stats_snapshot()
        assert snap["timeouts"] >= 1
        assert snap["worker_restarts"] >= 1
    finally:
        backend.close()


def test_success_resets_strike_counter(tmp_path):
    backend = ProcessPoolBackend(
        workers=2, degrade_after=2, backoff_base_s=0.01
    )
    try:
        for i in range(3):
            flag = str(tmp_path / f"crash-{i}")
            assert backend.run(_suicide_once, (flag, i)) == i * 10
        # Three crashes happened, but never two *consecutive* failures:
        # each retry succeeded, so degradation must not have tripped.
        assert not backend.degraded
        assert backend.stats_snapshot()["degradations"] == 0
    finally:
        backend.close()
