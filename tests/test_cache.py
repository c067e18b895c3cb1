"""Unit tests for the shared content-hash result cache (repro.cache)."""

import json

import pytest

from repro.cache import CACHE_VERSION, ResultCache, load_entry, store_entry
from repro.sim.sweep import TrialSpec, run_sweep

WORKLOAD_PARAMS = {"chains": 2, "depth": 4, "messages": 3}


def _spec(B=2, repeat=0):
    return TrialSpec.make(
        "chain-bundle",
        "wormhole",
        B=B,
        workload_params=WORKLOAD_PARAMS,
        message_length=8,
        repeat=repeat,
    )


def test_roundtrip_and_counters(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = _spec()
    key = spec.cache_key(root_seed=7)
    metrics = {"makespan": 42, "delivered": 6}

    assert cache.load(key, spec.key()) is None  # cold miss
    cache.store(key, spec.key(), metrics, root_seed=7)
    assert cache.load(key, spec.key()) == metrics
    assert len(cache) == 1
    snap = cache.snapshot()
    assert (snap["cache_hits"], snap["cache_misses"], snap["cache_stores"]) == (
        1, 1, 1,
    )
    assert snap["cache_hit_rate"] == pytest.approx(0.5)
    # The bare hits / misses / stores / hit_rate aliases are retired.
    assert set(snap) == {
        "dir",
        "cache_hits",
        "cache_misses",
        "cache_stores",
        "cache_store_errors",
        "cache_corrupt",
        "cache_hit_rate",
    }
    assert (snap["cache_store_errors"], snap["cache_corrupt"]) == (0, 0)


def test_identity_mismatch_is_a_miss_not_a_wrong_answer(tmp_path):
    """The hash-collision fallback: stored identity must match exactly."""
    cache = ResultCache(tmp_path)
    spec, other = _spec(B=2), _spec(B=4)
    key = spec.cache_key(root_seed=0)
    cache.store(key, spec.key(), {"makespan": 1}, root_seed=0)
    # Same file looked up under a different identity (a collision).
    assert cache.load(key, other.key()) is None
    assert cache.load(key, spec.key()) == {"makespan": 1}


def test_stale_version_and_corrupt_files_are_misses(tmp_path):
    spec = _spec()
    key = spec.cache_key(root_seed=0)
    path = tmp_path / f"{key}.json"

    store_entry(path, spec.key(), {"makespan": 3}, root_seed=0)
    payload = json.loads(path.read_text())
    assert payload["v"] == CACHE_VERSION == 2
    for stale in (1, CACHE_VERSION + 1):  # 1: written before the digest
        payload["v"] = stale
        path.write_text(json.dumps(payload))
        assert load_entry(path, spec.key()) is None  # stale format

    path.write_text("{not json")
    assert load_entry(path, spec.key()) is None  # corrupt

    path.write_text(json.dumps({"v": CACHE_VERSION, "spec": spec.key()}))
    assert load_entry(path, spec.key()) is None  # metrics missing

    assert load_entry(tmp_path / "absent.json", spec.key()) is None


@pytest.mark.parametrize("body", ["[]", "null", "42", '"x"', None])
def test_a_file_that_is_not_a_json_object_is_a_miss_and_a_recompute(
    tmp_path, body
):
    """``load_entry`` used to call ``.get`` on whatever parsed, raising
    ``AttributeError`` into the caller's request (``None``: truncated)."""
    spec = _spec()
    (fresh,) = run_sweep([spec], root_seed=3)
    cache = ResultCache(tmp_path)
    key = spec.cache_key(3)
    cache.store(key, spec.key(), fresh.metrics, root_seed=3)
    path = tmp_path / f"{key}.json"
    stored = path.read_text()
    path.write_text(stored[: len(stored) // 2] if body is None else body)

    assert cache.load(key, spec.key()) is None
    assert cache.snapshot()["cache_misses"] == 1
    (again,) = run_sweep([spec], root_seed=3, cache_dir=tmp_path)
    assert not again.cached and again.metrics == fresh.metrics
    assert cache.load(key, spec.key()) == fresh.metrics  # rewritten whole


def test_damaged_metrics_are_a_counted_miss_not_a_wrong_answer(tmp_path):
    """Valid JSON, right identity, edited metrics: the digest catches it."""
    spec = _spec()
    (fresh,) = run_sweep([spec], root_seed=3, cache_dir=tmp_path)
    path = tmp_path / f"{spec.cache_key(3)}.json"
    payload = json.loads(path.read_text())
    payload["metrics"]["makespan"] += 1
    path.write_text(json.dumps(payload))

    cache = ResultCache(tmp_path)
    assert cache.load(spec.cache_key(3), spec.key()) is None
    snap = cache.snapshot()
    assert (snap["cache_misses"], snap["cache_corrupt"]) == (1, 1)
    (again,) = run_sweep([spec], root_seed=3, cache_dir=tmp_path)
    assert not again.cached and again.metrics == fresh.metrics


def test_a_refused_write_is_counted_never_raised(tmp_path, full_cache_disk):
    """A full cache directory costs the entries, never the results."""
    specs = [_spec(B=1), _spec(B=2)]
    results = run_sweep(specs, root_seed=5, cache_dir=tmp_path)
    serial = run_sweep(specs, root_seed=5)
    assert [r.metrics for r in results] == [r.metrics for r in serial]
    cache = ResultCache(tmp_path)
    cache.store(specs[0].cache_key(5), specs[0].key(), {"makespan": 1}, 5)
    snap = cache.snapshot()
    assert (snap["cache_stores"], snap["cache_store_errors"]) == (0, 1)
    assert list(tmp_path.iterdir()) == []  # no entry, no stray temp file


def test_sweep_entries_are_readable_through_result_cache(tmp_path):
    """Cross-consumer compatibility: the sweep writes, the cluster reads.

    ``run_sweep(cache_dir=...)`` and :class:`ResultCache` must agree on
    keying and on-disk format — that agreement is what makes the
    router's cache a *cross-worker* tier rather than a private one.
    """
    specs = [_spec(B=1), _spec(B=2)]
    results = run_sweep(specs, root_seed=5, cache_dir=tmp_path)

    cache = ResultCache(tmp_path)
    for spec, result in zip(specs, results):
        assert cache.load(spec.cache_key(5), spec.key()) == result.metrics
    # And the reverse: an entry stored via ResultCache is a sweep hit.
    extra = _spec(B=4)
    cache.store(extra.cache_key(5), extra.key(), {"makespan": 9}, root_seed=5)
    rerun = run_sweep([*specs, extra], root_seed=5, cache_dir=tmp_path)
    assert [r.cached for r in rerun] == [True, True, True]
    assert rerun.trials[2].metrics == {"makespan": 9}
