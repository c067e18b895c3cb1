"""Parity and backend-selection tests for :mod:`repro.sim.fastpath`.

The fastpath module swaps the inner rank/grant scan of
:func:`repro.sim.engine.grant_free_slots` between a NumPy build and an
optional numba jit.  These tests pin three things:

1. the module imports and resolves a backend without numba installed;
2. the ``REPRO_FASTPATH`` override is honoured (and rejected when it
   cannot be, or is garbage) — checked in subprocesses because the
   choice is made at import time;
3. the production grant kernel is bit-identical to the naive per-slot
   reference across every priority shape the routers feed it (random
   floats, age counters, rank permutations), mixed per-contender
   capacities, pre-existing occupancy, and degenerate boundaries;
4. the grant pays for contested seats only: cases drawn to land in each
   of its classes (all full, viable and uncontested, mixed,
   over-occupied) equal the reference, the sort sees nothing but the
   contenders of over-subscribed slots, and every non-empty round makes
   exactly one scan call.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import fastpath
from repro.sim.engine import grant_free_slots, grant_free_slots_reference

# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------


def _probe(env_value):
    """Import fastpath in a subprocess with REPRO_FASTPATH=env_value."""
    code = (
        "from repro.sim import fastpath; print(fastpath.active_backend())"
    )
    import os

    env = dict(os.environ)
    if env_value is None:
        env.pop("REPRO_FASTPATH", None)
    else:
        env["REPRO_FASTPATH"] = env_value
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
    )


def test_import_without_numba_resolves_a_backend():
    assert fastpath.active_backend() in ("numpy", "numba")


def test_auto_backend_matches_numba_availability():
    try:
        import numba  # noqa: F401

        expected = "numba"
    except ImportError:
        expected = "numpy"
    proc = _probe(None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


def test_forced_numpy_always_wins():
    proc = _probe("numpy")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "numpy"


def test_forced_numba_without_numba_raises():
    try:
        import numba  # noqa: F401

        pytest.skip("numba is installed; the failure leg needs it absent")
    except ImportError:
        pass
    proc = _probe("numba")
    assert proc.returncode != 0
    assert "REPRO_FASTPATH" in proc.stderr


def test_invalid_backend_value_raises():
    proc = _probe("cython")
    assert proc.returncode != 0
    assert "REPRO_FASTPATH" in proc.stderr


def test_case_and_whitespace_insensitive():
    proc = _probe("  NumPy ")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "numpy"


# ----------------------------------------------------------------------
# scan build parity (sorted-order interface)
# ----------------------------------------------------------------------


def test_segmented_grant_numpy_empty():
    out = fastpath.segmented_grant_numpy(
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), None
    )
    assert out.shape == (0,) and out.dtype == bool


def test_segmented_grant_matches_reference_build():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(0, 40))
        sorted_slots = np.sort(rng.integers(0, 8, size=n))
        caps = rng.integers(1, 5, size=n)
        # Capacity must be constant within a slot group.
        for s in np.unique(sorted_slots):
            caps[sorted_slots == s] = caps[sorted_slots == s][0]
        occ = rng.integers(0, 3, size=8)
        a = fastpath.segmented_grant(sorted_slots, caps, occ)
        b = fastpath.segmented_grant_numpy(sorted_slots, caps, occ)
        assert np.array_equal(a, b)


def _scalar_capacity_cases():
    """Sorted-order scan inputs with one capacity for every slot, and the
    naive per-slot oracle's answer in the same order."""
    rng = np.random.default_rng(1)
    for case in range(60):
        n = int(rng.integers(1, 40))
        slots = rng.integers(0, 8, size=n)
        prio = rng.random(n)
        cap = int(rng.integers(1, 5))
        occ = rng.integers(0, cap + 1, size=8) if case % 2 else None
        order = np.lexsort((prio, slots))
        want = grant_free_slots_reference(slots, prio, cap, occ)[order]
        yield slots[order], cap, occ, want


def test_segmented_grant_numpy_scalar_capacity():
    """A lone trial's grant hands the scan its capacity as a scalar."""
    for sorted_slots, cap, occ, want in _scalar_capacity_cases():
        got = fastpath.segmented_grant_numpy(sorted_slots, cap, occ)
        assert got.dtype == bool and np.array_equal(got, want)
        as_array = fastpath.segmented_grant_numpy(
            sorted_slots, np.full(sorted_slots.size, cap), occ
        )
        assert np.array_equal(got, as_array)


def test_segmented_grant_numba_scalar_capacity():
    """The jitted wrapper spreads a scalar capacity out itself
    (``np.ascontiguousarray`` of a scalar is 0-d and cannot be indexed
    per contender)."""
    pytest.importorskip("numba")
    scan = fastpath._build_numba_scan()
    for sorted_slots, cap, occ, want in _scalar_capacity_cases():
        for capacity in (cap, np.int64(cap)):
            got = scan(sorted_slots, capacity, occ)
            assert got.dtype == bool and np.array_equal(got, want)


def test_grant_free_slots_empty_is_checked_before_the_sort(monkeypatch):
    """No contenders: no lexsort, no scan call."""
    def boom(*a, **k):  # pragma: no cover - must not run
        raise AssertionError("sorted / scanned an empty round")

    monkeypatch.setattr(np, "lexsort", boom)
    monkeypatch.setattr(fastpath, "segmented_grant", boom)
    empty = np.zeros(0, dtype=np.int64)
    out = grant_free_slots(empty, np.zeros(0), 1)
    assert out.shape == (0,) and out.dtype == bool


# ----------------------------------------------------------------------
# grant_free_slots vs naive reference (hypothesis)
# ----------------------------------------------------------------------

_PRIO_MODES = ("random", "age", "rank")


def _priorities(rng, n, mode):
    if mode == "random":
        return rng.random(n)
    if mode == "age":
        # Age counters: small non-negative ints with heavy ties.
        return rng.integers(0, 4, size=n).astype(np.float64)
    # Rank: a permutation — every priority distinct.
    return rng.permutation(n).astype(np.float64)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=64),
    n_slots=st.integers(min_value=1, max_value=9),
    mode=st.sampled_from(_PRIO_MODES),
    scalar_cap=st.integers(min_value=1, max_value=4),
    use_occupancy=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_grant_parity_scalar_capacity(
    n, n_slots, mode, scalar_cap, use_occupancy, seed
):
    rng = np.random.default_rng(seed)
    slots = rng.integers(0, n_slots, size=n)
    prio = _priorities(rng, n, mode)
    occ = (
        rng.integers(0, scalar_cap + 1, size=n_slots)
        if use_occupancy
        else None
    )
    got = grant_free_slots(slots, prio, scalar_cap, occ)
    want = grant_free_slots_reference(slots, prio, scalar_cap, occ)
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=64),
    n_slots=st.integers(min_value=1, max_value=9),
    mode=st.sampled_from(_PRIO_MODES),
    use_occupancy=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_grant_parity_mixed_capacity_array(
    n, n_slots, mode, use_occupancy, seed
):
    """Per-contender capacity arrays — the mixed-B batched-arbiter shape."""
    rng = np.random.default_rng(seed)
    slots = rng.integers(0, n_slots, size=n)
    prio = _priorities(rng, n, mode)
    # Each slot belongs to one trial with its own B: capacity varies by
    # slot but is constant within a slot group, exactly as
    # BatchSlotArbiter guarantees.
    per_slot_cap = rng.integers(1, 5, size=n_slots)
    capacity = per_slot_cap[slots]
    occ = (
        np.minimum(
            rng.integers(0, 5, size=n_slots), per_slot_cap
        )
        if use_occupancy
        else None
    )
    got = grant_free_slots(slots, prio, capacity, occ)
    want = grant_free_slots_reference(slots, prio, capacity, occ)
    assert np.array_equal(got, want)


def test_grant_parity_padding_boundary():
    """A slot whose contenders all sit past the free capacity, plus an
    untouched trailing slot — the padded-lane shape batched kernels emit."""
    slots = np.array([3, 3, 3, 3, 7], dtype=np.int64)
    prio = np.array([0.4, 0.1, 0.3, 0.2, 0.5])
    occ = np.zeros(8, dtype=np.int64)
    occ[3] = 2  # only one free seat in slot 3
    occ[7] = 1  # slot 7 already full at capacity 1
    for cap in (1, 3):
        got = grant_free_slots(slots, prio, cap, occ)
        want = grant_free_slots_reference(slots, prio, cap, occ)
        assert np.array_equal(got, want)


def test_grant_parity_tie_order_is_first_come():
    """Equal priorities must grant in input order on both paths."""
    slots = np.zeros(5, dtype=np.int64)
    prio = np.zeros(5)
    got = grant_free_slots(slots, prio, 2)
    want = grant_free_slots_reference(slots, prio, 2)
    assert np.array_equal(got, want)
    assert got.tolist() == [True, True, False, False, False]


# ----------------------------------------------------------------------
# refuse / grant / rank: one case per class, and what reaches the sort
# ----------------------------------------------------------------------

_CLASSES = ("all_full", "uncontested", "mixed", "over_occupied", "no_occupancy")


def _class_case(rng, kind, per_contender, n_slots=7):
    """``(slots, occupancy, capacity, per-slot capacity)`` drawn to land
    in ``kind``."""
    cap_of = rng.integers(1, 5, size=n_slots) if per_contender else np.full(
        n_slots, int(rng.integers(1, 5))
    )
    if kind == "all_full":
        occ = cap_of.copy()
        slots = rng.integers(0, n_slots, size=int(rng.integers(1, 30)))
    elif kind == "uncontested":
        # No slot gets more contenders than it has free seats; some
        # slots are full and draw none at all.
        occ = rng.integers(0, cap_of + 1)
        slots = np.repeat(np.arange(n_slots), rng.integers(0, cap_of - occ + 1))
        if slots.size == 0:
            occ[0], slots = 0, np.zeros(1, dtype=np.int64)
        rng.shuffle(slots)
    elif kind == "mixed":
        # Slot 0 is full, slot 1 has a spare seat for its one contender,
        # slot 2 has more contenders than seats; the rest is random.
        occ = rng.integers(0, cap_of + 1)
        occ[0], occ[1], occ[2] = cap_of[0], cap_of[1] - 1, 0
        fixed = np.r_[0, 0, 1, np.full(cap_of[2] + 2, 2)]
        slots = np.r_[fixed, rng.integers(0, n_slots, size=int(rng.integers(0, 20)))]
        rng.shuffle(slots)
    elif kind == "over_occupied":
        occ = cap_of + rng.integers(0, 3, size=n_slots)  # some beyond capacity
        occ[int(rng.integers(n_slots))] = 0
        slots = rng.integers(0, n_slots, size=int(rng.integers(1, 30)))
    else:
        occ = None
        slots = rng.integers(0, n_slots, size=int(rng.integers(1, 30)))
    slots = slots.astype(np.int64)
    capacity = cap_of[slots] if per_contender else int(cap_of[0])
    return slots, occ, capacity, cap_of


def _spied_grant(slots, prio, capacity, occ):
    """Run one round; also return the keys the sort saw and the
    ``sorted_slots`` of every scan call."""
    sorted_keys, scans = [], []
    real_sort, real_scan = np.lexsort, fastpath.segmented_grant

    def spy_sort(keys, *a, **k):
        sorted_keys.append(np.asarray(keys[-1]).copy())
        return real_sort(keys, *a, **k)

    def spy_scan(sorted_slots, caps, occupancy):  # positional, as perfbench binds it
        assert isinstance(sorted_slots, np.ndarray)
        scans.append(sorted_slots.copy())
        return real_scan(sorted_slots, caps, occupancy)

    # Not the fixture: ``given`` would share one across examples.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "lexsort", spy_sort)
        mp.setattr(fastpath, "segmented_grant", spy_scan)
        got = grant_free_slots(slots, prio, capacity, occ)
    return got, sorted_keys, scans


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(_CLASSES),
    mode=st.sampled_from(_PRIO_MODES),
    per_contender=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_grant_classes_match_reference_and_sort_only_the_contested(
    kind, mode, per_contender, seed
):
    rng = np.random.default_rng(seed)
    slots, occ, capacity, cap_of = _class_case(rng, kind, per_contender)
    prio = _priorities(rng, slots.size, mode)
    want = grant_free_slots_reference(slots, prio, capacity, occ)
    got, sorted_keys, scans = _spied_grant(slots, prio, capacity, occ)
    assert got.dtype == bool and np.array_equal(got, want)

    # The contested: viable contenders of slots with more of them than seats.
    free = cap_of - (0 if occ is None else occ)
    contested = (free[slots] > 0) & (np.bincount(slots, minlength=free.size) > free)[slots]
    assert len(scans) == 1  # one scan call per non-empty round, even of nothing
    assert np.array_equal(scans[0], np.sort(slots[contested]))
    if contested.any():
        assert len(sorted_keys) == 1
        assert np.array_equal(np.sort(sorted_keys[0]), np.sort(slots[contested]))
    else:
        assert sorted_keys == []
    if kind == "all_full":
        assert not got.any()
    if kind == "uncontested":
        assert np.array_equal(got, free[slots] > 0) and not contested.any()
    if kind == "mixed":
        assert contested.any() and not contested.all()


def test_grant_over_occupied_slot_stays_refused():
    """``occupancy > capacity`` is no free seat, not a wrapped count."""
    slots = np.array([0, 0, 1], dtype=np.int64)
    occ = np.array([3, 0], dtype=np.int64)
    for capacity in (2, np.array([2, 2, 2])):
        got = grant_free_slots(slots, np.array([0.2, 0.1, 0.3]), capacity, occ)
        assert got.tolist() == [False, False, True]


def test_grant_rejects_a_negative_slot_id():
    """Per-slot counts come from ``np.bincount``: a negative id is an
    error, not a differently sorted round."""
    slots = np.array([2, -1, 2], dtype=np.int64)
    prio = np.array([0.3, 0.2, 0.1])
    with pytest.raises(ValueError):
        grant_free_slots(slots, prio, 1)
    with pytest.raises(ValueError):
        grant_free_slots(slots, prio, 1, np.zeros(3, dtype=np.int64))
