"""Optional JIT build of the inner contend/rank/grant step.

The single hottest primitive in :mod:`repro.sim` is the segmented grant
scan at the heart of :func:`repro.sim.engine.grant_free_slots`: given
contenders sorted by ``(slot, priority)``, rank each contender within
its slot group and grant the first ``capacity - occupancy`` of every
group.  The caller hands it only the contenders of over-subscribed
slots — possibly none (DESIGN decision 22).  This module provides two
interchangeable builds of that scan:

``"numpy"``
    The pure-NumPy segmented scan (group boundaries via a shifted
    compare, ranks via ``maximum.accumulate``).  This is the **semantic
    reference**: it is always available and always correct.
``"numba"``
    A ``@njit``-compiled linear scan over the same sorted order.  The
    scan is a single O(n) integer loop, which a JIT executes without
    the five intermediate arrays the NumPy build allocates per call.

Both builds consume the *same* lexsort order computed by the caller and
perform the same integer comparisons in the same sequence, so their
grant masks are bit-identical — the backend choice can never change a
simulation result.  The suite in ``tests/sim/test_fastpath.py`` pins
both against a naive per-slot reference.

Backend selection
-----------------
At import time the module tries ``import numba``; if it imports
cleanly the jitted build is used, otherwise the NumPy build.  The
``REPRO_FASTPATH`` environment variable forces the choice:

* ``REPRO_FASTPATH=numpy`` — always use the NumPy reference (even with
  numba installed);
* ``REPRO_FASTPATH=numba`` — require the jitted build; raise
  immediately if numba is not importable (instead of silently running
  slow);
* unset / empty — auto-select.

:func:`active_backend` reports the resolved choice (``"numpy"`` or
``"numba"``) so benchmarks and CI can record / assert it.

Importing this module never requires numba: the jit decoration happens
only after a successful ``import numba``.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "active_backend",
    "segmented_grant",
    "segmented_grant_numpy",
]

_ENV_VAR = "REPRO_FASTPATH"
_CHOICES = ("", "auto", "numpy", "numba")


def _resolve_backend() -> str:
    """Pick the scan build from the environment + numba availability."""
    forced = os.environ.get(_ENV_VAR, "").strip().lower()
    if forced not in _CHOICES:
        raise RuntimeError(
            f"{_ENV_VAR} must be one of 'numba' or 'numpy' (or unset), "
            f"got {forced!r}"
        )
    if forced == "numpy":
        return "numpy"
    try:
        import numba  # noqa: F401
    except Exception as exc:  # pragma: no cover - depends on environment
        if forced == "numba":
            raise RuntimeError(
                f"{_ENV_VAR}=numba but numba is not importable: {exc}"
            ) from exc
        return "numpy"
    return "numba"


def segmented_grant_numpy(
    sorted_slots: np.ndarray,
    sorted_caps: np.ndarray,
    occupancy: np.ndarray | None,
) -> np.ndarray:
    """The NumPy reference build of the segmented grant scan.

    ``sorted_slots`` holds the contenders' slot ids in lexsorted
    ``(slot, priority)`` order, ``sorted_caps`` the per-contender slot
    capacity in the same order (constant within a slot group) or one
    scalar capacity for every slot.  Returns
    the granted mask *in sorted order*: contender ``i`` is granted iff
    its rank within its slot group is below the group's free capacity
    (``capacity - occupancy[slot]``).
    """
    n = sorted_slots.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_slots[1:], sorted_slots[:-1], out=new_group[1:])
    arange = np.arange(n)
    group_start = np.maximum.accumulate(arange * new_group)
    rank = arange - group_start
    if occupancy is None:
        return rank < sorted_caps
    return rank < sorted_caps - occupancy[sorted_slots]


def _build_numba_scan():  # pragma: no cover - exercised on the numba CI leg
    """Compile the linear-scan build (called only when numba imports)."""
    import numba

    @numba.njit(cache=True)
    def _scan(sorted_slots, sorted_caps, occupancy, use_occ, out):
        rank = np.int64(0)
        prev = np.int64(-1)
        free = np.int64(0)
        first = True
        for i in range(sorted_slots.size):
            s = sorted_slots[i]
            if first or s != prev:
                rank = 0
                prev = s
                free = sorted_caps[i]
                if use_occ:
                    free -= occupancy[s]
                first = False
            out[i] = rank < free
            rank += 1
        return out

    _empty_occ = np.zeros(0, dtype=np.int64)

    def segmented_grant_numba(sorted_slots, sorted_caps, occupancy):
        out = np.empty(sorted_slots.size, dtype=np.bool_)
        # The jitted scan indexes a real contiguous array; a scalar
        # capacity (0-d under ``ascontiguousarray``) is spread out here.
        if np.ndim(sorted_caps) == 0:
            sorted_caps = np.full(sorted_slots.size, sorted_caps, dtype=np.int64)
        else:
            sorted_caps = np.ascontiguousarray(sorted_caps)
        if occupancy is None:
            _scan(sorted_slots, sorted_caps, _empty_occ, False, out)
        else:
            _scan(sorted_slots, sorted_caps, occupancy, True, out)
        return out

    return segmented_grant_numba


_BACKEND = _resolve_backend()

if _BACKEND == "numba":  # pragma: no cover - exercised on the numba CI leg
    try:
        segmented_grant = _build_numba_scan()
    except Exception:
        # numba imported but jit compilation is unavailable (e.g. broken
        # LLVM); fall back unless the user explicitly demanded numba.
        if os.environ.get(_ENV_VAR, "").strip().lower() == "numba":
            raise
        _BACKEND = "numpy"
        segmented_grant = segmented_grant_numpy
else:
    segmented_grant = segmented_grant_numpy


def active_backend() -> str:
    """The resolved scan build: ``"numpy"`` or ``"numba"``."""
    return _BACKEND
