"""What a trial *is*: its spec, the registries it names, its batch key.

A :class:`TrialSpec` names one (workload, simulator, ``B``, repeat) cell
declaratively — registry names plus sorted ``(key, value)`` pairs of
JSON scalars — so it can be shipped to a worker process, hashed into a
cache key or forwarded over the wire.  This module is the one home of
that identity: the spec and its parameter check, the workload registry
(:data:`WORKLOADS`, :func:`register_workload`) with its five built-in
builders, the simulator names (:data:`SIMULATORS`),
:func:`batch_compat_key` and the root-seed range
(:func:`check_root_seed`).

It imports neither NumPy nor the lockstep driver, so a process that
only parses, keys and forwards trials — the cluster router — never
loads the simulator.  The builders import their networks, and NumPy,
inside their bodies; running a trial is :mod:`repro.sim.sweep`'s job,
which re-exports everything here (as do :mod:`repro.sim.batch` and
:mod:`repro.service`), and which checks at import that
:data:`SIMULATORS` names exactly the model table.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from ..cache import CACHE_VERSION as _CACHE_VERSION
from ..network.errors import NetworkError

__all__ = [
    "SIMULATORS",
    "TrialSpec",
    "WORKLOADS",
    "Workload",
    "batch_compat_key",
    "check_root_seed",
    "register_workload",
    "with_trial_B",
]

#: Every simulator name a :class:`TrialSpec` may carry: the rows of
#: :data:`repro.sim.batch.LOCKSTEP_MODELS`, stated here without
#: importing a kernel; :mod:`repro.sim.sweep` fails its import if the
#: two ever differ.
SIMULATORS: tuple[str, ...] = (
    "wormhole",
    "cut_through",
    "store_forward",
    "restricted",
    "adaptive",
)

_Scalar = (str, int, float, bool, type(None))


def _check_params(params: dict[str, Any], what: str) -> tuple[tuple[str, Any], ...]:
    """Normalize a parameter dict to a sorted, JSON-safe tuple of pairs.

    NumPy scalars become the Python scalar of their kind.  Only a process
    that has imported NumPy can hold one, so it is looked up in
    ``sys.modules`` instead of imported here.
    """
    np = sys.modules.get("numpy")
    items = []
    for key in sorted(params):
        value = params[key]
        if np is not None:
            if isinstance(value, np.bool_):
                value = bool(value)
            elif isinstance(value, np.integer):
                value = int(value)
            elif isinstance(value, np.floating):
                value = float(value)
        if not isinstance(value, _Scalar):
            raise NetworkError(
                f"{what} parameter {key!r} must be a JSON scalar, "
                f"got {type(value).__name__}"
            )
        items.append((str(key), value))
    return tuple(items)


def exact_int(value: Any, name: str) -> int:
    """``value`` as an ``int``; a fraction, bool, string or ``nan`` is
    an error, never truncated (``2.0`` is ``2``, ``True`` is not ``1``)."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        as_int = None
    if as_int is None or as_int != value or isinstance(value, bool):
        raise NetworkError(f"{name} must be an integer, got {value!r}")
    return as_int


def check_root_seed(root_seed: Any) -> int:
    """``root_seed`` as an ``int`` in ``[0, 2**32)``, the 32 bits the
    trial-seed derivation keys on (:func:`repro.sim.sweep.trial_seed`).
    Anything else is an error: a seed outside the range would rerun the
    in-range seed it aliases (``2**32`` is ``0``) under a new cache key."""
    seed = exact_int(root_seed, "root_seed")
    if not 0 <= seed < 1 << 32:
        raise NetworkError(f"root_seed must be in [0, 2**32), got {seed}")
    return seed


@dataclass(frozen=True)
class TrialSpec:
    """One cell of a sweep grid.

    A spec is pure data: workload and simulator are registry *names*, the
    parameter tuples are sorted ``(key, value)`` pairs of JSON scalars.
    Two specs with equal fields denote the same trial — same derived
    seed, same cache entry.
    """

    workload: str
    simulator: str
    B: int = 1
    workload_params: tuple[tuple[str, Any], ...] = ()
    sim_params: tuple[tuple[str, Any], ...] = ()
    message_length: int | None = None
    repeat: int = 0

    @classmethod
    def make(
        cls,
        workload: str,
        simulator: str,
        *,
        B: int = 1,
        workload_params: dict[str, Any] | None = None,
        sim_params: dict[str, Any] | None = None,
        message_length: int | None = None,
        repeat: int = 0,
    ) -> "TrialSpec":
        builder = _builder(workload)
        if simulator not in SIMULATORS:
            raise NetworkError(
                f"unknown simulator {simulator!r}; "
                f"registered: {', '.join(sorted(SIMULATORS))}"
            )
        B, repeat = exact_int(B, "B"), exact_int(repeat, "repeat")
        if message_length is not None:
            message_length = exact_int(message_length, "message_length")
        if B < 1:
            raise NetworkError("B must be >= 1")
        if repeat < 0:
            raise NetworkError("repeat must be >= 0")
        return cls(
            workload=workload,
            simulator=simulator,
            B=B,
            workload_params=_check_params(
                with_trial_B(builder, workload_params or {}, B), "workload"
            ),
            sim_params=_check_params(sim_params or {}, "simulator"),
            message_length=message_length,
            repeat=repeat,
        )

    def key(self) -> dict[str, Any]:
        """The trial's canonical identity (JSON-ready)."""
        return {
            "workload": self.workload,
            "workload_params": list(map(list, self.workload_params)),
            "simulator": self.simulator,
            "sim_params": list(map(list, self.sim_params)),
            "B": self.B,
            "message_length": self.message_length,
            "repeat": self.repeat,
        }

    def cache_key(self, root_seed: int) -> str:
        payload = {"v": _CACHE_VERSION, "root_seed": int(root_seed), **self.key()}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def label(self) -> str:
        rep = f" r{self.repeat}" if self.repeat else ""
        return f"{self.simulator}/{self.workload} B={self.B}{rep}"


def batch_compat_key(spec) -> tuple:
    """What makes two sweep cells / service requests lockstep-compatible.

    Trials sharing this key can ride in one ``run_<model>_batch`` call:
    they share the model, the workload (hence the path matrix), ``L``,
    and the sim params (hence the priority discipline), while the
    per-trial knob (``B``, buffer size, bandwidth) varies per trial via
    the batch engine's per-trial capacities and seeds stay per-trial by
    construction.  ``repeat`` only separates derived seeds, so it never
    splits a batch.

    Both packers — :func:`repro.sim.sweep.run_sweep` and the
    :class:`repro.service.batcher.DynamicBatcher` — and the cluster
    router's hash ring key on this one helper, so "compatible" cannot
    drift between the offline and online paths.  ``spec`` is any object
    with the :class:`TrialSpec` identity fields.
    """
    return (
        spec.simulator,
        spec.workload,
        spec.workload_params,
        spec.message_length,
        spec.sim_params,
    )


# ----------------------------------------------------------------------
# Workload registry
# ----------------------------------------------------------------------


@dataclass
class Workload:
    """A built instance, ready to route: the whole trial but ``B`` and
    the seed.

    ``paths`` serve the path-routed simulators; ``demands``/``cube``
    serve the adaptive mesh router.  ``default_length`` supplies ``L``
    when the spec leaves ``message_length`` unset, and ``info`` carries
    JSON-safe provenance (C, D, M, ...) copied into trial metrics.
    ``release_times`` are per-message release steps (an open-loop
    trace's arrivals); ``sources`` (per-message injection-queue ids)
    and ``vc_ids`` (per-hop virtual-channel classes) are wormhole-only.
    ``arbitration`` is the instance's own priority or adaptive policy
    (a Dally-Seitz ring's ``"index"``); a model whose arbitration
    choices do not offer it runs the caller's option or its table
    default (:func:`repro.sim.batch.run_model`).  Every front door passes all
    of these to the model, so a trial never depends on which door ran
    it.  ``facts`` (JSON-safe) are what the builder knows about the
    instance that an expectation row needs (``acyclic``, ``built_B``,
    ...; :mod:`repro.fuzz.expectations`); no trial metric reads them.
    """

    net: Any
    paths: list | None = None
    demands: list | None = None
    cube: Any = None
    default_length: int = 8
    info: dict[str, Any] = field(default_factory=dict)
    release_times: Any = None
    sources: Any = None
    vc_ids: Any = None
    arbitration: str | None = None
    facts: dict[str, Any] = field(default_factory=dict)
    # Not an init field, so ``dataclasses.replace`` never carries the
    # pack of the paths it replaces.
    _padded: Any = field(default=None, init=False, repr=False, compare=False)

    def padded_paths(self):
        """The packed :class:`~repro.sim.engine.PaddedPaths`, built once.

        Repeated trials of the same grid cell share the padded matrix and
        its one-time edge-simplicity validation instead of re-packing the
        path lists per trial.
        """
        if self.paths is None:
            raise NetworkError("workload has no paths")
        if self._padded is None:
            from .engine import PaddedPaths

            self._padded = PaddedPaths.from_paths(self.paths)
        return self._padded


WORKLOADS: dict[str, Callable[..., Workload]] = {}


def _builder(name: str) -> Callable[..., Workload]:
    """The registered builder; every unknown-name error is raised here.

    ``scenario:<name>`` builders register when :mod:`repro.scenarios` is
    imported, so a miss pulls it in before giving up — a process that
    never touched the scenario library (a tier, a pool worker) still
    resolves them, and the error lists them.
    """
    if name not in WORKLOADS:
        from .. import scenarios  # noqa: F401
    try:
        return WORKLOADS[name]
    except KeyError:
        raise NetworkError(
            f"unknown workload {name!r}; "
            f"registered: {', '.join(sorted(WORKLOADS))}"
        ) from None


@functools.cache
def _takes_B(builder: Callable[..., Workload]) -> bool:
    return "B" in inspect.signature(builder).parameters


def with_trial_B(
    builder: Callable[..., Workload], params: dict[str, Any], B: int
) -> dict[str, Any]:
    """``params`` for ``builder`` in a trial at ``B``: a builder that
    takes a ``B`` (an instance built *for* a ``B``, such as Theorem
    2.2.1's) is built for the trial's, unless ``params`` names one
    (E2b routes the ``B = 1`` instance at other ``B`` on purpose).

    A spec with ``B`` filled in is the spec that names it, so the cache
    key is the one the explicit form always had.  Whether a builder
    takes ``B`` is read from its signature once per builder.
    """
    if "B" in params or not _takes_B(builder):
        return params
    return {**params, "B": B}


def register_workload(name: str) -> Callable:
    """Register ``fn(**params) -> Workload`` under ``name``."""

    def deco(fn: Callable[..., Workload]) -> Callable[..., Workload]:
        WORKLOADS[name] = fn
        return fn

    return deco


@register_workload("layered")
def _wl_layered(
    width: int = 10,
    depth: int = 10,
    out_degree: int = 3,
    messages: int = 120,
    seed: int = 0,
) -> Workload:
    import numpy as np

    from ..network.random_networks import layered_network, random_walk_paths
    from ..routing.paths import congestion, dilation, paths_from_node_walks

    rng = np.random.default_rng(seed)
    net = layered_network(width, depth, out_degree, rng)
    walks = random_walk_paths(net, width, depth, messages, rng)
    paths = paths_from_node_walks(net, walks)
    C, D = congestion(paths), dilation(paths)
    return Workload(
        net=net,
        paths=paths,
        default_length=D,
        info={"congestion": C, "dilation": D, "messages": len(paths)},
    )


@register_workload("hard-instance")
def _wl_hard_instance(C: int = 8, D: int = 15, B: int = 1) -> Workload:
    from ..core.lower_bound import build_hard_instance

    inst = build_hard_instance(C=C, D=D, B=B)
    return Workload(
        net=inst.network,
        paths=inst.paths,
        default_length=inst.recommended_length(),
        info={
            "congestion": inst.congestion,
            "dilation": inst.dilation,
            "messages": inst.num_messages,
            "m_prime": inst.m_prime,
        },
    )


@register_workload("chain-bundle")
def _wl_chain_bundle(
    chains: int = 4, depth: int = 12, messages: int = 8
) -> Workload:
    from ..network.random_networks import chain_bundle
    from ..routing.paths import paths_from_node_walks

    net, walks = chain_bundle(chains, depth, messages)
    paths = paths_from_node_walks(net, walks)
    return Workload(
        net=net,
        paths=paths,
        default_length=2 * depth,
        info={"congestion": messages, "dilation": depth, "messages": len(paths)},
    )


@register_workload("butterfly-bitrev")
def _wl_butterfly_bitrev(n: int = 8) -> Workload:
    from ..network.butterfly import Butterfly
    from ..routing.problems import bit_reversal_permutation

    bf = Butterfly(n)
    inst = bit_reversal_permutation(n)
    paths = [list(r) for r in bf.path_edges_batch(inst.sources, inst.dests)]
    return Workload(
        net=bf,
        paths=paths,
        default_length=16,
        info={"n": n, "messages": len(paths)},
    )


@register_workload("mesh-permutation")
def _wl_mesh_permutation(k: int = 6, seed: int = 0) -> Workload:
    import numpy as np

    from ..network.mesh import KAryNCube

    cube = KAryNCube(k, 2, wrap=False)
    perm = np.random.default_rng(seed).permutation(k * k)
    demands = [(i, int(d)) for i, d in enumerate(perm) if i != int(d)]
    return Workload(
        net=cube.network,
        demands=demands,
        cube=cube,
        default_length=k,
        info={"k": k, "messages": len(demands)},
    )
