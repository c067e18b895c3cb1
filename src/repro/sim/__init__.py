"""Router substrate: flit-level simulators and deadlock analysis."""

from .adaptive import AdaptiveMeshRouter, AdaptiveRunResult
from .batch import (
    LOCKSTEP_MODELS,
    default_step_cap,
    resolve_step_cap,
    run_adaptive_batch,
    run_cut_through_batch,
    run_model,
    run_restricted_batch,
    run_store_forward_batch,
    run_wormhole_batch,
)
from .circuit import CircuitSwitchResult, circuit_switch_butterfly
from .continuous import ContinuousResult, ContinuousWormholeSimulator
from .cut_through import CutThroughSimulator
from .deadlock import (
    channel_dependency_graph,
    dateline_vc_assignment,
    has_cycle,
    is_deadlock_free,
    wait_for_graph,
)
from .engine import (
    BatchSlotArbiter,
    BatchStepLoop,
    PaddedPaths,
    check_edge_simple,
    grant_free_slots,
    pad_paths,
)
from .restricted import RestrictedWormholeSimulator
from .stats import SimulationResult, summarize_latencies
from .store_forward import StoreForwardSimulator
from .sweep import SweepResult, TrialResult, TrialSpec, run_sweep, sweep_grid
from .wormhole import WormholeSimulator

__all__ = [
    "AdaptiveMeshRouter",
    "AdaptiveRunResult",
    "BatchSlotArbiter",
    "BatchStepLoop",
    "CircuitSwitchResult",
    "ContinuousResult",
    "ContinuousWormholeSimulator",
    "CutThroughSimulator",
    "LOCKSTEP_MODELS",
    "PaddedPaths",
    "RestrictedWormholeSimulator",
    "SimulationResult",
    "StoreForwardSimulator",
    "SweepResult",
    "TrialResult",
    "TrialSpec",
    "WormholeSimulator",
    "channel_dependency_graph",
    "check_edge_simple",
    "circuit_switch_butterfly",
    "dateline_vc_assignment",
    "default_step_cap",
    "grant_free_slots",
    "has_cycle",
    "is_deadlock_free",
    "pad_paths",
    "resolve_step_cap",
    "run_adaptive_batch",
    "run_cut_through_batch",
    "run_model",
    "run_restricted_batch",
    "run_store_forward_batch",
    "run_sweep",
    "run_wormhole_batch",
    "summarize_latencies",
    "sweep_grid",
    "wait_for_graph",
]
