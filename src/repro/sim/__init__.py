"""Router substrate: flit-level simulators and deadlock analysis."""

from .._lazy import attach

_EXPORTS = {
    "AdaptiveRunResult": ".stats",
    "BatchSlotArbiter": ".engine",
    "BatchStepLoop": ".engine",
    "CircuitSwitchResult": ".circuit",
    "ContinuousResult": ".continuous",
    "LOCKSTEP_MODELS": ".batch",
    "PaddedPaths": ".engine",
    "SimulationResult": ".stats",
    "SweepResult": ".sweep",
    "TrialResult": ".sweep",
    "TrialSpec": ".spec",
    "arbitrate_levels": ".circuit",
    "channel_dependency_graph": ".deadlock",
    "check_edge_simple": ".engine",
    "circuit_switch_butterfly": ".circuit",
    "dateline_vc_assignment": ".deadlock",
    "default_step_cap": ".batch",
    "grant_free_slots": ".engine",
    "has_cycle": ".deadlock",
    "is_deadlock_free": ".deadlock",
    "pad_paths": ".engine",
    "resolve_step_cap": ".batch",
    "run_adaptive_batch": ".batch",
    "run_cut_through_batch": ".batch",
    "run_model": ".batch",
    "run_restricted_batch": ".batch",
    "run_store_forward_batch": ".batch",
    "run_sweep": ".sweep",
    "run_wormhole_batch": ".batch",
    "summarize_latencies": ".stats",
    "sweep_grid": ".sweep",
    "wait_for_graph": ".deadlock",
}
__getattr__, __dir__ = attach(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
