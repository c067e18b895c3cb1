"""Reproduction of Cole, Maggs & Sitaraman (SPAA 1996 / JCSS 2001):
*On the Benefit of Supporting Virtual Channels in Wormhole Routers*.

The package builds the paper's machine model — flit-level wormhole
routing with ``B`` virtual channels per physical channel — plus every
substrate the analysis touches: butterfly/Benes/mesh/hypercube/etc.
topologies, store-and-forward and virtual cut-through baselines, circuit
switching, the LLL-based offline scheduler of Theorem 2.1.6, the hard
instance of Theorem 2.2.1, and the randomized butterfly algorithm of
Section 3 with its lower-bound machinery.

Quickstart
----------
>>> import numpy as np
>>> from repro import Butterfly, simulate
>>> bf = Butterfly(8)
>>> edges = bf.path_edges_batch(np.arange(8), np.arange(8)[::-1])
>>> result = simulate((bf, [list(r) for r in edges]), B=2, message_length=4)
>>> bool(result.all_delivered)
True
"""

from ._lazy import attach

# Public name -> defining submodule, imported on first access.  Importing
# ``repro`` itself loads nothing else; ``scenario:<name>`` sweep workloads
# register the first time :mod:`repro.sim.sweep` misses a workload name.
_EXPORTS = {
    "AdaptiveRunResult": ".sim.stats",
    "Benes": ".network.benes",
    "Butterfly": ".network.butterfly",
    "ButterflyRouter": ".core.butterfly_routing",
    "ButterflyRoutingResult": ".core.butterfly_routing",
    "CircuitSwitchResult": ".sim.circuit",
    "CompleteTree": ".network.tree",
    "ContinuousResult": ".sim.continuous",
    "DeBruijn": ".network.debruijn",
    "HardInstance": ".core.lower_bound",
    "Hypercube": ".network.hypercube",
    "KAryNCube": ".network.mesh",
    "MODELS": ".facade",
    "MessageEdgeIncidence": ".core.coloring",
    "Multibutterfly": ".network.multibutterfly",
    "Network": ".network.graph",
    "NetworkError": ".network.errors",
    "Path": ".routing.paths",
    "PowerLawFit": ".analysis.fitting",
    "RoutingInstance": ".routing.problems",
    "SIMULATE_MODES": ".facade",
    "ScheduleBuild": ".core.scheduler",
    "ShuffleExchange": ".network.debruijn",
    "SimResult": ".facade",
    "SimulationResult": ".sim.stats",
    "Table": ".analysis.tables",
    "arbitrate_levels": ".sim.circuit",
    "bfs_path": ".routing.shortest",
    "bit_fixing_path": ".network.hypercube",
    "bit_reversal_permutation": ".routing.problems",
    "bounds": ".core.bounds",
    "build_hard_instance": ".core.lower_bound",
    "chain_bundle": ".network.random_networks",
    "channel_dependency_graph": ".sim.deadlock",
    "chernoff_upper_tail": ".analysis.lll",
    "circuit_switch_butterfly": ".sim.circuit",
    "collides": ".core.butterfly_lower_bound",
    "congestion": ".routing.paths",
    "dateline_vc_assignment": ".sim.deadlock",
    "debruijn_path": ".network.debruijn",
    "decompose_q_relation": ".routing.decompose",
    "dilation": ".routing.paths",
    "dimension_order_path": ".network.mesh",
    "exec": ".exec",
    "fit_power_law": ".analysis.fitting",
    "fuzz": ".fuzz",
    "hard_instance_lower_bound": ".core.lower_bound",
    "is_deadlock_free": ".sim.deadlock",
    "layered_network": ".network.random_networks",
    "lemma_3_2_3_bound": ".analysis.balls_bins",
    "leveled_bound": ".core.leveled",
    "lll_condition": ".analysis.lll",
    "lll_schedule": ".core.scheduler",
    "loglog_slope": ".analysis.fitting",
    "max_m_prime": ".core.lower_bound",
    "multiplex_size": ".core.coloring",
    "naive_coloring_schedule": ".core.scheduler",
    "one_pass_workload": ".core.butterfly_lower_bound",
    "online_window": ".core.online_routing",
    "path_set_stats": ".routing.paths",
    "phase_partition": ".core.butterfly_lower_bound",
    "prob_no_bin_exceeds": ".analysis.balls_bins",
    "random_delay_release": ".core.leveled",
    "random_destinations": ".routing.problems",
    "random_permutation": ".routing.problems",
    "random_q_relation": ".routing.problems",
    "random_walk_paths": ".network.random_networks",
    "reduce_multiplex_size": ".core.coloring",
    "render_butterfly": ".analysis.render",
    "render_route": ".analysis.render",
    "render_spacetime": ".analysis.render",
    "scenarios": ".scenarios",
    "select_paths": ".routing.select",
    "shortest_paths": ".routing.shortest",
    "simulate": ".facade",
    "subset_collision_rate": ".core.butterfly_lower_bound",
    "telemetry": ".telemetry",
    "transpose_permutation": ".routing.problems",
    "tree_path": ".network.tree",
    "truncated_paths": ".core.butterfly_lower_bound",
    "valiant_path": ".routing.valiant",
    "valiant_paths": ".routing.valiant",
    "valiant_phase_workloads": ".core.online_routing",
    "waksman_paths": ".network.benes",
    "waksman_workload": ".core.scheduler",
    "wrapped_butterfly": ".network.butterfly",
}
__getattr__, __dir__ = attach(__name__, _EXPORTS)
__all__ = list(_EXPORTS)

__version__ = "1.0.0"
