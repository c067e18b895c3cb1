"""Path substrate: routes, routing problems, and path selection."""

from .._lazy import attach

_EXPORTS = {
    "Path": ".paths",
    "PathSetStats": ".paths",
    "RoutingInstance": ".problems",
    "SelectionResult": ".select",
    "bfs_path": ".shortest",
    "bfs_tree": ".shortest",
    "bit_complement_traffic": ".traffic",
    "bit_reversal_permutation": ".problems",
    "check_edge_simple": ".paths",
    "congestion": ".paths",
    "decompose_q_relation": ".decompose",
    "dilation": ".paths",
    "edge_loads": ".paths",
    "hotspot_traffic": ".traffic",
    "is_q_relation": ".problems",
    "min_penalty_path": ".select",
    "neighbor_traffic": ".traffic",
    "path_set_stats": ".paths",
    "paths_from_node_walks": ".paths",
    "random_destinations": ".problems",
    "random_permutation": ".problems",
    "random_q_relation": ".problems",
    "select_paths": ".select",
    "shortest_paths": ".shortest",
    "tornado_traffic": ".traffic",
    "transpose_permutation": ".problems",
    "uniform_traffic": ".traffic",
    "valiant_path": ".valiant",
    "valiant_paths": ".valiant",
}
__getattr__, __dir__ = attach(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
