"""Topology substrate: networks the paper's algorithms run on."""

from .._lazy import attach

_EXPORTS = {
    "Benes": ".benes",
    "Butterfly": ".butterfly",
    "CompleteTree": ".tree",
    "DeBruijn": ".debruijn",
    "EdgeView": ".graph",
    "Hypercube": ".hypercube",
    "KAryNCube": ".mesh",
    "Multibutterfly": ".multibutterfly",
    "Network": ".graph",
    "NetworkError": ".errors",
    "ShuffleExchange": ".debruijn",
    "bit_fixing_path": ".hypercube",
    "chain_bundle": ".random_networks",
    "debruijn_path": ".debruijn",
    "dimension_order_path": ".mesh",
    "is_power_of_two": ".butterfly",
    "layered_network": ".random_networks",
    "looping_assignment": ".benes",
    "random_walk_paths": ".random_networks",
    "tree_path": ".tree",
    "waksman_paths": ".benes",
    "wrapped_butterfly": ".butterfly",
}
__getattr__, __dir__ = attach(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
