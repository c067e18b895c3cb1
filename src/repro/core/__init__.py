"""The paper's contribution: schedulers, bounds, and butterfly algorithms."""

from . import bounds
from .butterfly_lower_bound import (
    OnePassOutcome,
    collides,
    one_pass_route,
    phase_partition,
    strip_collision_counts,
    strip_decomposition,
    subset_collision_rate,
    truncated_paths,
)
from .benes_routing import route_permutation_benes, route_q_relation_benes
from .butterfly_routing import ButterflyRouter, ButterflyRoutingResult, RoundStats
from .coloring import (
    MessageEdgeIncidence,
    RefinementStage,
    RefinementTrace,
    lemma_2_1_5_parameters,
    merge_color_classes,
    multiplex_size,
    reduce_multiplex_size,
    refine_colors,
)
from .hypercube_routing import (
    HypercubeRoutingResult,
    route_hypercube_permutation,
)
from .leveled import leveled_bound, random_delay_release
from .online_routing import online_window, route_online_random_delays
from .lower_bound import (
    HardInstance,
    build_hard_instance,
    hard_instance_lower_bound,
    max_m_prime,
)
from .schedule import ColorClassSchedule
from .scheduler import (
    ScheduleBuild,
    greedy_conflict_coloring,
    lll_schedule,
    naive_coloring_schedule,
    schedule_workload,
)

__all__ = [
    "ButterflyRouter",
    "ButterflyRoutingResult",
    "ColorClassSchedule",
    "HardInstance",
    "HypercubeRoutingResult",
    "MessageEdgeIncidence",
    "OnePassOutcome",
    "RefinementStage",
    "RefinementTrace",
    "RoundStats",
    "ScheduleBuild",
    "bounds",
    "build_hard_instance",
    "collides",
    "greedy_conflict_coloring",
    "hard_instance_lower_bound",
    "lemma_2_1_5_parameters",
    "leveled_bound",
    "lll_schedule",
    "max_m_prime",
    "merge_color_classes",
    "multiplex_size",
    "naive_coloring_schedule",
    "one_pass_route",
    "online_window",
    "phase_partition",
    "random_delay_release",
    "reduce_multiplex_size",
    "refine_colors",
    "route_hypercube_permutation",
    "route_online_random_delays",
    "route_permutation_benes",
    "route_q_relation_benes",
    "schedule_workload",
    "strip_collision_counts",
    "strip_decomposition",
    "subset_collision_rate",
    "truncated_paths",
]
