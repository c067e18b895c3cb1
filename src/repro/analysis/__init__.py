"""Probabilistic toolbox and experiment reporting."""

from .._lazy import attach

_EXPORTS = {
    "DelayEnvelope": ".estimate",
    "ESTIMATABLE_MODELS": ".estimate",
    "EstimateError": ".estimate",
    "PowerLawFit": ".fitting",
    "Table": ".tables",
    "bad_event_probability_case12": ".lll",
    "bad_event_probability_case3": ".lll",
    "binomial": ".lll",
    "chernoff_upper_tail": ".lll",
    "edge_load_distribution": ".circuit_recursion",
    "estimate_paths": ".estimate",
    "estimate_spec": ".estimate",
    "estimate_workload": ".estimate",
    "expected_survivors": ".circuit_recursion",
    "fit_power_law": ".fitting",
    "format_value": ".tables",
    "kruskal_snir_b1_probability": ".circuit_recursion",
    "lemma_3_2_3_bound": ".balls_bins",
    "lll_condition": ".lll",
    "log_binomial": ".lll",
    "loglog_slope": ".fitting",
    "max_load_samples": ".balls_bins",
    "per_bin_overflow_lower_bound": ".balls_bins",
    "prob_no_bin_exceeds": ".balls_bins",
    "render_butterfly": ".render",
    "render_route": ".render",
    "render_spacetime": ".render",
}
__getattr__, __dir__ = attach(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
