"""How many riffle shuffles mix a deck, when cards repeat or only part
of the order matters.

The library centers on descent polynomials of deck transitions: exact
enumeration for small decks and a DP for block decks, sampled
histograms and moment-matched normal curves beyond, total variation
distance from uniform built on top, and the reductions showing why
exact answers are hard in general.
"""

import importlib

# Names of these modules load on first use (PEP 562), so that a command
# imports only the modules it runs.
_LAZY = {
    "deck": (
        "Deck",
        "Permutation",
        "apply",
        "arrangement_count",
        "compose",
        "deck_text",
        "descents",
        "enumerate_arrangements",
        "enumerate_transitions",
        "identity",
        "inverse",
        "is_transition",
        "label_positions",
        "parse_deck",
        "sample_uniform_rearrangement",
        "sample_uniform_transition",
        "transition_cardinality",
    ),
    "descentpoly": (
        "DescentHistogram",
        "DescentPolynomial",
        "PolynomialFamily",
        "descent_distribution_under_a_shuffle",
        "descent_polynomial_family",
        "digit_transition_counts",
        "exact_descent_polynomial",
        "family_as_dict",
        "mc_descent_histogram",
        "probabilities_to_polynomial",
        "probability_from_coefficients",
    ),
    "errors": (
        "CapExceededError",
        "DeckParseError",
        "DegenerateDistributionError",
        "InconsistentProbabilitiesError",
        "RiffmixError",
        "SignatureMismatchError",
    ),
    "tvd": (
        "ALPHA_TABLE",
        "BACKENDS",
        "FIXED_SOURCE",
        "FIXED_TARGET",
        "Scenario",
        "TvdEstimate",
        "bayer_diaconis_tvd",
        "custom_scenario",
        "exact_tvd_curve",
        "mc_tvd_curve",
        "riffles_to_packets",
        "scenario",
        "scenario_names",
    ),
    "approx": (
        "DescentMoments",
        "PairStatistics",
        "TailFit",
        "descent_moments",
        "normal_coefficient_estimate",
        "normal_error_bound_applies",
        "normal_polynomial_estimate",
        "tail_extrapolate",
    ),
    "hardness": (
        "MatchingInstance",
        "MinCutsInstance",
        "RiffleInstance",
        "balanced_class_count_formula",
        "balanced_complement_classes",
        "matching_witness_ok",
        "mincuts_witness_ok",
        "parse_instance",
        "random_matching_instance",
        "reduce_matching_to_riffle",
        "reduce_matching_to_riffle_bracketed",
        "reduce_riffle_to_mincuts",
        "riffle_witness_ok",
        "solve_matching",
        "solve_mincuts",
        "solve_riffle",
        "strided_descent_counts",
        "strided_total",
    ),
    "shuffle": (
        "eulerian_row",
        "permutation_probability",
        "sample_a_shuffle",
        "sample_digit_sequence",
        "sequence_to_permutation",
        "shuffle_weights",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_LAZY_MODULE)


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
