"""Exact depth invariant of non-negative integer sequences.

The library evaluates finite and tail-form sequences, computes their
alternating binomial transform and the depth invariant it defines, checks
closed-form predictions for structured tails, and realizes sequences as
level counts of boolean-lattice subfamilies with certifying interval
partitions.

Importing the package loads none of its submodules: each public name, and
each submodule, is imported on first attribute access.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "closed_forms": "PiecewisePrediction arithmetic_qdepth as_fraction compare_alpha1 eq_bound geometric_qdepth "
                    "lambda_threshold monomial_plus_constant polynomial_upper_bound quadratic_qdepth",
    "engine": "DepthCheck QDepthResult depth_upper_bound necessary_condition_holds qdepth qdepth_at_least "
              "qdepth_value sufficient_condition_holds",
    "errors": "DomainError SchemaError",
    "posets": "IntervalPartition Poset RealizationResult SdepthResult ValidationReport elements_from_mask "
              "interval_members mask_from_elements poset_from_json_dict poset_qdepth partition_from_json_dict "
              "realize sdepth_bruteforce validate_partition",
    "sequences": "BetaTable FiniteSequence GeometricSequence PolynomialSequence Sequence SequenceStats add beta "
                 "beta_rows beta_table binomial sequence_from_json_dict",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
