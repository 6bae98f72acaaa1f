"""Exact depth invariant of non-negative integer sequences.

The library evaluates finite and tail-form sequences, computes their
alternating binomial transform and the depth invariant it defines, checks
closed-form predictions for structured tails, and realizes sequences as
level counts of boolean-lattice subfamilies with certifying interval
partitions.
"""

from .closed_forms import (
    PiecewisePrediction,
    arithmetic_qdepth,
    as_fraction,
    compare_alpha1,
    eq_bound,
    geometric_qdepth,
    lambda_threshold,
    monomial_plus_constant,
    polynomial_upper_bound,
    quadratic_qdepth,
)
from .engine import (
    DepthCheck,
    QDepthResult,
    Rejection,
    depth_upper_bound,
    necessary_condition_holds,
    qdepth,
    qdepth_at_least,
    qdepth_value,
    sufficient_condition_holds,
)
from .errors import DomainError, SchemaError
from .posets import (
    IntervalPartition,
    Poset,
    RealizationResult,
    SdepthResult,
    ValidationReport,
    elements_from_mask,
    interval_members,
    mask_from_elements,
    poset_from_json_dict,
    poset_qdepth,
    partition_from_json_dict,
    realize,
    sdepth_bruteforce,
    validate_partition,
)
from .sequences import (
    BetaTable,
    FiniteSequence,
    GeometricSequence,
    PolynomialSequence,
    Sequence,
    SequenceStats,
    add,
    beta,
    beta_rows,
    beta_table,
    binomial,
    sequence_from_json_dict,
)

__version__ = "0.1.0"
