"""Computations with hyperbolic polynomials.

Oracles for product, determinantal, and dense homogeneous forms; polarized
mixed values and mixed discriminants; Newton polytope supports; capacity and
its Sinkhorn-style scaling iteration; the generalized Edmonds-Rado rank
condition; and real-rootedness, interlacing, and majorization tests for
univariate polynomial pencils.
"""

from .errors import (
    BudgetExceededError,
    ConvergenceError,
    DegenerateDirectionError,
    DimensionMismatchError,
    GenerationError,
    HyperpolyError,
    InvalidDocumentError,
    NearSingularDirectionWarning,
    NonRealRootError,
    ZeroCapacityError,
)
from .oracle import (
    DensePolynomial,
    DeterminantalPolynomial,
    HyperbolicOracle,
    HyperbolicityReport,
    NONNEGATIVE,
    OUTSIDE,
    POSITIVE,
    ProductPolynomial,
    cone_membership,
    dense_oracle,
    determinantal_oracle,
    evaluate,
    evaluate_batch,
    hyperbolic_rank,
    hyperbolicity_sample_test,
    oracle_from_json,
    oracle_to_json,
    pencil_matrix,
    product_oracle,
    roots_in_direction,
    trace_in_direction,
    univariate_restriction,
)
from .mixed import (
    SaturationReport,
    SupportSet,
    alexandrov_fenchel_residual,
    alexandrov_fenchel_terms,
    brute_force_permanent,
    compositions,
    dense_from_oracle,
    k_hyperbolic_check,
    k_hyperbolicity_polynomial,
    log_concavity_profile,
    mixed_discriminant,
    mixed_value,
    newton_saturation_check,
    polytope_membership,
    repeated_tuple,
    support,
)
from .scaling import (
    CapacityResult,
    ConcavityReport,
    EdmondsRadoReport,
    ReciprocalGradientReport,
    ScalingReport,
    ScalingState,
    capacity,
    capacity_concavity_check,
    doubly_stochastic_defect,
    edmonds_rado_check,
    gradient,
    gradient_reciprocal_check,
    matrix_as_tuple,
    matrix_sinkhorn,
    mixed_concavity_check,
    partial_derivative,
    row_normalized,
    sinkhorn_iteration,
    sinkhorn_map,
    traces_in_direction,
    tuple_as_matrix,
    van_der_waerden_ratio,
)
from .interlace import (
    LineConvexityReport,
    MajorizationReport,
    MonicPolynomial,
    PairReport,
    SymmetricConvexReport,
    companion,
    derivative_line_convexity,
    lidskii_check,
    majorization_check,
    obreschkoff_pair_test,
    pencil_characteristic_polynomial,
    real_roots,
    real_roots_from_coefficients,
    roots_from_coefficients,
    sampled_pencil_test,
    shifted_pencil_majorization,
    symmetric_convex_line_check,
)

__version__ = "0.1.0"
