"""Computations with hyperbolic polynomials.

Oracles for product, determinantal, and dense homogeneous forms; polarized
mixed values and mixed discriminants; Newton polytope supports; capacity and
its Sinkhorn-style scaling iteration; the generalized Edmonds-Rado rank
condition; real-rootedness and interlacing tests for polynomial pencils; and
majorization, Lidskii and line-convexity checks over the spectrum of any form.
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
    pencil_matrix,
    product_oracle,
    roots_in_direction,
    trace_in_direction,
    univariate_restriction,
)
from .mixed import (
    SaturationReport,
    SupportSet,
    alexandrov_fenchel_terms,
    alexandrov_fenchel_verdict,
    brute_force_permanent,
    dense_from_oracle,
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
    ScalingReport,
    ScalingState,
    capacity,
    capacity_concavity_check,
    doubly_stochastic_defect,
    edmonds_rado_check,
    mixed_concavity_check,
    sinkhorn_iteration,
    sinkhorn_map,
    traces_in_direction,
)
from .interlace import (
    LineConvexityReport,
    MajorizationReport,
    MonicPolynomial,
    PairReport,
    SymmetricConvexReport,
    bezoutian_pair_test,
    companion,
    derivative_line_convexity,
    derivative_line_sweep,
    hyperbolic_lidskii,
    lidskii_check,
    majorization_check,
    obreschkoff_pair_test,
    pair_spectrum,
    pencil_characteristic_polynomial,
    real_roots,
    real_roots_from_coefficients,
    sampled_pencil_test,
    shifted_pencil_majorization,
    spectral_line_convexity,
    symmetric_convex_line_check,
)

__version__ = "0.1.0"
