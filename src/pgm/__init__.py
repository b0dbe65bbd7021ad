"""Partial positive definite matrices.

Completability testing over specified-entry patterns, maximum-determinant
positive definite completion, weighted geometric and Karcher means, the
partial Loewner order, and entropy/determinant identities for Gaussian
covariances.
"""

from .completion import (
    CompletionReport,
    FeasibilityInterval,
    completion_with_det,
    feasibility_range,
    fischer_bound,
    max_det_completion,
    partial_entry_bounds,
    single_entry_interval,
)
from .errors import (
    AsymmetricPattern,
    DimensionMismatch,
    InternalNumerics,
    MissingDiagonal,
    NotCompletable,
    NotPartialPD,
    NotPositiveDefinite,
    OutOfRange,
    ParseError,
    PatternMismatch,
    PgmError,
    TooManyMissing,
)
from .linalg import (
    DEFAULT_TOL,
    as_sym_matrix,
    det,
    expm,
    fro_norm,
    invm,
    invsqrtm,
    is_pd,
    is_psd,
    log_det,
    logm,
    mat_fn,
    op_norm,
    powm,
    riemannian_dist,
    sqrtm,
    sym,
    trace,
)
from .means import (
    AgmResult,
    EntropyIdentities,
    GeomeanPropertyReport,
    KarcherResult,
    PartialGeomeanResult,
    SampleSet,
    WeightVector,
    agm_iteration,
    block_max_property,
    det_integral_identity,
    entropy_identities,
    gaussian_entropy,
    geomean,
    geomean_properties_check,
    karcher_mean,
    partial_geomean_maxdet,
    set_geomean,
)
from .partial import (
    Comparison,
    PartialMatrix,
    add,
    agrees,
    is_partial_pd,
    is_partial_psd,
    offending_cliques,
    partial_order,
    project,
    restrict,
    scale,
    sub,
)
from .pattern import (
    ChordalityResult,
    Pattern,
    connected_components,
    is_chordal,
    is_completable,
    maximal_cliques,
    missing_positions,
)

__version__ = "0.1.0"
