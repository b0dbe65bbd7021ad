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
    fro_norm,
    is_pd,
    is_psd,
    log_det,
    op_norm,
    riemannian_dist,
    sym,
)
from .means import (
    AgmResult,
    EntropyIdentities,
    KarcherResult,
    PartialGeomeanResult,
    agm_iteration,
    entropy_identities,
    gaussian_entropy,
    geomean,
    karcher_mean,
    partial_geomean_maxdet,
    partial_geomean_sweep,
    set_geomean,
)
from .partial import (
    Comparison,
    PartialMatrix,
    add,
    is_partial_pd,
    offending_cliques,
    partial_order,
    project,
    scale,
    sub,
)
from .pattern import (
    ChordalityResult,
    Pattern,
    is_chordal,
    maximal_cliques,
    missing_positions,
)

__version__ = "0.1.0"
