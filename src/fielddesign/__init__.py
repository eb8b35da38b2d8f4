"""Optimal block designs under a two-dimensional interference model."""

from .arrays import (
    BlockArray,
    EnumerationBudgetError,
    LabelPool,
    Orbit,
    Shape,
    canonical_form,
    classify_labels,
    normalize_shape,
    orbit_count,
    orbit_members,
    orbit_size,
)
from .designs import (
    EfficiencyReport,
    ExactDesign,
    MinNReport,
    NullDirectionError,
    construct_exact,
    efficiencies,
    expand_symmetric,
    measure_of_design,
    min_n_symmetric,
)
from .model import (
    IDENTITY,
    CoefficientTriple,
    CovarianceSpec,
    GeneralCov,
    Identity,
    TypeH,
    bind,
    btilde,
    info_matrix_exact,
    sigma_from_json,
    triple_table,
)
from .optimality import (
    GAP_TOL,
    FanClass,
    Measure,
    QSupport,
    SolveResult,
    VerificationReport,
    equivalence_gap,
    fan_classes,
    full_pool,
    measure_triple,
    q_eval,
    q_star,
    r_eval,
    solve_closed_form,
    solve_exchange,
    solve_sbs_proportions,
    support_pool,
    verify_measure,
)

__version__ = "0.1.0"
