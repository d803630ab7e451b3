"""Stability of planar free-discontinuity critical points.

The package decides strict stability of critical pairs of the
homogeneous Mumford-Shah energy on a periodic strip (and for straight
segments meeting a box boundary) by assembling the second-variation
quadratic form, computing the leading eigenvalue of its nonlocal
operator, and cross-validating against closed-form flat-interface
references and finite differences of the energy along curve flows.
"""

from .errors import (
    ConfigInvalid,
    CurveEscapesStrip,
    DegeneratePencil,
    GramSingular,
    InsufficientSamples,
    InvalidRestriction,
    OddMode,
    SolverDiverged,
    StabilityError,
)
from .geometry import (
    BoundaryData,
    FlowSpec,
    GraphCurve,
    SegmentConfig,
    StripDomain,
    curvature,
    curve_length,
    flat_curve,
    flow_curve,
    sinusoidal_curve,
)
from .elliptic import (
    Grid,
    SlitField,
    SolveStats,
    dirichlet_energy,
    solve_jump_source,
    solve_state,
)
from .second_variation import (
    EigenStats,
    SecondVariationResult,
    TildeGram,
    TOperator,
    assemble_tilde_gram,
    lambda1,
    leading_eigenvalues,
    mu,
    second_variation_value,
    verdict_from_eigenvalue,
    verdict_from_min_eig,
)
from .analytic_oracle import (
    lambda1_strip,
    mode_lambda,
    mode_trace_slope,
    segment_min_eig,
    strip_mode_field,
)
from .validation import (
    CriticalityReport,
    FDEstimate,
    ValidationReport,
    criticality_residuals,
    energy_along_flow,
    fd_derivatives,
    total_energy,
    validate_second_variation,
)
from .config import RunConfig, load_config, parse_config

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
