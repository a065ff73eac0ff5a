"""Orbit frame analysis over finite groups.

The package decides Riesz/frame status of orbits {U(g) psi} three ways: the
Gram matrix of the orbit, the convolution operator built from the orbit's
correlation function, and (for commutative groups) the scalar multiplier of
that operator.  All three carry the same spectrum, and the CLI `frame-lab`
exposes analysis, bracket computation, and a self-verification suite.
"""

from .abelian import (
    DualFunction,
    SandwichReport,
    ZakArray,
    check_sandwich_equivalence,
    dual_lp_norm,
    fourier_on_group,
    gabor_bracket_via_zak,
    inverse_lambda,
    inverse_zak,
    lambda_multiplier,
    periodization_bracket,
    scalar_bracket,
    support_indicator,
    zak_transform,
)
from .errors import (
    AffiliationError,
    DimMismatchError,
    DimTooLargeError,
    EmptyFactorsError,
    FrameLabError,
    GroupMismatchError,
    InvalidPError,
    MalformedTableError,
    NoIdentityError,
    NoInverseError,
    NonFiniteResultError,
    NotAbelianError,
    NotAssociativeError,
    NotRealValuedError,
    NotSelfAdjointError,
    OrderTooLargeError,
    OutputWriteError,
    ParseError,
    ZeroGeneratorError,
)
from .frames import (
    BLOCK_SPECTRUM_ORDER,
    GAP_GUARD,
    VERDICT_BESSEL_ONLY,
    VERDICT_FRAME_NOT_RIESZ,
    VERDICT_RIESZ,
    VERDICT_ZERO,
    BracketGramianCheck,
    DualLemmaReport,
    FrameReport,
    VectorSystem,
    analyze_orbit,
    check_duallemma,
    frame_bounds,
    frame_operator_matrix,
    gram_matrix,
    riesz_bounds,
    vector_system,
    verify_bracket_equals_gramian,
)
from .groups import (
    Character,
    FiniteGroup,
    GroupFunction,
    character_table,
    characters,
    convolve,
    delta,
    dihedral_group,
    group_from_spec,
    group_function,
    heisenberg_group,
    make_abelian_group,
    make_builtin_group,
    make_group_from_table,
)
from .representations import (
    OrbitSystem,
    RepVerification,
    UnitaryRepresentation,
    bracket_operator,
    correlation_function,
    gabor_representation,
    orbit_matrix,
    orbit_rows,
    parse_rep_spec,
    regular_representation,
    shift_model_representation,
    verify_representation,
)
from .vnalgebra import (
    ConvolutionOperator,
    ProjectionOperator,
    SpectralData,
    block_spectrum,
    fourier_coefficient,
    identity_operator,
    is_positive,
    lambda_matrix,
    lp_norm,
    operator_from_coefficients,
    operator_from_matrix,
    operator_leq,
    rho_matrix,
    spectral_data,
    support_projection,
    trace_tau,
    zero_operator,
)

__version__ = "0.1.0"
