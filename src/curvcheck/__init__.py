"""Numerical cross-validation of curvature constructions on fiber bundles.

The package checks, at sampled points and to stated tolerances, that the
different faces of connection curvature agree with each other: projection
commutators against coordinate formulas, iterated-jet commutators against
both, structure-equation curvature against its chart and section routes,
and the linear special case against the classical three-index formula.
Everything is driven either as a library or through the ``curvcheck`` CLI
on a JSON config.
"""

from .bundle import (
    BundlePatch,
    ChristoffelField,
    FiberBundleMorphism,
    Section,
    TotalVectorField,
    VerticalVector,
    covariant_derivative,
    curvature_coefficients,
    is_parallel_morphism,
    nijenhuis_tensor,
)
from .errors import (
    ClosureViolation,
    ConfigSchemaError,
    CurvcheckError,
    DomainError,
    ExprSyntaxError,
    FiberMismatch,
    IndexOutOfRange,
    IoError,
    NotVertical,
    SingularMatrix,
    UnknownIdentifier,
)
from .exprdsl import Expression, parse, unparse
from .lie import (
    AlgebraElement,
    GroupElement,
    MatrixLieAlgebra,
    bracket,
    builtin_algebra,
    exp,
)
from .linear import (
    LinearChristoffel,
    LinearityReport,
    classical_curvature,
    expand_linear,
    linear_curvature_consistency,
    linearity_detect,
)
from .numcore import EvalPoint, directional, evaluate, gradient, mixed_second, partial
from .principal import (
    GaugePotential,
    cartan_curvature,
    check_axiom,
    curvature_cross_check,
    exponential_chart_connection,
    theta_bch,
    theta_bch_verify,
    vtriv_principal,
)
from .prolong import (
    SecondJet,
    VerticalPairBase,
    affine_diff,
    commutator_tensor,
    pi,
    pushforward_second_jet,
    theta,
    vertical_connection,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # expressions and evaluation
    "Expression",
    "parse",
    "unparse",
    "EvalPoint",
    "evaluate",
    "directional",
    "gradient",
    "partial",
    "mixed_second",
    # bundles and connections
    "BundlePatch",
    "ChristoffelField",
    "Section",
    "TotalVectorField",
    "VerticalVector",
    "FiberBundleMorphism",
    "covariant_derivative",
    "nijenhuis_tensor",
    "curvature_coefficients",
    "is_parallel_morphism",
    # second jets
    "SecondJet",
    "VerticalPairBase",
    "theta",
    "pi",
    "affine_diff",
    "pushforward_second_jet",
    "vertical_connection",
    "commutator_tensor",
    # Lie machinery
    "MatrixLieAlgebra",
    "AlgebraElement",
    "GroupElement",
    "bracket",
    "exp",
    "builtin_algebra",
    # principal connections
    "GaugePotential",
    "check_axiom",
    "vtriv_principal",
    "cartan_curvature",
    "exponential_chart_connection",
    "curvature_cross_check",
    "theta_bch",
    "theta_bch_verify",
    # linear connections
    "LinearChristoffel",
    "LinearityReport",
    "expand_linear",
    "classical_curvature",
    "linearity_detect",
    "linear_curvature_consistency",
    # errors
    "CurvcheckError",
    "ExprSyntaxError",
    "UnknownIdentifier",
    "IndexOutOfRange",
    "DomainError",
    "FiberMismatch",
    "ClosureViolation",
    "SingularMatrix",
    "NotVertical",
    "IoError",
    "ConfigSchemaError",
]
