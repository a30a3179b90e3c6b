"""Deterministic random fixtures for checks and tests.

Everything here draws from a :class:`~curvcheck.rng.SplitMix64` stream in a
fixed order, so a seed pins the whole fixture family bit-for-bit.  The draw
order is part of the reproducibility contract: change it and golden reports
shift.  Polynomials are kept sparse (few monomials, low degree) so curvature
checks stay fast while still exercising nonlinear fiber dependence.
"""

from __future__ import annotations

from . import _symbolic
from .bundle import BundlePatch, ChristoffelField, Section
from .exprdsl import Expression, Var
from .lie import AlgebraElement, MatrixLieAlgebra
from .numcore import EvalPoint
from .prolong import SecondJet
from .rng import SplitMix64

__all__ = [
    "sample_point",
    "sample_polynomial",
    "sample_christoffel",
    "sample_section",
    "sample_transition",
    "sample_second_jet",
    "sample_algebra_element",
]


def sample_point(rng: SplitMix64, m: int, n: int = 0) -> EvalPoint:
    """Point with every coordinate uniform in [-1, 1)."""
    x = tuple(rng.symmetric(1.0) for _ in range(m))
    f = tuple(rng.symmetric(1.0) for _ in range(n))
    return EvalPoint(x, f)


def sample_polynomial(
    rng: SplitMix64,
    m: int,
    n: int,
    max_terms: int = 5,
    max_degree: int = 3,
    scale: float = 1.0,
) -> Expression:
    """Sparse polynomial in x1..xm, f1..fn with at most ``max_terms``
    monomials of total degree at most ``max_degree`` and coefficients in
    [-scale, scale).  Pass ``n = 0`` for a base-only polynomial."""
    variables = [("x", i + 1) for i in range(m)] + [("f", i + 1) for i in range(n)]
    terms = 1 + rng.int_below(max_terms)
    acc = _symbolic.const(0.0)
    for _ in range(terms):
        term = _symbolic.const(rng.symmetric(scale))
        degree = rng.int_below(max_degree + 1)
        for _ in range(degree):
            kind, index = rng.choice(variables)
            term = _symbolic.mul(term, Var(kind, index))
        acc = _symbolic.add(acc, term)
    return acc


def sample_christoffel(
    rng: SplitMix64,
    patch: BundlePatch,
    max_terms: int = 5,
    max_degree: int = 3,
    scale: float = 1.0,
) -> ChristoffelField:
    """Connection with sparse polynomial symbols in both x and f."""
    m, n = patch.dims
    gamma = tuple(
        tuple(
            sample_polynomial(rng, m, n, max_terms, max_degree, scale)
            for _ in range(m)
        )
        for _ in range(n)
    )
    return ChristoffelField(patch, gamma)


def sample_section(rng: SplitMix64, patch: BundlePatch) -> Section:
    """Section with sparse base-only polynomial components, drawn with the
    :func:`sample_polynomial` defaults."""
    m, n = patch.dims
    return Section(patch, tuple(sample_polynomial(rng, m, 0) for _ in range(n)))


def sample_transition(rng: SplitMix64, n: int) -> tuple[Expression, ...]:
    """Fiber chart transition: n fiber-only polynomial components of at most
    3 terms each, otherwise drawn with the :func:`sample_polynomial`
    defaults."""
    return tuple(sample_polynomial(rng, 0, n, max_terms=3) for _ in range(n))


def sample_second_jet(rng: SplitMix64, m: int, n: int) -> SecondJet:
    """Jet with all slots uniform in [-1, 1)."""

    def draw(count: int) -> tuple[float, ...]:
        return tuple(rng.symmetric(1.0) for _ in range(count))

    return SecondJet(draw(m), draw(n), draw(n), draw(n), draw(n))


def sample_algebra_element(
    rng: SplitMix64, algebra: MatrixLieAlgebra, scale: float = 1.0
) -> AlgebraElement:
    """Element with basis coefficients uniform in [-scale, scale)."""
    return AlgebraElement(
        algebra, [rng.symmetric(scale) for _ in range(algebra.k)]
    )
