"""Deterministic random fixtures for checks and tests.

This is the only module that draws: the check runners draw their samples
here before they call a route, and the routes compute from the samples
they are given.  Everything draws from a :class:`~curvcheck.rng.SplitMix64`
stream in a fixed order, so a seed pins the whole fixture family
bit-for-bit.  The draw order is part of the reproducibility contract:
change it and golden reports shift.  The trials of ``connection-axiom``
come from one block of draws
(:meth:`~curvcheck.rng.SplitMix64.symmetric_block`), value for value the
draws of one ``symmetric`` call each.  Polynomials are kept sparse (few
monomials, low degree) so curvature checks stay fast while still
exercising nonlinear fiber dependence.
"""

from __future__ import annotations

from . import _symbolic
from .bundle import BundlePatch, ChristoffelField, Section
from .exprdsl import Expression, Var
from .lie import AlgebraElement, GroupElement, MatrixLieAlgebra, exp, expm
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
    "sample_axiom_trials",
    "sample_cross_check",
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


def sample_axiom_trials(rng: SplitMix64, algebra: MatrixLieAlgebra, m: int, count: int) -> list:
    """``count`` trials of :func:`~curvcheck.principal.check_axiom`, each
    drawn as base point ``x0`` and base velocity ``xi`` (m draws each), the
    logs of ``g0`` and ``gamma0``, then the curve generators ``X`` and ``Y``,
    every draw at scale 1.  All ``count (2 m + 4 k)`` draws are one
    :meth:`~curvcheck.rng.SplitMix64.symmetric_block`, value for value the
    draws of one :meth:`~curvcheck.rng.SplitMix64.symmetric` call each in
    that order, and the ``exp`` of all ``2 count`` logs is one stacked
    :func:`~curvcheck.lie.expm`, bit-identical to one ``exp`` each."""
    k = algebra.k
    draws = rng.symmetric_block(count * (2 * m + 4 * k)).reshape(count, 2 * m + 4 * k)
    points = draws[:, : 2 * m].tolist()
    groups = expm(algebra.matrix(draws[:, 2 * m : 2 * m + 2 * k].reshape(2 * count, k)))
    generators = draws[:, 2 * m + 2 * k :]
    return [
        (
            tuple(point[:m]),
            tuple(point[m:]),
            GroupElement(groups[2 * i]),
            GroupElement(groups[2 * i + 1]),
            AlgebraElement(algebra, generators[i, :k]),
            AlgebraElement(algebra, generators[i, k:]),
        )
        for i, point in enumerate(points)
    ]


def sample_cross_check(
    rng: SplitMix64, algebra: MatrixLieAlgebra, m: int, centers: int, sections: int
) -> tuple[list[GroupElement], list[tuple[Expression, ...]]]:
    """The chart centers and sections of
    :func:`~curvcheck.principal.curvature_cross_check` at one base point:
    ``centers`` group elements (``exp`` of an element each), then
    ``sections`` tuples of ``algebra.k`` base-only polynomials in ``m``
    variables (``max_terms = 3``, ``max_degree = 2``, ``scale = 0.05``)."""
    chart_centers = [exp(sample_algebra_element(rng, algebra)) for _ in range(centers)]
    comps = [
        tuple(sample_polynomial(rng, m, 0, 3, 2, 0.05) for _ in range(algebra.k))
        for _ in range(sections)
    ]
    return chart_centers, comps
