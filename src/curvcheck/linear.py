"""Linear connections on vector-bundle patches.

A linear connection stores three-index symbols ``Gamma^alpha_{mu omega}(x)``
over the base only; its generalized symbols are the fiber-linear expressions
``Gamma^alpha_mu(x, v) = sum_omega Gamma^alpha_{mu omega}(x) v^omega``.  The
classical curvature formula

    R^alpha_{mu nu; omega} = d_mu Gamma^alpha_{nu omega}
                             - d_nu Gamma^alpha_{mu omega}
                             + sum_beta (Gamma^alpha_{mu beta} Gamma^beta_{nu omega}
                                         - Gamma^alpha_{nu beta} Gamma^beta_{mu omega})

contracts against the fiber point to reproduce the general curvature
coefficients, and :func:`linear_curvature_consistency` checks exactly that.

:func:`linearity_detect` goes the other way: given an arbitrary connection,
it probes fiber homogeneity ``Gamma(x, lambda v) = lambda Gamma(x, v)`` at
sampled points (the lambda set includes 0, which catches affine offsets),
extracts candidate three-index symbols by differentiating in the fiber
directions and pinning the fiber to zero, and then demands the extracted
field's expansion reproduce the original at the samples.  The second stage
matters: fiber-homogeneous functions of degree one need not be linear
(think ``f1^2/f2``), and they fail there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _symbolic
from .bundle import (
    BundlePatch,
    ChristoffelField,
    FiberBundleMorphism,
    Section,
    curvature_coefficients,
)
from .exprdsl import Var, check_indices, parse
from .numcore import EvalPoint, evaluate, gradient, partial
from .rng import SplitMix64
from .sampling import sample_point

__all__ = [
    "DEFAULT_LAMBDAS",
    "LinearChristoffel",
    "LinearityViolation",
    "LinearityReport",
    "ConsistencyReport",
    "expand_linear",
    "classical_curvature",
    "reduced_covariant",
    "linearity_detect",
    "linear_curvature_consistency",
    "scaling_morphism",
]

#: Scale factors :func:`linearity_detect` probes by default.  Zero first so
#: affine offsets are reported through the lambda = 0 probe; the rest
#: exercise genuine scaling (sign flips, shrinking, growth).
DEFAULT_LAMBDAS = (0.0, -2.0, -1.0, 0.5, 2.0, 7.0)


@dataclass(frozen=True, eq=False)
class LinearChristoffel:
    """Three-index symbols ``gamma3[alpha][mu][omega]``, base variables
    only."""

    patch: BundlePatch
    gamma3: tuple

    def __post_init__(self):
        m, n = self.patch.dims
        rows = tuple(tuple(tuple(inner) for inner in row) for row in self.gamma3)
        if len(rows) != n or any(
            len(row) != m or any(len(inner) != n for inner in row) for row in rows
        ):
            raise ValueError(f"symbols must form an {n}x{m}x{n} array")
        for alpha, row in enumerate(rows, start=1):
            for mu, inner in enumerate(row, start=1):
                for omega, comp in enumerate(inner, start=1):
                    check_indices(comp, m, 0, f"symbol ({alpha},{mu},{omega})")
        object.__setattr__(self, "gamma3", rows)

    @staticmethod
    def from_strings(patch: BundlePatch, rows) -> "LinearChristoffel":
        parsed = tuple(
            tuple(tuple(parse(src, patch.dims) for src in inner) for inner in row)
            for row in rows
        )
        return LinearChristoffel(patch, parsed)


def expand_linear(linear: LinearChristoffel) -> ChristoffelField:
    """Generalized symbols ``sum_omega Gamma^alpha_{mu omega}(x) v^omega``."""
    fiber = [Var("f", omega + 1) for omega in range(linear.patch.fiber_dim)]
    gamma = tuple(
        tuple(_symbolic.dot(inner, fiber) for inner in row) for row in linear.gamma3
    )
    return ChristoffelField(linear.patch, gamma)


def classical_curvature(linear: LinearChristoffel, x) -> np.ndarray:
    """Curvature ``R[alpha, mu, nu, omega]`` of the classical formula at
    ``x``; antisymmetric in (mu, nu)."""
    m, n = linear.patch.dims
    pt = EvalPoint.of(x)
    values = np.zeros((n, m, n))
    grads = np.zeros((n, m, n, m))
    for alpha in range(n):
        for mu in range(m):
            for omega in range(n):
                value, grad = gradient(linear.gamma3[alpha][mu][omega], pt)
                values[alpha, mu, omega] = value
                grads[alpha, mu, omega] = grad[:m]
    out = np.zeros((n, m, m, n))
    for mu in range(m):
        for nu in range(mu + 1, m):
            for alpha in range(n):
                for omega in range(n):
                    entry = grads[alpha, nu, omega, mu] - grads[alpha, mu, omega, nu]
                    for beta in range(n):
                        entry += (
                            values[alpha, mu, beta] * values[beta, nu, omega]
                            - values[alpha, nu, beta] * values[beta, mu, omega]
                        )
                    out[alpha, mu, nu, omega] = entry
                    out[alpha, nu, mu, omega] = -entry
    return out


def reduced_covariant(
    linear: LinearChristoffel, s: Section, mu: int, x
) -> tuple[float, ...]:
    """Covariant derivative ``d_mu v^alpha + sum_omega
    Gamma^alpha_{mu omega}(x) v^omega(x)`` of a section along ``d/dx^mu``."""
    m, n = linear.patch.dims
    if not 1 <= mu <= m:
        raise ValueError(f"direction must be in 1..{m}, got {mu}")
    pt = EvalPoint.of(x)
    svals = [evaluate(c, pt) for c in s.comps]
    out = []
    for alpha in range(n):
        acc = partial(s.comps[alpha], pt, ("x", mu))
        for omega in range(n):
            acc += evaluate(linear.gamma3[alpha][mu - 1][omega], pt) * svals[omega]
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class LinearityViolation:
    """First sample at which a connection failed the linearity probe."""

    alpha: int
    mu: int
    x: tuple[float, ...]
    v: tuple[float, ...]
    lam: float | None
    expected: float
    actual: float
    stage: str  # "homogeneity" or "expansion"

    def __str__(self):
        where = f"Gamma^{self.alpha}_{self.mu} at x={self.x}, v={self.v}"
        if self.stage == "homogeneity":
            return (
                f"{where}: scaling by {self.lam} gave {self.actual!r}, "
                f"expected {self.expected!r}"
            )
        return (
            f"{where}: extracted linear field gives {self.actual!r}, "
            f"original gives {self.expected!r}"
        )


@dataclass(frozen=True)
class LinearityReport:
    """Outcome of :func:`linearity_detect`: either the recovered three-index
    field or the first violating sample."""

    field: LinearChristoffel | None
    violation: LinearityViolation | None

    @property
    def linear(self) -> bool:
        return self.field is not None


def linearity_detect(
    field: ChristoffelField,
    samples: int = 64,
    tol: float = 1e-9,
    rng: SplitMix64 | None = None,
    lambdas: tuple = DEFAULT_LAMBDAS,
) -> LinearityReport:
    """Probe fiber linearity of a connection at sampled points.

    This is a falsifier, not a proof: it certifies homogeneity only at the
    sampled points, then checks the extracted symbols reproduce the field
    at those same points.  A detected field is returned; any failure returns
    the first violating sample instead.  Draws come from ``rng``
    (``SplitMix64(0)`` when it is None).
    """
    generator = rng if rng is not None else SplitMix64(0)
    m, n = field.patch.dims
    points = [sample_point(generator, m, n) for _ in range(samples)]
    references = {}

    def reference(i: int, alpha: int, mu: int) -> float:
        """``Gamma^alpha_mu`` at sample ``i``.  Evaluated on first use, so
        the evaluations, and any domain error, come in the order they
        would without the reuse."""
        key = (i, alpha, mu)
        if key not in references:
            references[key] = evaluate(field.gamma[alpha][mu], points[i])
        return references[key]

    for i, pt in enumerate(points):
        for lam in lambdas:
            scaled = EvalPoint(pt.x, tuple(lam * c for c in pt.f))
            for alpha in range(n):
                for mu in range(m):
                    expected = lam * reference(i, alpha, mu)
                    actual = evaluate(field.gamma[alpha][mu], scaled)
                    if not abs(actual - expected) <= tol * max(1.0, abs(expected)):
                        return LinearityReport(
                            None,
                            LinearityViolation(
                                alpha + 1,
                                mu + 1,
                                pt.x,
                                pt.f,
                                lam,
                                expected,
                                actual,
                                "homogeneity",
                            ),
                        )
    extracted = tuple(
        tuple(
            tuple(
                _symbolic.fiber_to_zero(
                    _symbolic.derivative(field.gamma[alpha][mu], "f", omega + 1), n
                )
                for omega in range(n)
            )
            for mu in range(m)
        )
        for alpha in range(n)
    )
    candidate = LinearChristoffel(field.patch, extracted)
    expansion = expand_linear(candidate)
    for i, pt in enumerate(points):
        for alpha in range(n):
            for mu in range(m):
                original = reference(i, alpha, mu)
                rebuilt = evaluate(expansion.gamma[alpha][mu], pt)
                if not abs(rebuilt - original) <= tol * max(1.0, abs(original)):
                    return LinearityReport(
                        None,
                        LinearityViolation(
                            alpha + 1,
                            mu + 1,
                            pt.x,
                            pt.f,
                            None,
                            original,
                            rebuilt,
                            "expansion",
                        ),
                    )
    return LinearityReport(candidate, None)


@dataclass(frozen=True)
class ConsistencyReport:
    max_deviation: float
    tolerance: float
    passed: bool


def linear_curvature_consistency(
    linear: LinearChristoffel, x, v, tol: float = 1e-9
) -> ConsistencyReport:
    """Compare the general curvature coefficients of the expanded field at
    ``(x, v)`` with the ``v``-contraction of the classical formula."""
    m, n = linear.patch.dims
    vvec = np.array([float(c) for c in v])
    if vvec.shape != (n,):
        raise ValueError(f"fiber point needs {n} coordinates, got {vvec.size}")
    general = curvature_coefficients(expand_linear(linear), EvalPoint.of(x, vvec))
    classical = classical_curvature(linear, x)
    contracted = np.einsum("amnw,w->amn", classical, vvec)
    deviation = float(np.abs(general - contracted).max())
    return ConsistencyReport(deviation, tol, deviation <= tol)


def scaling_morphism(patch: BundlePatch, factor: float) -> FiberBundleMorphism:
    """Fiberwise scalar multiplication ``v -> factor * v`` over the identity
    on the base."""
    comps = tuple(
        _symbolic.mul(_symbolic.const(float(factor)), Var("f", alpha + 1))
        for alpha in range(patch.fiber_dim)
    )
    return FiberBundleMorphism(patch, patch, comps)
