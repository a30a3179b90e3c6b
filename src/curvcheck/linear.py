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
coefficients, and :func:`linear_curvature_consistency` measures exactly that.

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

from typing import NamedTuple

import numpy as np

from . import _records, _symbolic
from .bundle import BundlePatch, ChristoffelField, curvature_coefficients
from .exprdsl import Var, check_grid, parse_grid
from .numcore import EvalPoint, each_sample, evaluate, gradient, sweep_grid

__all__ = [
    "DEFAULT_LAMBDAS",
    "LinearChristoffel",
    "LinearityViolation",
    "LinearityReport",
    "expand_linear",
    "classical_curvature",
    "linearity_detect",
    "linear_curvature_consistency",
]

#: Scale factors :func:`linearity_detect` probes by default.  Zero first so
#: affine offsets are reported through the lambda = 0 probe; the rest
#: exercise genuine scaling (sign flips, shrinking, growth).
DEFAULT_LAMBDAS = (0.0, -2.0, -1.0, 0.5, 2.0, 7.0)


class LinearChristoffel(_records.Frozen):
    """Three-index symbols ``gamma3[alpha][mu][omega]``, base variables
    only."""

    __slots__ = ("patch", "gamma3")

    def __init__(self, patch: BundlePatch, gamma3: tuple):
        m, n = patch.dims
        self._set(patch, check_grid(gamma3, (n, m, n), m, 0, "gamma3"))

    @staticmethod
    def from_strings(patch: BundlePatch, rows) -> "LinearChristoffel":
        return LinearChristoffel(patch, parse_grid(rows, patch.dims))


def expand_linear(linear: LinearChristoffel) -> ChristoffelField:
    """Generalized symbols ``sum_omega Gamma^alpha_{mu omega}(x) v^omega``."""
    fiber = [Var("f", omega + 1) for omega in range(linear.patch.fiber_dim)]
    gamma = tuple(
        tuple(_symbolic.dot(inner, fiber) for inner in row) for row in linear.gamma3
    )
    return ChristoffelField(linear.patch, gamma)


def classical_curvature(linear: LinearChristoffel, x) -> np.ndarray:
    """Curvature ``R[alpha, mu, nu, omega]`` of the classical formula at
    ``x``; antisymmetric in (mu, nu).  The sum over ``beta`` runs in order,
    one term per step, for every entry at once."""
    pt = EvalPoint.of(x)
    values, grads = sweep_grid(linear.gamma3, lambda e: gradient(e, pt))
    # d[alpha, mu, nu, omega] = d_nu Gamma^alpha_{mu omega}
    d = grads.swapaxes(2, 3)
    out = d.swapaxes(1, 2) - d
    for beta in range(linear.patch.fiber_dim):
        # term[alpha, mu, nu, omega] = Gamma^alpha_{mu beta} Gamma^beta_{nu omega}
        term = values[:, :, None, beta, None] * values[beta][None, None]
        out += term - term.swapaxes(1, 2)
    return out


class LinearityViolation(NamedTuple):
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


class LinearityReport(NamedTuple):
    """Outcome of :func:`linearity_detect`: either the recovered three-index
    field or the first violating sample."""

    field: LinearChristoffel | None
    violation: LinearityViolation | None


def linearity_detect(
    field: ChristoffelField, points, tol: float, lambdas: tuple = DEFAULT_LAMBDAS
) -> LinearityReport:
    """Probe fiber linearity of a connection at the sample points
    ``points``, with relative tolerance ``tol``.

    This is a falsifier, not a proof: it certifies homogeneity only at the
    given points, then checks the extracted symbols reproduce the field at
    those same points.  A detected field is returned; any failure returns
    the first violating point instead.
    """
    m, n = field.patch.dims
    references = {}

    def reference(i: int, alpha: int, mu: int) -> float:
        """``Gamma^alpha_mu`` at sample ``i``.  Evaluated on first use, so
        the evaluations, and any domain error, come in the order they
        would without the reuse."""
        key = (i, alpha, mu)
        if key not in references:
            references[key] = evaluate(field.gamma[alpha][mu], points[i])
        return references[key]

    def violation(alpha, mu, pt, lam, expected, actual, stage) -> LinearityReport | None:
        """The report of a violation unless ``actual`` is within ``tol`` of
        ``expected``, relative to ``max(1, |expected|)``; a NaN on either
        side is a violation."""
        if abs(actual - expected) <= tol * max(1.0, abs(expected)):
            return None
        found = LinearityViolation(alpha + 1, mu + 1, pt.x, pt.f, lam, expected, actual, stage)
        return LinearityReport(None, found)

    def homogeneity(i: int) -> LinearityReport | None:
        pt = points[i]
        for lam in lambdas:
            scaled = EvalPoint(pt.x, tuple(lam * c for c in pt.f))
            for alpha in range(n):
                for mu in range(m):
                    expected = lam * reference(i, alpha, mu)
                    actual = evaluate(field.gamma[alpha][mu], scaled)
                    report = violation(alpha, mu, pt, lam, expected, actual, "homogeneity")
                    if report is not None:
                        return report

    # each_sample yields lazily: no sample after the first violation is probed
    found = next(filter(None, each_sample(homogeneity, range(len(points)))), None)
    if found is not None:
        return found
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

    def rebuilt(i: int) -> LinearityReport | None:
        for alpha in range(n):
            for mu in range(m):
                original = reference(i, alpha, mu)
                value = evaluate(expansion.gamma[alpha][mu], points[i])
                report = violation(alpha, mu, points[i], None, original, value, "expansion")
                if report is not None:
                    return report

    fits = LinearityReport(candidate, None)
    return next(filter(None, each_sample(rebuilt, range(len(points)))), fits)


def linear_curvature_consistency(linear: LinearChristoffel, x, v) -> float:
    """Largest deviation of the general curvature coefficients of the
    expanded field at ``(x, v)`` from the ``v``-contraction of the classical
    formula."""
    m, n = linear.patch.dims
    vvec = np.array([float(c) for c in v])
    if vvec.shape != (n,):
        raise ValueError(f"fiber point needs {n} coordinates, got {vvec.size}")
    general = curvature_coefficients(expand_linear(linear), EvalPoint.of(x, vvec))
    classical = classical_curvature(linear, x)
    contracted = np.einsum("amnw,w->amn", classical, vvec)
    return float(np.abs(general - contracted).max())

