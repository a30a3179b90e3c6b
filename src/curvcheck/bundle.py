"""Non-linear connections on a trivialized fiber bundle patch.

A patch is ``U x F`` with ``U`` open in ``R^m`` (coordinates ``x1..xm``) and
fiber ``F = R^n`` (coordinates ``f1..fn``).  A connection is stored through
its generalized Christoffel symbols ``Gamma^a_mu(x, f)``: the field of
projections onto the vertical distribution acts on a tangent vector with base
part ``a`` and fiber part ``b`` by

    P(a, b)^a = b^a + sum_mu Gamma^a_mu(x, f) * a^mu,

so the horizontal lift of ``d/dx^mu`` is ``d/dx^mu - sum_a Gamma^a_mu d/df^a``.
Curvature is the obstruction to horizontal subspaces closing under the Lie
bracket:

    R(X, Y) = -P[(id - P)X, (id - P)Y],

a vertical vector, with coordinate coefficients

    R^a_{mu nu} = dGamma^a_nu/dx^mu - dGamma^a_mu/dx^nu
                  + sum_b (Gamma^b_nu dGamma^a_mu/df^b
                           - Gamma^b_mu dGamma^a_nu/df^b).

All value types are immutable; base indices ``mu`` are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _symbolic
from .errors import InternalDisagreement
from .exprdsl import Expression, check_indices, parse
from .numcore import EvalPoint, evaluate, gradient, partial

__all__ = [
    "BundlePatch",
    "ChristoffelField",
    "TotalTangent",
    "VerticalVector",
    "Section",
    "TotalVectorField",
    "FiberBundleMorphism",
    "ParallelMorphismReport",
    "project",
    "embed",
    "horizontal_lift",
    "covariant_derivative",
    "lie_bracket",
    "vertical_projection_field",
    "horizontal_part_field",
    "nijenhuis_tensor",
    "nijenhuis_curvature",
    "curvature_coefficients",
    "pushforward",
    "is_parallel_morphism",
]


@dataclass(frozen=True)
class BundlePatch:
    """A trivialized patch: base dimension and fiber dimension."""

    base_dim: int
    fiber_dim: int

    def __post_init__(self):
        if self.base_dim < 1 or self.fiber_dim < 1:
            raise ValueError(
                f"patch dimensions must be positive, got "
                f"({self.base_dim}, {self.fiber_dim})"
            )

    @property
    def dims(self) -> tuple[int, int]:
        return (self.base_dim, self.fiber_dim)


@dataclass(frozen=True)
class ChristoffelField:
    """Generalized Christoffel symbols ``gamma[a-1][mu-1] = Gamma^a_mu(x, f)``
    of a (generally non-linear) connection on ``patch``."""

    patch: BundlePatch
    gamma: tuple[tuple[Expression, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.gamma)
        object.__setattr__(self, "gamma", rows)
        m, n = self.patch.dims
        if len(rows) != n or any(len(row) != m for row in rows):
            raise ValueError(
                f"gamma must be {n} rows of {m} expressions for patch dims {self.patch.dims}"
            )
        for a, row in enumerate(rows, start=1):
            for mu, e in enumerate(row, start=1):
                check_indices(e, m, n, f"Gamma^{a}_{mu}")

    @classmethod
    def from_strings(cls, patch: BundlePatch, rows) -> "ChristoffelField":
        parsed = tuple(
            tuple(parse(src, patch.dims) for src in row) for row in rows
        )
        return cls(patch, parsed)


@dataclass(frozen=True)
class TotalTangent:
    """Tangent vector of the total space at ``at``: base part ``a`` (length
    m), fiber part ``b`` (length n)."""

    at: EvalPoint
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))


@dataclass(frozen=True)
class VerticalVector:
    """Vertical tangent vector at ``at`` with fiber components ``w``."""

    at: EvalPoint
    w: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(float(v) for v in self.w))


@dataclass(frozen=True)
class Section:
    """A section ``x -> (x, comps(x))``; components are base-only
    expressions."""

    patch: BundlePatch
    comps: tuple[Expression, ...]

    def __post_init__(self):
        comps = tuple(self.comps)
        object.__setattr__(self, "comps", comps)
        if len(comps) != self.patch.fiber_dim:
            raise ValueError(
                f"section needs {self.patch.fiber_dim} components, got {len(comps)}"
            )
        for i, e in enumerate(comps, start=1):
            check_indices(e, self.patch.base_dim, 0, f"section component {i}")

    @classmethod
    def from_strings(cls, patch: BundlePatch, sources) -> "Section":
        return cls(patch, tuple(parse(s, patch.dims) for s in sources))

    def value(self, x) -> tuple[float, ...]:
        p = EvalPoint.of(x)
        return tuple(evaluate(c, p) for c in self.comps)


@dataclass(frozen=True)
class TotalVectorField:
    """Vector field on the total space with expression components: ``a`` over
    base directions, ``b`` over fiber directions, all functions of (x, f)."""

    patch: BundlePatch
    a: tuple[Expression, ...]
    b: tuple[Expression, ...]

    def __post_init__(self):
        a = tuple(self.a)
        b = tuple(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        m, n = self.patch.dims
        if len(a) != m or len(b) != n:
            raise ValueError(
                f"field needs {m} base and {n} fiber components, got "
                f"({len(a)}, {len(b)})"
            )
        for i, e in enumerate(a, start=1):
            check_indices(e, m, n, f"base component {i}")
        for i, e in enumerate(b, start=1):
            check_indices(e, m, n, f"fiber component {i}")

    @classmethod
    def from_strings(cls, patch: BundlePatch, a_sources, b_sources) -> "TotalVectorField":
        dims = patch.dims
        return cls(
            patch,
            tuple(parse(s, dims) for s in a_sources),
            tuple(parse(s, dims) for s in b_sources),
        )

    @classmethod
    def coordinate(cls, patch: BundlePatch, mu: int) -> "TotalVectorField":
        """The coordinate base field d/dx^mu."""
        m, n = patch.dims
        one = _symbolic.const(1.0)
        zero = _symbolic.const(0.0)
        return cls(
            patch,
            tuple(one if i == mu else zero for i in range(1, m + 1)),
            (zero,) * n,
        )


@dataclass(frozen=True)
class FiberBundleMorphism:
    """A base-preserving bundle morphism ``(x, f) -> (x, comps(x, f))`` from
    ``source`` to ``target`` (same base dimension required)."""

    source: BundlePatch
    target: BundlePatch
    comps: tuple[Expression, ...]

    def __post_init__(self):
        comps = tuple(self.comps)
        object.__setattr__(self, "comps", comps)
        if self.source.base_dim != self.target.base_dim:
            raise ValueError("morphism must preserve the base dimension")
        if len(comps) != self.target.fiber_dim:
            raise ValueError(
                f"morphism needs {self.target.fiber_dim} fiber components, "
                f"got {len(comps)}"
            )
        for i, e in enumerate(comps, start=1):
            check_indices(e, *self.source.dims, f"morphism component {i}")

    @classmethod
    def from_strings(cls, source: BundlePatch, target: BundlePatch, sources):
        return cls(source, target, tuple(parse(s, source.dims) for s in sources))

    def value(self, p: EvalPoint) -> tuple[float, ...]:
        return tuple(evaluate(c, p) for c in self.comps)


@dataclass(frozen=True)
class ParallelMorphismReport:
    """Outcome of :func:`is_parallel_morphism`: per-sample residuals of the
    projected pushforwards of horizontal lifts."""

    residuals: tuple[float, ...]
    max_residual: float
    tolerance: float
    parallel: bool
    samples: tuple[EvalPoint, ...] = field(repr=False, default=())


# ---------------------------------------------------------------------------
# pointwise operations


def _symbol_values(field: ChristoffelField, p: EvalPoint) -> list[list[float]]:
    """``Gamma^a_mu(p)`` for every symbol, rows by fiber index."""
    return [[evaluate(e, p) for e in row] for row in field.gamma]


def _projected(gamma, t: TotalTangent) -> tuple[float, ...]:
    """``b^a + sum_mu Gamma^a_mu a^mu`` of ``t``, from the symbol values
    ``gamma`` at its point."""
    w = []
    for row, acc in zip(gamma, t.b):
        for g, comp in zip(row, t.a):
            acc += g * comp
        w.append(acc)
    return tuple(w)


def project(field: ChristoffelField, t: TotalTangent) -> VerticalVector:
    """Apply the projection field: ``w^a = b^a + sum_mu Gamma^a_mu * a^mu``."""
    return VerticalVector(t.at, _projected(_symbol_values(field, t.at), t))


def embed(v: VerticalVector) -> TotalTangent:
    """A vertical vector regarded as a total-space tangent (zero base part)."""
    return TotalTangent(v.at, (0.0,) * len(v.at.x), v.w)


def horizontal_lift(field: ChristoffelField, p: EvalPoint, xi) -> TotalTangent:
    """Horizontal lift of the base vector ``xi`` to ``p``:
    base part ``xi``, fiber part ``-sum_mu Gamma^a_mu(p) xi^mu``."""
    xi = tuple(float(v) for v in xi)
    if len(xi) != field.patch.base_dim:
        raise ValueError(f"xi must have length {field.patch.base_dim}")
    return TotalTangent(p, xi, _lifted(_symbol_values(field, p), xi))


def _lifted(gamma, xi) -> tuple[float, ...]:
    """``-sum_mu Gamma^a_mu xi^mu`` for every ``a``, from the symbol values
    ``gamma`` at the lift's point."""
    b = []
    for row in gamma:
        acc = 0.0
        for g, comp in zip(row, xi):
            acc -= g * comp
        b.append(acc)
    return tuple(b)


def covariant_derivative(
    field: ChristoffelField, section: Section, mu: int, x
) -> VerticalVector:
    """Covariant derivative of ``section`` along ``d/dx^mu`` at base point
    ``x``: components ``ds^a/dx^mu + Gamma^a_mu(x, s(x))``."""
    m = field.patch.base_dim
    if not 1 <= mu <= m:
        raise ValueError(f"mu must be in 1..{m}, got {mu}")
    base_pt = EvalPoint.of(x)
    svals = tuple(evaluate(c, base_pt) for c in section.comps)
    at = EvalPoint(base_pt.x, svals)
    w = tuple(
        partial(c, base_pt, ("x", mu)) + evaluate(row[mu - 1], at)
        for c, row in zip(section.comps, field.gamma)
    )
    return VerticalVector(at, w)


def _jet(V: TotalVectorField, p: EvalPoint):
    """Values and gradients of every component of ``V`` at ``p``, base
    components before fiber ones: the first-order data of a bracket."""
    return tuple(zip(*(gradient(c, p) for c in V.a + V.b)))


def _bracket(jet_V, jet_W, p: EvalPoint) -> TotalTangent:
    """Lie bracket at ``p`` of the fields whose :func:`_jet` are ``jet_V``
    and ``jet_W``."""
    vals_V, grads_V = jet_V
    vals_W, grads_W = jet_W
    out = []
    for gV, gW in zip(grads_V, grads_W):
        acc = 0.0
        for j in range(len(vals_V)):
            acc += vals_V[j] * gW[j] - vals_W[j] * gV[j]
        out.append(acc)
    m = len(p.x)
    return TotalTangent(p, tuple(out[:m]), tuple(out[m:]))


def lie_bracket(V: TotalVectorField, W: TotalVectorField, p: EvalPoint) -> TotalTangent:
    """Lie bracket ``[V, W]`` at ``p``, over all m+n coordinates:
    ``[V,W]^i = sum_j (V^j dW^i/dz^j - W^j dV^i/dz^j)``."""
    if V.patch.dims != W.patch.dims:
        raise ValueError("bracket operands must live on the same patch")
    return _bracket(_jet(V, p), _jet(W, p), p)


# ---------------------------------------------------------------------------
# expression-level projection of vector fields


def _vertical_component_exprs(field: ChristoffelField, V: TotalVectorField):
    """Fiber components of P(V) as expressions: b^a + sum_mu Gamma^a_mu a^mu."""
    return tuple(_symbolic.dot(row, V.a, start=b) for row, b in zip(field.gamma, V.b))


def vertical_projection_field(field: ChristoffelField, V: TotalVectorField) -> TotalVectorField:
    """P(V) as a vector field (zero base part, projected fiber part)."""
    zero = _symbolic.const(0.0)
    return TotalVectorField(
        V.patch,
        (zero,) * field.patch.base_dim,
        _vertical_component_exprs(field, V),
    )


def horizontal_part_field(field: ChristoffelField, V: TotalVectorField) -> TotalVectorField:
    """(id - P)(V): base part kept, fiber part ``-sum_mu Gamma^a_mu a^mu``
    (independent of V's own fiber part)."""
    out = tuple(_symbolic.neg(_symbolic.dot(row, V.a)) for row in field.gamma)
    return TotalVectorField(V.patch, V.a, out)


#: Largest disagreement of the two-term and four-term curvature.
_CONSISTENCY_TOL = 1e-9


def nijenhuis_tensor(field: ChristoffelField, fields, p: EvalPoint) -> np.ndarray:
    """Curvature ``R[a-1, i, j] = R(V_i, V_j)^a = -P[(id-P)V_i, (id-P)V_j]^a``
    at ``p`` for every pair of ``fields``, shape (n, k, k) for k fields.

    Each field's ``(id-P)`` and ``P`` parts are built, every jet taken and
    every symbol evaluated once.  For each pair ``i < j`` the equivalent
    four-term expansion ``-P[V,W] + P[V,PW] + P[PV,W] - [PV,PW]`` is also
    evaluated, and :class:`InternalDisagreement` is raised if the two differ
    by more than :data:`_CONSISTENCY_TOL` in any component.  The two-term
    value is kept; the lower triangle is its exact negation (bracket and
    projection are sign-symmetric in IEEE arithmetic) and the diagonal is
    zero.
    """
    fields = tuple(fields)
    if any(V.patch.dims != field.patch.dims for V in fields):
        raise ValueError("bracket operands must live on the connection's patch")
    horizontal = [_jet(horizontal_part_field(field, V), p) for V in fields]
    plain = [_jet(V, p) for V in fields]
    vertical = [_jet(vertical_projection_field(field, V), p) for V in fields]
    gamma = _symbol_values(field, p)
    R = np.zeros((field.patch.fiber_dim, len(fields), len(fields)))
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            two = [-w for w in _projected(gamma, _bracket(horizontal[i], horizontal[j], p))]
            t1 = _projected(gamma, _bracket(plain[i], plain[j], p))
            t2 = _projected(gamma, _bracket(plain[i], vertical[j], p))
            t3 = _projected(gamma, _bracket(vertical[i], plain[j], p))
            t4 = _bracket(vertical[i], vertical[j], p).b
            four = [-a + b + c - d for a, b, c, d in zip(t1, t2, t3, t4)]
            # np.max keeps a NaN, and a NaN never passes the comparison
            worst = float(np.max(np.abs(np.subtract(two, four)), initial=0.0))
            if not worst <= _CONSISTENCY_TOL:
                raise InternalDisagreement(
                    f"two-term and four-term curvature differ by {worst:.3e} "
                    f"(tolerance {_CONSISTENCY_TOL:.1e}) at {p}"
                )
            R[:, i, j] = two
            R[:, j, i] = -R[:, i, j]
    return R


def nijenhuis_curvature(
    field: ChristoffelField,
    V: TotalVectorField,
    W: TotalVectorField,
    p: EvalPoint,
) -> VerticalVector:
    """Curvature ``R(V, W) = -P[(id-P)V, (id-P)W]`` at ``p``: the ``(V, W)``
    entry of :func:`nijenhuis_tensor`, with its two-term/four-term guard."""
    return VerticalVector(p, nijenhuis_tensor(field, (V, W), p)[:, 0, 1])


def curvature_coefficients(field: ChristoffelField, p: EvalPoint) -> np.ndarray:
    """Coordinate curvature tensor ``R[a-1, mu-1, nu-1] = R^a_{mu nu}(p)``,
    shape (n, m, m), antisymmetric in the last two slots."""
    m, n = field.patch.dims
    vals = np.empty((n, m))
    gx = np.empty((n, m, m))
    gf = np.empty((n, m, n))
    for a in range(n):
        for mu in range(m):
            vals[a, mu], grad = gradient(field.gamma[a][mu], p)
            gx[a, mu], gf[a, mu] = grad[:m], grad[m:]
    R = np.zeros((n, m, m))
    for a in range(n):
        for mu in range(m):
            for nu in range(m):
                acc = gx[a, nu, mu] - gx[a, mu, nu]
                for b in range(n):
                    acc += vals[b, nu] * gf[a, mu, b] - vals[b, mu] * gf[a, nu, b]
                R[a, mu, nu] = acc
    return R


# ---------------------------------------------------------------------------
# morphisms


def pushforward(phi: FiberBundleMorphism, t: TotalTangent) -> TotalTangent:
    """Differential of ``phi`` applied to ``t``; the result sits at
    ``(x, phi(x, f))`` on the target patch."""
    p = t.at
    grads = [gradient(c, p) for c in phi.comps]
    return TotalTangent(_pushed_point(phi, p, grads), t.a, _pushed(grads, t))


def _pushed_point(phi: FiberBundleMorphism, p: EvalPoint, grads) -> EvalPoint:
    """``(x, phi(x, f))`` from the values in ``grads``, the value-gradient
    pairs of the components of ``phi`` at ``p``."""
    return EvalPoint(p.x[: phi.source.base_dim], tuple(val for val, _ in grads))


def _pushed(grads, t: TotalTangent) -> tuple[float, ...]:
    """Fiber part of the pushforward of ``t``, from the value-gradient pairs
    ``grads`` of the morphism's components at its point."""
    comps = t.a + t.b
    return tuple(sum(g * v for g, v in zip(grad, comps)) for _, grad in grads)


def is_parallel_morphism(
    phi: FiberBundleMorphism,
    field: ChristoffelField,
    field_hat: ChristoffelField,
    samples,
    tol: float = 1e-9,
) -> ParallelMorphismReport:
    """Test whether ``phi`` maps ``field``-horizontal to ``field_hat``-horizontal.

    At each sample point the horizontal lifts of all coordinate directions are
    pushed forward and projected with ``field_hat``; the residual is the
    largest absolute fiber component.  ``samples`` is a sequence of
    :class:`EvalPoint` on the source patch.  The symbols of both connections
    and the gradients of ``phi`` are evaluated once per sample, as every
    lift sits at the sample and every pushforward at its image.
    """
    samples = tuple(samples)
    m = field.patch.base_dim
    residuals = []
    for p in samples:
        gamma = _symbol_values(field, p)
        grads = [gradient(c, p) for c in phi.comps]
        image = _pushed_point(phi, p, grads)
        gamma_hat = _symbol_values(field_hat, image)
        fiber_parts = []
        for mu in range(1, m + 1):
            xi = tuple(1.0 if i == mu else 0.0 for i in range(1, m + 1))
            lifted = TotalTangent(p, xi, _lifted(gamma, xi))
            pushed = TotalTangent(image, xi, _pushed(grads, lifted))
            fiber_parts.extend(_projected(gamma_hat, pushed))
        # np.max keeps a NaN, which then never counts as parallel
        residuals.append(float(np.max(np.abs(fiber_parts))))
    max_res = float(np.max(residuals, initial=0.0))
    return ParallelMorphismReport(
        residuals=tuple(residuals),
        max_residual=max_res,
        tolerance=tol,
        parallel=max_res <= tol,
        samples=samples,
    )
