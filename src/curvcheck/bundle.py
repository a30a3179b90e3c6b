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

a vertical vector (:func:`nijenhuis_tensor` also returns its gap from the
four-term expansion ``-P[X,Y] + P[X,PY] + P[PX,Y] - [PX,PY]``), with
coordinate coefficients

    R^a_{mu nu} = dGamma^a_nu/dx^mu - dGamma^a_mu/dx^nu
                  + sum_b (Gamma^b_nu dGamma^a_mu/df^b
                           - Gamma^b_mu dGamma^a_nu/df^b).

All value types are immutable; base indices ``mu`` are 1-based throughout.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _records, _symbolic
from .exprdsl import Expression, check_grid
from .numcore import (
    EvalPoint,
    StackedPoint,
    directional,
    each_sample,
    evaluate,
    gradient,
    over_samples,
    sweep_grid,
)

__all__ = [
    "BundlePatch",
    "ChristoffelField",
    "Section",
    "TotalVectorField",
    "FiberBundleMorphism",
    "vertical_projection_field",
    "horizontal_part_field",
    "nijenhuis_tensor",
    "curvature_coefficients",
    "is_parallel_morphism",
]


class BundlePatch(_records.Value):
    """A trivialized patch: base dimension and fiber dimension."""

    __slots__ = ("base_dim", "fiber_dim")

    def __init__(self, base_dim: int, fiber_dim: int):
        if base_dim < 1 or fiber_dim < 1:
            raise ValueError(f"patch dimensions must be positive, got ({base_dim}, {fiber_dim})")
        set_base_dim, set_fiber_dim = self._setters
        set_base_dim(self, base_dim)
        set_fiber_dim(self, fiber_dim)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.base_dim, self.fiber_dim)

    def check_point(self, p: EvalPoint, base: bool = False) -> None:
        """Raise ``ValueError`` unless ``p`` is a point of the patch, or of
        its base when ``base`` is set."""
        dims = (self.base_dim, 0) if base else self.dims
        if (len(p.x), len(p.f)) != dims:
            what = "base point" if base else "point"
            raise ValueError(f"{what} has dims ({len(p.x)}, {len(p.f)}), expected {dims}")


class ChristoffelField(_records.Value):
    """Generalized Christoffel symbols ``gamma[a-1][mu-1] = Gamma^a_mu(x, f)``
    of a (generally non-linear) connection on ``patch``."""

    __slots__ = ("patch", "gamma")

    def __init__(self, patch: BundlePatch, gamma: tuple[tuple[Expression, ...], ...]):
        m, n = patch.dims
        self._set(patch, check_grid(gamma, (n, m), m, n, "gamma"))


class Section(_records.Value):
    """A section ``x -> (x, comps(x))``; components are base-only
    expressions."""

    __slots__ = ("patch", "comps")

    def __init__(self, patch: BundlePatch, comps: tuple[Expression, ...]):
        m, n = patch.dims
        self._set(patch, check_grid(comps, (n,), m, 0, "comps"))

    def value(self, x) -> tuple[float, ...]:
        p = EvalPoint.of(x)
        return tuple(evaluate(c, p) for c in self.comps)


class TotalVectorField(_records.Value):
    """Vector field on the total space with expression components: ``a`` over
    base directions, ``b`` over fiber directions, all functions of (x, f)."""

    __slots__ = ("patch", "a", "b")

    def __init__(self, patch: BundlePatch, a: tuple[Expression, ...], b: tuple[Expression, ...]):
        m, n = patch.dims
        self._set(patch, check_grid(a, (m,), m, n, "a"), check_grid(b, (n,), m, n, "b"))

    @classmethod
    def coordinate(cls, patch: BundlePatch, mu: int) -> "TotalVectorField":
        """The coordinate base field d/dx^mu."""
        m, n = patch.dims
        if not 1 <= mu <= m:
            raise ValueError(f"mu must be in 1..{m}, got {mu}")
        one = _symbolic.const(1.0)
        zero = _symbolic.const(0.0)
        return cls(
            patch,
            tuple(one if i == mu else zero for i in range(1, m + 1)),
            (zero,) * n,
        )


class FiberBundleMorphism(_records.Value):
    """A base-preserving bundle morphism ``(x, f) -> (x, comps(x, f))`` from
    ``source`` to ``target`` (same base dimension required)."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: BundlePatch, target: BundlePatch, comps: tuple[Expression, ...]):
        if source.base_dim != target.base_dim:
            raise ValueError("morphism must preserve the base dimension")
        self._set(source, target, check_grid(comps, (target.fiber_dim,), *source.dims, "comps"))


# ---------------------------------------------------------------------------
# pointwise operations
#
# The private helpers below also run at a StackedPoint: every number they
# return is then an array with one entry per point, computed by the same
# float operations in the same order as at each point alone.


class _Parts(NamedTuple):
    """The base part ``a`` and fiber part ``b`` of a tangent at a point, as
    arrays or as sequences of numbers."""

    a: np.ndarray
    b: np.ndarray


def _symbol_values(field: ChristoffelField, p: EvalPoint) -> list[list[float]]:
    """``Gamma^a_mu(p)`` for every symbol, rows by fiber index."""
    return [[evaluate(e, p) for e in row] for row in field.gamma]


def _projected(gamma, t: _Parts) -> tuple[float, ...]:
    """The projection field applied to the tangent ``t``: ``b^a + sum_mu
    Gamma^a_mu a^mu``, from the symbol values ``gamma`` at its point."""
    w = []
    for row, acc in zip(gamma, t.b):
        for g, comp in zip(row, t.a):
            acc = acc + g * comp
        w.append(acc)
    return tuple(w)


def _lifted(gamma, xi) -> tuple[float, ...]:
    """Fiber part of the horizontal lift of the base vector ``xi``:
    ``-sum_mu Gamma^a_mu xi^mu`` for every ``a``, from the symbol values
    ``gamma`` at the lift's point."""
    b = []
    for row in gamma:
        acc = 0.0
        for g, comp in zip(row, xi):
            acc -= g * comp
        b.append(acc)
    return tuple(b)


def _jet(V: TotalVectorField, p: EvalPoint):
    """Values ``vals[i]`` and gradients ``grads[i, j]`` of every component
    of ``V`` at ``p``, base components before fiber ones, as arrays: the
    first-order data of a bracket."""
    return sweep_grid(V.a + V.b, lambda c: gradient(c, p))


def _bracket(jet_V, jet_W, p: EvalPoint) -> _Parts:
    """Lie bracket ``[V, W]`` at ``p``, over all m+n coordinates, of the
    fields whose :func:`_jet` are ``jet_V`` and ``jet_W``."""
    vals_V, grads_V = jet_V
    vals_W, grads_W = jet_W
    # [V,W]^i = sum_j (V^j dW^i/dz^j - W^j dV^i/dz^j), summed over j in
    # order, for every i at once
    out = 0.0
    for j in range(len(vals_V)):
        out = out + (vals_V[j] * grads_W[:, j] - vals_W[j] * grads_V[:, j])
    m = len(p.x)
    return _Parts(out[:m], out[m:])


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


def nijenhuis_tensor(
    field: ChristoffelField, fields, points: StackedPoint
) -> tuple[np.ndarray, np.ndarray]:
    """Curvature ``R[a-1, i, j] = R(V_i, V_j)^a = -P[(id-P)V_i, (id-P)V_j]^a``
    for every pair of ``fields`` at every point of ``points``, shape
    (n, k, k, S) for k fields and S points, and the gap of its second route,
    shape (S,).

    Each field's ``(id-P)`` and ``P`` parts are built once; at each point
    every jet is taken and every symbol evaluated once, all points swept
    through :func:`~curvcheck.numcore.over_samples`.  For each pair
    ``i < j`` the equivalent four-term expansion ``-P[V,W] + P[V,PW] +
    P[PV,W] - [PV,PW]`` is also evaluated; the gap is the largest
    ``|two-term - four-term|`` over all pairs, a NaN kept.  The two-term
    value is the tensor; the lower triangle is its exact negation (bracket
    and projection are sign-symmetric in IEEE arithmetic) and the diagonal
    is zero.
    """
    fields = tuple(fields)
    if any(V.patch.dims != field.patch.dims for V in fields):
        raise ValueError("bracket operands must live on the connection's patch")
    horizontal_fields = [horizontal_part_field(field, V) for V in fields]
    vertical_fields = [vertical_projection_field(field, V) for V in fields]

    def tensor_at(p):
        field.patch.check_point(p)
        samples = np.shape(p.x[0])  # (S,) at a stack of S points
        horizontal = [_jet(V, p) for V in horizontal_fields]
        plain = [_jet(V, p) for V in fields]
        vertical = [_jet(V, p) for V in vertical_fields]
        gamma = _symbol_values(field, p)
        R = np.zeros((field.patch.fiber_dim, len(fields), len(fields)) + samples)
        gaps = [np.zeros(samples)]
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                two = [-w for w in _projected(gamma, _bracket(horizontal[i], horizontal[j], p))]
                t1 = _projected(gamma, _bracket(plain[i], plain[j], p))
                t2 = _projected(gamma, _bracket(plain[i], vertical[j], p))
                t3 = _projected(gamma, _bracket(vertical[i], plain[j], p))
                t4 = _bracket(vertical[i], vertical[j], p).b
                four = [-a + b + c - d for a, b, c, d in zip(t1, t2, t3, t4)]
                gaps.extend(np.abs(np.subtract(two, four)))
                R[:, i, j] = two
                R[:, j, i] = -R[:, i, j]
        # np.max keeps a NaN, which the row of the check then fails
        return R, np.max(gaps, axis=0)

    return over_samples(tensor_at, points)


def curvature_coefficients(field: ChristoffelField, p: EvalPoint) -> np.ndarray:
    """Coordinate curvature tensor ``R[a-1, mu-1, nu-1] = R^a_{mu nu}(p)``,
    shape (n, m, m), antisymmetric in the last two slots: the module's
    coordinate formula fed the symbols' structural partials.  At a
    :class:`~curvcheck.numcore.StackedPoint` it has a trailing axis of one
    entry per point."""
    m = field.patch.base_dim
    field.patch.check_point(p)
    vals, grads = sweep_grid(field.gamma, lambda e: gradient(e, p))
    return _coordinate_curvature(vals, grads[:, :, :m], grads[:, :, m:])


def _coordinate_curvature(vals: np.ndarray, gx: np.ndarray, gf: np.ndarray) -> np.ndarray:
    """The coordinate formula of the module docstring, from symbol values
    ``vals[a, mu]`` and partials ``gx[a, mu, nu] = dGamma^a_mu/dx^nu``,
    ``gf[a, mu, b] = dGamma^a_mu/df^b``, however they were computed, and any
    trailing sample axes they share.  The sum over ``b`` runs in order, one
    term per step, for every entry at once."""
    n, m = vals.shape[:2]
    R = gx.swapaxes(1, 2) - gx
    for b in range(n):
        R += vals[b][None, None, :] * gf[:, :, None, b] - vals[b][None, :, None] * gf[:, None, :, b]
    return R


# ---------------------------------------------------------------------------
# morphisms


def is_parallel_morphism(
    phi: FiberBundleMorphism,
    field: ChristoffelField,
    field_hat: ChristoffelField,
    samples,
) -> tuple[float, ...]:
    """How far ``phi`` is from mapping ``field``-horizontal to
    ``field_hat``-horizontal, one residual per sample.

    At each sample point the horizontal lifts of all coordinate directions are
    pushed forward and projected with ``field_hat``; the residual is the
    largest absolute fiber component.  ``samples`` is a sequence of
    :class:`EvalPoint` on the source patch.  The symbols of both connections
    are evaluated once per sample, as every lift sits at the sample and every
    pushforward at its image, and each component of ``phi`` is swept once,
    seeded with all ``m`` lifts (slot ``mu`` of coordinate ``i`` is
    component ``i`` of the lift of ``d/dx^mu``).  A domain error names its
    sample.
    """
    m = field.patch.base_dim
    directions = [tuple(float(i == mu) for i in range(m)) for mu in range(m)]

    def residual_at(p) -> float:
        field.patch.check_point(p)
        gamma = _symbol_values(field, p)
        lifts = [_lifted(gamma, xi) for xi in directions]
        # the base coordinates move as the directions, the fiber ones as the lifts
        seeds = directions + list(zip(*lifts))
        values, pushed = zip(*(directional(c, p, seeds) for c in phi.comps))
        image = EvalPoint(p.x, values)
        gamma_hat = _symbol_values(field_hat, image)
        fiber_parts = []
        for mu, xi in enumerate(directions):
            pushed_lift = _Parts(xi, [slots[mu] for slots in pushed])
            fiber_parts.extend(_projected(gamma_hat, pushed_lift))
        # np.max keeps a NaN, which the row of the check then fails
        return float(np.max(np.abs(fiber_parts)))

    return tuple(each_sample(residual_at, samples))
