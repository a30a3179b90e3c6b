"""Second-order jets of sections and the prolonged (vertical) connection.

A second jet over base point ``x`` carries fiber slots

    (f; fdot; fcirc; fcircdot)

where ``fdot`` is the first-parameter velocity, ``fcirc`` the
second-parameter velocity, and ``fcircdot`` the mixed second velocity.  The
slot swap

    theta(f; fdot; fcirc; fcircdot) = (f; fcirc; fdot; fcircdot)

exchanges the two parameters.  Forgetting the mixed slot and reordering gives
the double projection

    pi(f; fdot; fcirc; fcircdot) = (f; fcirc; fdot),

whose fibers are affine lines: two jets over the same ``pi``-image differ by
a well-defined vertical vector (their ``fcircdot`` difference).

A connection on the underlying patch induces one on its vertical bundle.  In
coordinates ``(f, u)`` on the vertical fiber (``u`` the variation slot), the
induced Christoffel symbols are

    Gamma'^a_mu(x, f, u)       = Gamma^a_mu(x, f)            (position block)
    Gamma'^(n+a)_mu(x, f, u)   = sum_b dGamma^a_mu/df^b (x,f) * u^b

which is the one place this package differentiates expressions structurally.

Differentiating a section twice, vertically after horizontally, produces a
second jet whose mixed slot is

    d2 s^a/dx^mu dx^nu + dGamma^a_nu/dx^mu
    + sum_b dGamma^a_mu/df^b Gamma^b_nu
    + sum_b dGamma^a_nu/df^b ds^b/dx^mu
    + sum_b dGamma^a_mu/df^b ds^b/dx^nu      (all at (x, s(x))),

and the theta-twisted affine difference of the two orders recovers the
curvature coefficients: see :func:`commutator_curvature`.

The symbolic constructions are built once and kept on the objects they
belong to, so they live exactly as long as those objects: the prolonged
connection on its field, and the velocity-paired sections of
:func:`second_covariant` on their section (for the last field they were
paired under).  Nothing is looked up by object identity or by hashing a
tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _symbolic
from .bundle import (
    BundlePatch,
    ChristoffelField,
    Section,
    VerticalVector,
    covariant_derivative,
)
from .errors import FiberMismatch, InternalDisagreement
from .exprdsl import Expression, Var, max_indices
from .numcore import EvalPoint, evaluate, gradient, mixed_second

__all__ = [
    "SecondJet",
    "VerticalPairBase",
    "theta",
    "pi",
    "affine_diff",
    "pushforward_second_jet",
    "vertical_connection",
    "second_covariant",
    "commutator_curvature",
]


@dataclass(frozen=True)
class SecondJet:
    """Second-order jet over base point ``x`` with the four fiber slots."""

    x: tuple[float, ...]
    f: tuple[float, ...]
    fdot: tuple[float, ...]
    fcirc: tuple[float, ...]
    fcircdot: tuple[float, ...]

    def __post_init__(self):
        for name in ("x", "f", "fdot", "fcirc", "fcircdot"):
            object.__setattr__(
                self, name, tuple(float(v) for v in getattr(self, name))
            )
        n = len(self.f)
        if not (len(self.fdot) == len(self.fcirc) == len(self.fcircdot) == n):
            raise ValueError("all fiber slots must have the same length")


@dataclass(frozen=True)
class VerticalPairBase:
    """Image of a second jet under the double projection: position ``f`` with
    the two first-order velocities, mixed slot forgotten."""

    x: tuple[float, ...]
    f: tuple[float, ...]
    first: tuple[float, ...]
    second: tuple[float, ...]


def theta(j: SecondJet) -> SecondJet:
    """Swap the two differentiation parameters (involution; fixes ``f`` and
    the mixed slot)."""
    return SecondJet(j.x, j.f, j.fcirc, j.fdot, j.fcircdot)


def pi(j: SecondJet) -> VerticalPairBase:
    """Double projection: forget the mixed slot, ordering the variation
    velocity first."""
    return VerticalPairBase(j.x, j.f, j.fcirc, j.fdot)


def affine_diff(j1: SecondJet, j2: SecondJet, fiber_tol: float = 1e-12) -> VerticalVector:
    """Affine difference of two jets over the same double-projection fiber.

    Requires ``pi(j1) == pi(j2)`` componentwise within ``fiber_tol`` (and the
    same base point); the difference of the mixed slots is then a vertical
    vector at ``(x, f)``.  Raises :class:`FiberMismatch` otherwise.
    """
    deviations = []
    for name in ("x", "f", "fdot", "fcirc"):
        a = getattr(j1, name)
        b = getattr(j2, name)
        if len(a) != len(b):
            raise FiberMismatch(f"jets have different {name} lengths")
        deviations.append(max((abs(p - q) for p, q in zip(a, b)), default=0.0))
    worst = max(deviations)
    if worst > fiber_tol:
        slot = ("x", "f", "fdot", "fcirc")[deviations.index(worst)]
        raise FiberMismatch(
            f"jets sit over different fibers: slot {slot!r} differs by "
            f"{worst:.3e} (tolerance {fiber_tol:.1e})"
        )
    w = tuple(a - b for a, b in zip(j1.fcircdot, j2.fcircdot))
    return VerticalVector(EvalPoint(j1.x, j1.f), w)


def pushforward_second_jet(h: tuple[Expression, ...], j: SecondJet) -> SecondJet:
    """Push a second jet through a fiber chart transition ``f' = h(f)``.

    ``h`` is a tuple of n expressions in the fiber variables only.  First
    order slots transform by the Jacobian of ``h``; the mixed slot picks up
    the quadratic correction

        fcircdot'^w = sum_{a,b} d2 h^w/df^a df^b * fcirc^a * fdot^b
                      + sum_a dh^w/df^a * fcircdot^a.
    """
    n = len(j.f)
    h = tuple(h)
    if len(h) != n:
        raise ValueError(f"transition needs {n} components, got {len(h)}")
    for i, e in enumerate(h, start=1):
        mx, mf = max_indices(e)
        if mx > 0:
            raise ValueError(f"transition component {i} must not reference x variables")
        if mf > n:
            raise ValueError(
                f"transition component {i} references f{mf} but the fiber dimension is {n}"
            )
    p = EvalPoint(j.x, j.f)
    values = []
    jac = []
    for e in h:
        val, grad = gradient(e, p)
        values.append(val)
        jac.append(grad[len(j.x):])
    new_fdot = tuple(
        sum(jac[w][a] * j.fdot[a] for a in range(n)) for w in range(n)
    )
    new_fcirc = tuple(
        sum(jac[w][a] * j.fcirc[a] for a in range(n)) for w in range(n)
    )
    new_mixed = []
    for w in range(n):
        acc = sum(jac[w][a] * j.fcircdot[a] for a in range(n))
        for a in range(n):
            if j.fcirc[a] == 0.0:
                continue
            for b in range(n):
                if j.fdot[b] == 0.0:
                    continue
                acc += (
                    mixed_second(h[w], p, ("f", a + 1), ("f", b + 1))
                    * j.fcirc[a]
                    * j.fdot[b]
                )
        new_mixed.append(acc)
    return SecondJet(j.x, tuple(values), new_fdot, new_fcirc, tuple(new_mixed))


# ---------------------------------------------------------------------------
# induced connection on the vertical bundle


def vertical_connection(field: ChristoffelField) -> ChristoffelField:
    """The induced connection on the vertical bundle of ``field``'s patch.

    The prolonged patch has the same base and fiber dimension ``2n``: fiber
    variables ``f1..fn`` are the position block and ``f(n+1)..f(2n)`` the
    variation block.  See the module docstring for the symbol layout.  Built
    once per field and kept on it.
    """
    prolonged = field.__dict__.get("_vertical_connection")
    if prolonged is not None:
        return prolonged
    m, n = field.patch.dims
    variation = [Var("f", n + b + 1) for b in range(n)]
    lifted = tuple(
        tuple(
            _symbolic.dot([_symbolic.derivative(e, "f", b + 1) for b in range(n)], variation)
            for e in row
        )
        for row in field.gamma
    )
    prolonged = ChristoffelField(BundlePatch(m, 2 * n), tuple(field.gamma) + lifted)
    # frozen dataclass: written the way its own __post_init__ writes
    object.__setattr__(field, "_vertical_connection", prolonged)
    return prolonged


def _section_with_velocity(field: ChristoffelField, s: Section, nu: int) -> Section:
    """Section of the vertical bundle pairing ``s`` with its covariant
    derivative along ``d/dx^nu``, as expressions of x.  Kept on ``s`` for
    the last field it was paired under."""
    owner, by_direction = s.__dict__.get("_velocity_sections", (None, None))
    if owner is not field:
        by_direction = {}
        object.__setattr__(s, "_velocity_sections", (field, by_direction))
    if nu in by_direction:
        return by_direction[nu]
    prolonged = vertical_connection(field)
    velocity = []
    for a in range(field.patch.fiber_dim):
        ds = _symbolic.derivative(s.comps[a], "x", nu)
        gamma_on_s = _symbolic.substitute_fiber(field.gamma[a][nu - 1], s.comps)
        velocity.append(_symbolic.add(ds, gamma_on_s))
    out = Section(prolonged.patch, s.comps + tuple(velocity))
    by_direction[nu] = out
    return out


def second_covariant(
    field: ChristoffelField,
    s: Section,
    mu: int,
    nu: int,
    x,
    consistency_tol: float = 1e-9,
) -> SecondJet:
    """Iterated covariant derivative of ``s``: vertically along ``d/dx^mu``
    after horizontally along ``d/dx^nu``, as a second jet at ``x``.

    Slots: ``f = s(x)``, ``fdot`` the covariant derivative along ``nu``,
    ``fcirc`` the one along ``mu``, ``fcircdot`` the five-term mixed formula
    (module docstring).  The same jet is recomputed through the prolonged
    connection applied to the velocity-paired section; the two routes must
    agree within ``consistency_tol`` or :class:`InternalDisagreement` is
    raised.
    """
    m, n = field.patch.dims
    if not (1 <= mu <= m and 1 <= nu <= m):
        raise ValueError(f"indices must be in 1..{m}, got mu={mu}, nu={nu}")
    base_pt = EvalPoint.of(x)
    svals, sgrads = zip(*(gradient(c, base_pt) for c in s.comps))
    at = EvalPoint(base_pt.x, svals)
    gamma = [[gradient(e, at) for e in row] for row in field.gamma]
    gvals = [[value for value, _ in row] for row in gamma]
    ggrad = [[grad for _, grad in row] for row in gamma]  # x partials, then f
    i_mu = mu - 1
    i_nu = nu - 1
    fdot = tuple(sgrads[a][i_nu] + gvals[a][i_nu] for a in range(n))
    fcirc = tuple(sgrads[a][i_mu] + gvals[a][i_mu] for a in range(n))
    mixed = []
    for a in range(n):
        acc = mixed_second(s.comps[a], base_pt, ("x", mu), ("x", nu))
        acc += ggrad[a][i_nu][i_mu]
        for b in range(n):
            acc += ggrad[a][i_mu][m + b] * gvals[b][i_nu]
            acc += ggrad[a][i_nu][m + b] * sgrads[b][i_mu]
            acc += ggrad[a][i_mu][m + b] * sgrads[b][i_nu]
        mixed.append(acc)
    jet = SecondJet(base_pt.x, svals, fdot, fcirc, tuple(mixed))

    # redundant route: covariant derivative of the velocity-paired section
    # under the prolonged connection
    prolonged = vertical_connection(field)
    paired = _section_with_velocity(field, s, nu)
    check = covariant_derivative(prolonged, paired, mu, base_pt.x)
    # np.max keeps a NaN, and a NaN never passes the comparison
    worst = float(np.max(np.abs(np.subtract(check.w, fcirc + tuple(mixed)))))
    if not worst <= consistency_tol:
        raise InternalDisagreement(
            f"explicit and prolonged-connection routes for the second "
            f"covariant derivative differ by {worst:.3e} "
            f"(tolerance {consistency_tol:.1e})"
        )
    return jet


def commutator_curvature(
    field: ChristoffelField, s: Section, mu: int, nu: int, x
) -> VerticalVector:
    """Theta-twisted affine difference of the two iterated derivatives:

        affine_diff(D_mu D_nu s, theta(D_nu D_mu s))

    For coordinate directions this equals the curvature coefficients
    ``R^a_{mu nu}(x, s(x))``.
    """
    j1 = second_covariant(field, s, mu, nu, x)
    j2 = second_covariant(field, s, nu, mu, x)
    return affine_diff(j1, theta(j2))
