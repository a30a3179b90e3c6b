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
:func:`commutator_tensor` also returns the gap of these jets from a second
route: the covariant derivative, under the prolonged connection, of the
section ``(s, fdot)`` of the vertical bundle.  That route works from
numbers at ``x``.  Its velocity slot ``d fdot^a/dx^mu`` is a first-order
partial of a symbolic first derivative of ``s^a`` (along the smaller of
``mu`` and ``nu``, then the larger) plus the tangent of
``Gamma^a_nu(x, s(x))`` along ``x``, one forward sweep per symbol seeded
with ``x^i -> e_i`` and ``f^b -> ds^b/dx`` (the chain rule through a tape),
and the prolonged symbols are evaluated at ``(x, s(x), fdot)``.  It uses
no mixed second derivative and no value of the five-term formula, so a
defect in either shows as a gap.

The prolonged connection is built once and kept on its field, so it lives
exactly as long as the field.  Nothing is looked up by object identity or
by hashing a tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _symbolic
from .bundle import BundlePatch, ChristoffelField, Section, VerticalVector
from .errors import FiberMismatch
from .exprdsl import Expression, Var, check_grid
from .numcore import EvalPoint, directional, evaluate, gradient, mixed_second, partial

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
    "commutator_tensor",
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


#: Largest slot deviation of two jets over the same fiber.
_FIBER_TOL = 1e-12


def affine_diff(j1: SecondJet, j2: SecondJet) -> VerticalVector:
    """Affine difference of two jets over the same double-projection fiber.

    Requires ``pi(j1) == pi(j2)`` componentwise within :data:`_FIBER_TOL`
    (and the same base point); the difference of the mixed slots is then a
    vertical vector at ``(x, f)``.  Raises :class:`FiberMismatch` otherwise.
    """
    slots = ("x", "f", "fdot", "fcirc")
    deviations = []
    for name in slots:
        a = getattr(j1, name)
        b = getattr(j2, name)
        if len(a) != len(b):
            raise FiberMismatch(f"jets have different {name} lengths")
        # np.max keeps a NaN, and a NaN never passes the comparison
        deviations.append(float(np.max(np.abs(np.subtract(a, b)), initial=0.0)))
    worst = int(np.argmax(deviations))  # the first NaN, if there is one
    if not deviations[worst] <= _FIBER_TOL:
        raise FiberMismatch(
            f"jets sit over different fibers: slot {slots[worst]!r} differs by "
            f"{deviations[worst]:.3e} (tolerance {_FIBER_TOL:.1e})"
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

    ``h^w``, both first-order slots and the Jacobian term come from one
    width-3 :func:`~curvcheck.numcore.directional` sweep of ``h^w`` seeded
    ``f^a -> (fdot^a, fcirc^a, fcircdot^a)``.  The Hessian term stays one
    ``mixed_second`` per pair of nonzero legs: a jet sweep seeded with both
    legs is symmetric in them bit for bit, as every second-order rule is, so
    ``theta-equivariance`` would read 0 on every input.
    """
    n = len(j.f)
    h = check_grid(h, (n,), 0, n, "h")
    p = EvalPoint(j.x, j.f)
    seeds = [(0.0, 0.0, 0.0)] * len(j.x) + list(zip(j.fdot, j.fcirc, j.fcircdot))
    values, legs = zip(*(directional(e, p, seeds) for e in h))
    new_fdot, new_fcirc, new_mixed = (list(slot) for slot in zip(*legs))
    for w in range(n):
        for a in range(n):
            if j.fcirc[a] == 0.0:
                continue
            for b in range(n):
                if j.fdot[b] == 0.0:
                    continue
                new_mixed[w] += (
                    mixed_second(h[w], p, ("f", a + 1), ("f", b + 1))
                    * j.fcirc[a]
                    * j.fdot[b]
                )
    return SecondJet(j.x, values, new_fdot, new_fcirc, new_mixed)


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


def _prolonged_covariants(field: ChristoffelField, s: Section, pairs, x) -> list[list[float]]:
    """The second route to the jets of :func:`_second_covariants`: for each
    ``(mu, nu)`` of ``pairs``, the covariant derivative along ``d/dx^mu``,
    under :func:`vertical_connection`, of the section ``sigma = (s, v)`` of
    the vertical bundle with ``v^a = ds^a/dx^nu + Gamma^a_nu(x, s(x))``, as
    its ``2n`` components at ``x``.

    It is computed from numbers, with no symbolic section: ``d v^a/dx^mu``
    is the first-order partial of the symbolic ``ds^a/dx^i`` along ``x^j``,
    ``(i, j)`` the smaller and the larger of ``mu`` and ``nu``, plus the
    tangent of ``Gamma^a_nu`` at ``(x, s(x))`` along ``(e_mu, ds/dx^mu)``,
    one :func:`~curvcheck.numcore.directional` sweep per symbol for every
    ``mu``.  It evaluates ``s`` itself and calls no ``mixed_second``.
    """
    m, n = field.patch.dims
    prolonged = vertical_connection(field)
    base_pt = EvalPoint.of(x)
    values, grads = zip(*(gradient(c, base_pt) for c in s.comps))
    # x^i moves along e_i and f^b along the gradient of s^b
    seeds = [tuple(float(i == j) for j in range(m)) for i in range(m)] + list(grads)
    at = EvalPoint(base_pt.x, values)
    symbols = [[directional(e, at, seeds) for e in row] for row in field.gamma]
    first = {}  # i -> the symbolic ds^a/dx^i
    covariants = []
    for mu, nu in pairs:
        # d2 s/dx^mu dx^nu, as the partial along the larger index of the
        # symbolic derivative along the smaller, so both orders share a tree
        low, high = sorted((mu, nu))
        if low not in first:
            first[low] = [_symbolic.derivative(c, "x", low) for c in s.comps]
        velocity = tuple(grads[a][nu - 1] + symbols[a][nu - 1][0] for a in range(n))
        sigma = EvalPoint(base_pt.x, values + velocity)
        w = [grads[a][mu - 1] + evaluate(prolonged.gamma[a][mu - 1], sigma) for a in range(n)]
        for a in range(n):
            dv = partial(first[low][a], base_pt, ("x", high)) + symbols[a][nu - 1][1][mu - 1]
            w.append(dv + evaluate(prolonged.gamma[n + a][mu - 1], sigma))
        covariants.append(w)
    return covariants


def _second_covariants(
    field: ChristoffelField, s: Section, pairs, x
) -> tuple[list[SecondJet], float]:
    """The jets :func:`second_covariant` returns, one per ``(mu, nu)`` of
    ``pairs``, from one evaluation of the gradients of ``s`` and of the
    symbols at ``(x, s(x))``, and their largest gap, a NaN kept, from
    :func:`_prolonged_covariants`, which shares no value with them."""
    if s.patch != field.patch:
        raise ValueError("section and connection patches differ")
    m, n = field.patch.dims
    for mu, nu in pairs:
        if not (1 <= mu <= m and 1 <= nu <= m):
            raise ValueError(f"indices must be in 1..{m}, got mu={mu}, nu={nu}")
    base_pt = EvalPoint.of(x)
    svals, sgrads = zip(*(gradient(c, base_pt) for c in s.comps))
    at = EvalPoint(base_pt.x, svals)
    gamma = [[gradient(e, at) for e in row] for row in field.gamma]
    gvals = [[value for value, _ in row] for row in gamma]
    ggrad = [[grad for _, grad in row] for row in gamma]  # x partials, then f
    jets = []
    for mu, nu in pairs:
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
        jets.append(SecondJet(base_pt.x, svals, fdot, fcirc, tuple(mixed)))
    checks = _prolonged_covariants(field, s, pairs, x)
    gaps = [
        np.abs(np.subtract(check, j.fcirc + j.fcircdot)) for check, j in zip(checks, jets)
    ]
    # np.max keeps a NaN, which the row of the check then fails
    return jets, float(np.max(gaps, initial=0.0))


def second_covariant(field: ChristoffelField, s: Section, mu: int, nu: int, x) -> SecondJet:
    """Iterated covariant derivative of ``s``: vertically along ``d/dx^mu``
    after horizontally along ``d/dx^nu``, as a second jet at ``x``.

    Slots: ``f = s(x)``, ``fdot`` the covariant derivative along ``nu``,
    ``fcirc`` the one along ``mu``, ``fcircdot`` the five-term mixed formula
    (module docstring).
    """
    return _second_covariants(field, s, ((mu, nu),), x)[0][0]


def commutator_curvature(
    field: ChristoffelField, s: Section, mu: int, nu: int, x
) -> VerticalVector:
    """Theta-twisted affine difference of the two iterated derivatives:

        affine_diff(D_mu D_nu s, theta(D_nu D_mu s))

    For coordinate directions this equals the curvature coefficients
    ``R^a_{mu nu}(x, s(x))``.
    """
    (j1, j2), _ = _second_covariants(field, s, ((mu, nu), (nu, mu)), x)
    return affine_diff(j1, theta(j2))


def commutator_tensor(field: ChristoffelField, s: Section, x) -> tuple[np.ndarray, float]:
    """:func:`commutator_curvature` for every pair of coordinate directions,
    as ``R[a-1, mu-1, nu-1]`` of shape (n, m, m) like
    :func:`~curvcheck.bundle.curvature_coefficients`, and the largest gap of
    the prolonged-connection route over all its jets.

    Each pair ``mu < nu`` is computed; the lower triangle is its exact
    negation (``affine_diff`` of the swapped jets subtracts the same mixed
    slots the other way round) and the diagonal is zero.
    """
    m, n = field.patch.dims
    upper = [(mu, nu) for mu in range(1, m + 1) for nu in range(mu + 1, m + 1)]
    jets, gap = _second_covariants(
        field, s, [pair for mu, nu in upper for pair in ((mu, nu), (nu, mu))], x
    )
    R = np.zeros((n, m, m))
    for (mu, nu), j1, j2 in zip(upper, jets[::2], jets[1::2]):
        R[:, mu - 1, nu - 1] = affine_diff(j1, theta(j2)).w
        R[:, nu - 1, mu - 1] = -R[:, mu - 1, nu - 1]
    return R, gap
