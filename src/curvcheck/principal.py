"""Principal connections on a trivialized patch U x G.

The local data is a gauge potential: base-only expressions ``A^a_mu(x)``
valued in a matrix Lie algebra.  The connection form it determines is

    omega_(x,g)(xi, g V) = Ad_{g^{-1}} A_x(xi) + V,

where the fiber velocity of a tangent is written left-logarithmically as
``g V``.  This local form is nowhere assumed correct: :func:`check_axiom`
measures it against finite-difference velocities of random product curves
``t -> (x + t xi, g_t gamma_t)``.

Curvature comes out three independent ways, one private route function
each, which :func:`curvature_cross_check` runs in this order over every
sample of a check and compares pairwise:

1. :func:`cartan_curvature` evaluates the structure-equation pullback
   ``F_munu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu]`` directly (the bracket
   convention is fixed so that the quadratic term is exactly the commutator
   of the potential values, with no factor of 1/2);
2. :func:`exponential_chart_connection` expresses ker omega as generalized
   Christoffel symbols in an exponential fiber chart, where the bundle
   module's Nijenhuis machinery applies verbatim; the identity's chart is
   built once per call and each drawn center's once per sample;
3. sections ``x -> exp(S(x))`` of all samples run through one second-jet
   commutator of the prolong module, and their chart velocities become
   algebra values in one stack: one Van Loan block, one ``expm``, one
   matrix-vector product per pair and one conjugation.

The chart symbols use the left-trivialization identity: writing
``g = g0 exp(C)`` with ``C = sum_a c_a E_a``, horizontality of a curve
forces

    dc/dt = -K(ad_C) ( Ad_{g^{-1}} ... )  resolved to
    Gamma_mu(x, c) = K(ad_C)( Ad_{g0^{-1}} A_mu(x) ),
    K(z) = z / (e^z - 1) = 1 - z/2 + z^2/12 - z^4/720 + ...

truncated at a configurable order (default 6; the first omitted nonzero
term is order 8, so within chart radius 1/2 the truncation sits near 1e-9,
well inside the 1e-6 default tolerance of ``cartan-cross-check``).  The
series is never expanded into monomials of ``c``: starting from the
expressions ``w = Ad_{g0^{-1}} A_mu(x)``, each term ``(ad_C)^j w`` is built
once from the one before by ``(ad_C v)^e = sum_b c_b sum_a c[b, a, e] v_a``
and shared by every later term, so the symbols form one DAG whose size
grows linearly in the order.

At the chart center ``c = 0`` the truncation is exact from order 1 on:
every term ``(ad_C)^j w`` with ``j >= 2`` is a sum of products of at least
two chart coordinates, so its value and first partials vanish there and
change no bit of either (at most the sign of a zero).  The chart route of
:func:`curvature_cross_check` reads its charts only there, so it builds
them at order 1; the commutator route reads the identity chart away from
its center and keeps order 6.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _records, _symbolic
from .bundle import BundlePatch, ChristoffelField, Section, curvature_coefficients
from .errors import ClosureViolation, NotVertical
from .exprdsl import Var, check_grid, parse_grid
from .lie import (
    AlgebraElement,
    GroupElement,
    MatrixLieAlgebra,
    bracket,
    conjugate,
    expm,
    group_stack,
)
from .numcore import EvalPoint, central_difference, each_sample, evaluate, gradient, sweep_grid
from .prolong import commutator_tensor

__all__ = [
    "GaugePotential",
    "CrossCheckReport",
    "ThetaBchReport",
    "check_axiom",
    "vtriv_principal",
    "cartan_curvature",
    "exponential_chart_connection",
    "curvature_cross_check",
    "theta_bch",
    "theta_bch_verify",
]


class GaugePotential(_records.Frozen):
    """Algebra-valued local potential: ``a[mu][e]`` is the expression for
    the coefficient of basis element ``E_{e+1}`` in ``A_{mu+1}(x)``."""

    __slots__ = ("algebra", "base_dim", "a")

    def __init__(self, algebra: MatrixLieAlgebra, base_dim: int, a: tuple):
        if base_dim < 1:
            raise ValueError("base dimension must be at least 1")
        self._set(algebra, base_dim, check_grid(a, (base_dim, algebra.k), base_dim, 0, "a"))

    @staticmethod
    def from_strings(algebra: MatrixLieAlgebra, rows, base_dim: int) -> "GaugePotential":
        return GaugePotential(algebra, base_dim, parse_grid(rows, (base_dim, 1)))

    def value(self, mu: int, x) -> AlgebraElement:
        """A_mu(x) as an algebra element (mu is 1-based)."""
        if not 1 <= mu <= self.base_dim:
            raise ValueError(f"mu must be in 1..{self.base_dim}, got {mu}")
        pt = EvalPoint.of(x)
        coeffs = [evaluate(c, pt) for c in self.a[mu - 1]]
        return AlgebraElement(self.algebra, coeffs)


def _potential_along(p: GaugePotential, x, xi) -> np.ndarray:
    """Coefficients of ``A_x(xi) = sum_mu xi^mu A_mu(x)``; a row whose
    ``xi^mu`` is zero is not evaluated."""
    pt = EvalPoint(tuple(x))
    coeffs = np.zeros(p.algebra.k)
    for row, scale in zip(p.a, xi):
        if scale == 0.0:
            continue
        for e, comp in enumerate(row):
            coeffs[e] += scale * evaluate(comp, pt)
    return coeffs


def _form(alg: MatrixLieAlgebra, g: np.ndarray, along: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The connection form on a stack of tangents, as coefficients
    ``(S, k)``: ``Ad_{g^{-1}} A_x(xi) + v`` at group elements ``g``
    ``(S, d, d)``, from the potential values ``A_x(xi)`` and left-logarithmic
    fiber components ``v``, both ``(S, k)``.  The inverses pass the
    determinant floor, as ``GroupElement.inverse`` does."""
    return conjugate(alg, group_stack(np.linalg.inv(g)), along) + v


#: The points of :func:`~curvcheck.numcore.central_difference`, in
#: multiples of :data:`_AXIOM_STEP`, as a column that scales a stack of
#: matrices.
_STENCIL = np.array([1.0, -1.0, 2.0, -2.0])[:, None, None]

#: Finite-difference step of the curve velocities in :func:`check_axiom`.
_AXIOM_STEP = 1e-5


def check_axiom(p: GaugePotential, trials) -> tuple[float, ...]:
    """Residuals of the product-curve axiom of the connection form, one per
    trial ``(x0, xi, g0, gamma0, X, Y)``.

    The velocity of ``t -> (x0 + t xi, g_t gamma_t)`` with
    ``g_t = g0 exp(tX)`` and ``gamma_t = gamma0 exp(tY)`` must satisfy

        omega(velocity) = Ad_{gamma0^{-1}} omega(d/dt (x0 + t xi, g_t))
                          + gamma0^{-1} d/dt gamma_t.

    All curve velocities come from Richardson-extrapolated central
    differences of the matrix curves, never from the synthesized exponents,
    so the check exercises the implementation rather than restating it.

    All trials are computed at once, on stacks of matrices: one ``expm`` of
    every curve's stencil points, and one stacked solve, expansion and
    conjugation per step, each bit-identical to its matrices one at a time.
    An error is that of the first trial that fails the first step any trial
    fails; a domain error of the potential names its trial as its sample.
    """
    if not trials:
        return ()
    alg = p.algebra
    _, _, g0, gamma0, vel_g, vel_gamma = zip(*trials)
    g0 = np.array([g.g for g in g0])
    gamma0 = np.array([g.g for g in gamma0])
    generators = alg.matrix(np.array([v.coeffs for v in vel_g + vel_gamma]))
    # g_t and gamma_t at the stencil points, (trial, point, d, d) each; the
    # product curve is their pointwise product
    steps = expm(_STENCIL * _AXIOM_STEP * generators[:, None])
    curve_g = g0[:, None] @ steps[: len(g0)]
    curve_gamma = gamma0[:, None] @ steps[len(g0) :]
    curves = np.stack((curve_g @ curve_gamma, curve_g, curve_gamma), axis=1)
    starts = np.stack((group_stack(g0 @ gamma0), g0, gamma0), axis=1)

    # left-logarithmic velocities at t = 0 of the product, g and gamma
    # curves, as algebra coefficients (trial, curve, k)
    derivative = central_difference(*np.moveaxis(curves, 2, 0), _AXIOM_STEP)
    velocities = alg.expand(np.linalg.solve(starts, derivative), 1e-6)

    along = np.array(list(each_sample(lambda trial: _potential_along(p, *trial[:2]), trials)))
    # omega at the product's start and at g0, in one stack
    omega = _form(
        alg,
        np.concatenate((starts[:, 0], g0)),
        np.concatenate((along, along)),
        np.concatenate((velocities[:, 0], velocities[:, 1])),
    )
    lhs, inner = np.split(omega, 2)
    rhs = conjugate(alg, group_stack(np.linalg.inv(gamma0)), inner) + velocities[:, 2]
    return tuple(float(r) for r in np.abs(lhs - rhs).max(axis=1))


#: Largest distance from the algebra span :func:`vtriv_principal` accepts.
_VERTICAL_TOL = 1e-8


def vtriv_principal(algebra: MatrixLieAlgebra, g0: GroupElement, w) -> AlgebraElement:
    """Vertical trivialization: algebra coefficients of ``g0^{-1} W`` for a
    fiber velocity ``W`` at ``g0``.  Raises :class:`NotVertical` when
    ``g0^{-1} W`` does not lie in the algebra span within
    :data:`_VERTICAL_TOL`."""
    candidate = np.linalg.solve(g0.g, np.asarray(w, dtype=float))
    try:
        coeffs = algebra.expand(candidate, _VERTICAL_TOL)
    except ClosureViolation as exc:
        raise NotVertical(f"velocity is not tangent to the fiber at g0: {exc}") from None
    return AlgebraElement(algebra, coeffs)


def cartan_curvature(p: GaugePotential, x) -> np.ndarray:
    """Structure-equation curvature
    ``F_munu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu]`` at ``x``, from one
    gradient of each potential component, as ``F[mu, nu, e]``, the
    ``E_{e+1}`` coefficient of ``F_{mu+1, nu+1}``; antisymmetric in
    ``(mu, nu)``."""
    m = p.base_dim
    pt = EvalPoint.of(x)
    # grads[nu, e, mu] = d_mu of the E_{e+1} coefficient of A_nu
    values, grads = sweep_grid(p.a, lambda c: gradient(c, pt))
    values = [AlgebraElement(p.algebra, row) for row in values]
    coeffs = np.zeros((m, m, p.algebra.k))
    for mu in range(m):
        for nu in range(mu + 1, m):
            comm = bracket(values[mu], values[nu]).coeffs
            entry = grads[nu, :, mu] - grads[mu, :, nu] + comm
            coeffs[mu, nu] = entry
            coeffs[nu, mu] = -entry
    return coeffs


# ---------------------------------------------------------------------------
# exponential fiber charts

# Taylor coefficients of K(z) = z / (e^z - 1); odd coefficients vanish past
# the first, so order 6 leaves a first neglected term of order 8.
_CHART_SERIES = (
    1.0,
    -0.5,
    1.0 / 12.0,
    0.0,
    -1.0 / 720.0,
    0.0,
    1.0 / 30240.0,
    0.0,
    -1.0 / 1209600.0,
)


def _ad_generator_matrices(alg: MatrixLieAlgebra) -> list[np.ndarray]:
    """Coordinate matrices of ad_{E_b}: entry [e, a] = c[b, a, e]."""
    return [alg.structure[b].T.copy() for b in range(alg.k)]


def exponential_chart_connection(
    p: GaugePotential, center: GroupElement, order: int = 6
) -> ChristoffelField:
    """Generalized Christoffel symbols of ker omega in the exponential chart
    ``g = center exp(sum_a c_a E_a)``.

    Exact at the chart center; elsewhere truncated at series order
    ``order`` (module docstring).  The fiber variables of the returned
    field are the chart coordinates ``c``.
    """
    if not 0 <= order < len(_CHART_SERIES):
        raise ValueError(
            f"chart order must be between 0 and {len(_CHART_SERIES) - 1}"
        )
    alg = p.algebra
    # Ad_{center^-1} on basis coordinates: column e holds the coefficients
    # of the conjugated E_{e+1}
    ad_center = conjugate(alg, center.inverse().g, np.eye(alg.k)).T
    ad_mats = _ad_generator_matrices(alg)
    chart = [Var("f", b + 1) for b in range(alg.k)]

    def ad_chart(v: list) -> list:
        # (ad_C v)^e = sum_b c_b (ad_{E_b} v)^e
        return [
            _symbolic.dot(chart, [_symbolic.dot(mat[e], v) for mat in ad_mats])
            for e in range(alg.k)
        ]

    columns = []
    for row in p.a:
        # the terms (ad_C)^j w of K(ad_C) w, each built once from the last and
        # shared by every component after it
        terms = [[_symbolic.dot(weights, row) for weights in ad_center]]
        for _ in range(order):
            terms.append(ad_chart(terms[-1]))
        columns.append([_symbolic.dot(_CHART_SERIES, term) for term in zip(*terms)])
    return ChristoffelField(BundlePatch(p.base_dim, alg.k), tuple(zip(*columns)))


def _left_log_matrix(alg: MatrixLieAlgebra, coords: np.ndarray) -> np.ndarray:
    """Matrix of phi(ad_C) = (1 - e^{-ad_C})/ad_C on coordinates, the map
    taking chart velocities at C to left-logarithmic algebra values, for
    coordinates ``(k,)`` or each row of a stack ``(..., k)``, as
    ``(..., k, k)``, each row's bit for bit its own.

    It is the integral of ``e^{-s ad_C}`` over ``s`` in ``[0, 1]``: the
    upper-right block of ``expm([[-ad_C, I], [0, 0]])`` (Van Loan, IEEE
    Trans. Automat. Control 23(3), 1978), accurate at every ``|C|``.
    """
    k = alg.k
    block = np.zeros(coords.shape[:-1] + (2 * k, 2 * k))
    ad = zip(np.moveaxis(coords, -1, 0), _ad_generator_matrices(alg))
    block[..., :k, :k] = -sum(c[..., None, None] * mat for c, mat in ad)
    block[..., :k, k:] = np.eye(k)
    return expm(block)[..., :k, k:]


class CrossCheckReport(NamedTuple):
    max_deviation: float
    pairwise: dict
    prolonged_deviation: float


def _structure_route(p: GaugePotential, samples) -> list[np.ndarray]:
    """Route one: :func:`cartan_curvature` at each sample's base point, as
    ``(pairs mu < nu, k)``."""
    upper = np.triu_indices(p.base_dim, 1)
    return list(each_sample(lambda sample: cartan_curvature(p, sample[0])[upper], samples))


def _chart_route(p: GaugePotential, samples) -> list[np.ndarray]:
    """Route two: the curvature coefficients of the order-1 exponential
    charts centered at the identity, built once per call, and at each of a
    sample's ``centers``, read at the chart center and conjugated back to
    the reference frame, as ``(1 + centers, pairs, k)`` per sample."""
    alg = p.algebra
    upper = np.triu_indices(p.base_dim, 1)
    identity = (alg.identity_group(), exponential_chart_connection(p, alg.identity_group(), 1))

    def at(sample) -> np.ndarray:
        base, centers, _ = sample
        frames = [identity] + [(g, exponential_chart_connection(p, g, 1)) for g in centers]
        origin = EvalPoint(base, (0.0,) * alg.k)
        coeffs = [curvature_coefficients(chart, origin) for _, chart in frames]
        groups = np.reshape([g.g for g, _ in frames], (len(frames), 1, alg.d, alg.d))
        return conjugate(alg, groups, np.moveaxis(coeffs, 1, -1)[:, upper[0], upper[1]])

    return list(each_sample(at, samples))


def _commutator_route(p: GaugePotential, samples) -> list[tuple[np.ndarray, np.ndarray]]:
    """Route three: the second-jet commutator of every section
    ``x -> exp(S(x))`` in the order-6 identity chart, where its chart
    coordinates are ``S(x)``, as left-logarithmic values in the reference
    frame ``(sections, pairs, k)`` and prolonged-connection gaps per sample.
    The sections of all samples go through one
    :func:`~curvcheck.prolong.commutator_tensor` and one stacked conversion,
    each section's numbers bit for bit its own."""
    alg = p.algebra
    upper = np.triu_indices(p.base_dim, 1)
    field = exponential_chart_connection(p, alg.identity_group())
    points = [(Section(field.patch, s), x) for x, _, sections in samples for s in sections]
    tensors, gaps = commutator_tensor(field, points)
    s_at = np.reshape([evaluate(c, EvalPoint(x)) for s, x in points for c in s.comps], (-1, alg.k))
    # each pair's velocity as a column (section, pair, k, 1): one
    # matrix-vector product each, as lie._fit forms them
    velocities = tensors[:, upper[0], upper[1]].T[..., None]
    values = (_left_log_matrix(alg, s_at)[:, None] @ velocities)[..., 0]
    values = conjugate(alg, group_stack(expm(alg.matrix(s_at)))[:, None], values)
    ends = np.cumsum([len(sections) for _, _, sections in samples])[:-1]
    return list(zip(np.split(values, ends), np.split(gaps, ends)))


def _worst(values: np.ndarray, target: np.ndarray) -> float:
    # np.max keeps a NaN, which the row of the check then fails
    return float(np.max(np.abs(values - target), initial=0.0))


def curvature_cross_check(p: GaugePotential, samples) -> list[CrossCheckReport]:
    """Compare the three curvature routes at each ``(x, centers, sections)``
    of ``samples`` (module docstring), one report per sample, each bit for
    bit that of its sample alone: the largest deviation of each pair of
    routes over the pairs ``mu < nu`` (each lower triangle is the exact
    negation), and the largest gap of route three's prolonged-connection
    jets, which alone sees a defect in the mixed second derivative of a
    section: that term cancels in the twisted difference.

    The routes run in order, routes one and two one sample at a time, so a
    domain error of the potential names its sample.
    """
    samples = [(tuple(float(c) for c in x), centers, sections) for x, centers, sections in samples]
    reports = []
    for reference, frames, (sections, gaps) in zip(
        _structure_route(p, samples), _chart_route(p, samples), _commutator_route(p, samples)
    ):
        pairwise = {
            "structure-vs-chart": _worst(frames, reference),
            "structure-vs-commutator": _worst(sections, reference),
            "chart-vs-commutator": _worst(sections, frames[0]),
        }
        prolonged = float(np.max(gaps, initial=0.0))
        worst = float(np.max([*pairwise.values(), prolonged]))
        reports.append(CrossCheckReport(worst, pairwise, prolonged))
    return reports


# ---------------------------------------------------------------------------
# the BCH-twisted parameter swap


def theta_bch(
    g: GroupElement, x: AlgebraElement, y: AlgebraElement, z: AlgebraElement
) -> tuple[GroupElement, AlgebraElement, AlgebraElement, AlgebraElement]:
    """Parameter swap on iterated group jets: ``(g, X, Y, Z)`` maps to
    ``(g, Y, X, Z + [X, Y])``.  The bracket correction is what distinguishes
    the group case from the plain slot swap of vector fibers."""
    return (g, y, x, z + bracket(x, y))


class ThetaBchReport(NamedTuple):
    direct_deviation: float
    swapped_deviation: float
    max_deviation: float


#: The (t, eps) points of :func:`_extract_jet`, in multiples of
#: :data:`_BCH_STEP`.
_JET_STENCIL = np.array(
    [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)],
    dtype=float,
)

#: Position in :data:`_JET_STENCIL` of each point with t and eps swapped.
_JET_SWAP = [0, 3, 4, 1, 2, 5, 7, 6, 8]


#: Finite-difference step of :func:`theta_bch_verify`'s surface jets.
_BCH_STEP = 1e-4


def _extract_jet(
    alg: MatrixLieAlgebra, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Numerical jet slots (g, X, Y, Z) of a matrix surface sigma(t, eps)
    of the form g e^{tX} e^{eps(Y + tZ)} via central differences.
    ``values`` is the stack of its values at the :data:`_JET_STENCIL`
    points, each a matrix or a stack of them, whose slots then come as
    stacks too."""
    g, t_plus, t_minus, e_plus, e_minus, pp, pm, mp, mm = values
    dt = (t_plus - t_minus) / (2.0 * _BCH_STEP)
    de = (e_plus - e_minus) / (2.0 * _BCH_STEP)
    mixed = (pp - pm - mp + mm) / (4.0 * _BCH_STEP * _BCH_STEP)
    x = alg.expand(np.linalg.solve(g, dt), 1e-3)
    y = alg.expand(np.linalg.solve(g, de), 1e-3)
    z = alg.expand(np.linalg.solve(g, mixed) - alg.matrix(x) @ alg.matrix(y), 1e-3)
    return g, x, y, z


def theta_bch_verify(jets) -> list[ThetaBchReport]:
    """Deviations of :func:`theta_bch` from finite differences, one report
    per ``(g, X, Y, Z)`` of ``jets``, all of one algebra.

    Jet slots extracted from the surface ``sigma(t, eps) =
    g exp(tX) exp(eps(Y + tZ))`` must reproduce the inputs; slots extracted
    from the swapped surface ``sigma(eps, t)`` must reproduce the algebraic
    output, including the bracket correction in the mixed slot.  The
    stencil is symmetric under the swap, so both read one stack of values.
    The surfaces of all jets come from one stacked ``expm`` pair, and each
    slot from one stacked solve and expansion, every number bit for bit
    that of its jet alone.
    """
    if not jets:
        return []
    g, *elements = zip(*jets)
    alg = elements[0][0].algebra
    g = np.array([h.g for h in g])
    x, y, z = (alg.matrix([e.coeffs for e in slot]) for slot in elements)
    # surface values (stencil point, jet, d, d)
    t, eps = _BCH_STEP * _JET_STENCIL.T[:, :, None, None, None]
    surface = g @ expm(t * x) @ expm(eps * (y + t * z))

    def slot_deviations(extracted, expected) -> np.ndarray:
        # each jet's largest deviation; np.max keeps a NaN, which the row of
        # the check then fails
        g_exp, *slots = zip(*expected)
        exact = (np.array([h.g for h in g_exp]), *(np.array([e.coeffs for e in s]) for s in slots))
        return np.max(
            [np.abs(u - v).reshape(len(jets), -1).max(axis=1) for u, v in zip(extracted, exact)],
            axis=0,
        )

    direct = slot_deviations(_extract_jet(alg, surface), jets)
    swapped = slot_deviations(
        _extract_jet(alg, surface[_JET_SWAP]), [theta_bch(*jet) for jet in jets]
    )
    return [
        ThetaBchReport(d, s, float(np.max([d, s])))
        for d, s in zip(direct.tolist(), swapped.tolist())
    ]
