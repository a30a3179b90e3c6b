"""Principal connections on a trivialized patch U x G.

The local data is a gauge potential: base-only expressions ``A^a_mu(x)``
valued in a matrix Lie algebra.  The connection form it determines is

    omega_(x,g)(xi, g V) = Ad_{g^{-1}} A_x(xi) + V,

where the fiber velocity of a tangent is written left-logarithmically as
``g V``.  This local form is nowhere assumed correct: :func:`check_axiom`
validates it against finite-difference velocities of random product curves
``t -> (x + t xi, g_t gamma_t)``.

Curvature comes out three independent ways:

* :func:`cartan_curvature` evaluates the structure-equation pullback
  ``F_munu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu]`` directly (the bracket
  convention is fixed so that the quadratic term is exactly the commutator
  of the potential values, with no factor of 1/2);
* :func:`exponential_chart_connection` expresses ker omega as generalized
  Christoffel symbols in an exponential fiber chart, where the bundle
  module's Nijenhuis machinery applies verbatim;
* sections ``x -> exp(S(x))`` run through the second-jet commutator of the
  prolong module.

:func:`curvature_cross_check` requires all three to agree pairwise.

The chart symbols use the left-trivialization identity: writing
``g = g0 exp(C)`` with ``C = sum_a c_a E_a``, horizontality of a curve
forces

    dc/dt = -K(ad_C) ( Ad_{g^{-1}} ... )  resolved to
    Gamma_mu(x, c) = K(ad_C)( Ad_{g0^{-1}} A_mu(x) ),
    K(z) = z / (e^z - 1) = 1 - z/2 + z^2/12 - z^4/720 + ...

truncated at a configurable order (default 6; the first omitted nonzero
term is order 8, so within chart radius 1/2 the truncation sits near 1e-9,
well inside the 1e-6 cross-check budget).  The series is never expanded
into monomials of ``c``: starting from the expressions
``w = Ad_{g0^{-1}} A_mu(x)``, each term ``(ad_C)^j w`` is built once from
the one before by ``(ad_C v)^e = sum_b c_b sum_a c[b, a, e] v_a`` and shared
by every later term, so the symbols form one DAG whose size grows linearly
in the order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _symbolic
from .bundle import BundlePatch, ChristoffelField, Section, curvature_coefficients
from .errors import ClosureViolation, NotVertical
from .exprdsl import Var, check_indices, parse
from .lie import (
    AlgebraElement,
    GroupElement,
    MatrixLieAlgebra,
    adjoint,
    bracket,
    exp,
    expm,
)
from .numcore import EvalPoint, central_difference, evaluate, partial
from .prolong import commutator_tensor
from .rng import SplitMix64
from .sampling import sample_algebra_element, sample_polynomial

__all__ = [
    "GaugePotential",
    "PrincipalTangent",
    "CurvatureField",
    "AxiomReport",
    "CrossCheckReport",
    "ThetaBchReport",
    "omega_eval",
    "check_axiom",
    "vtriv_principal",
    "cartan_curvature",
    "exponential_chart_connection",
    "curvature_cross_check",
    "theta_bch",
    "theta_bch_verify",
]


@dataclass(frozen=True, eq=False)
class GaugePotential:
    """Algebra-valued local potential: ``a[mu][e]`` is the expression for
    the coefficient of basis element ``E_{e+1}`` in ``A_{mu+1}(x)``."""

    algebra: MatrixLieAlgebra
    base_dim: int
    a: tuple  # (m, k) expressions, base variables only

    def __post_init__(self):
        if self.base_dim < 1:
            raise ValueError("base dimension must be at least 1")
        rows = tuple(tuple(row) for row in self.a)
        if len(rows) != self.base_dim:
            raise ValueError(
                f"potential needs {self.base_dim} rows, got {len(rows)}"
            )
        for mu, row in enumerate(rows, start=1):
            if len(row) != self.algebra.k:
                raise ValueError(
                    f"row {mu} needs {self.algebra.k} components, got {len(row)}"
                )
            for e, comp in enumerate(row, start=1):
                check_indices(comp, self.base_dim, 0, f"potential component ({mu},{e})")
        object.__setattr__(self, "a", rows)

    @staticmethod
    def from_strings(algebra: MatrixLieAlgebra, rows, base_dim: int) -> "GaugePotential":
        parsed = tuple(
            tuple(parse(src, (base_dim, 1)) for src in row) for row in rows
        )
        return GaugePotential(algebra, base_dim, parsed)

    def value(self, mu: int, x) -> AlgebraElement:
        """A_mu(x) as an algebra element (mu is 1-based)."""
        pt = EvalPoint.of(x)
        coeffs = [evaluate(c, pt) for c in self.a[mu - 1]]
        return AlgebraElement(self.algebra, coeffs)


@dataclass(frozen=True, eq=False)
class PrincipalTangent:
    """Tangent vector at ``(x, g)``: base component ``xi`` and
    left-logarithmic fiber component ``v`` (the fiber velocity is ``g v``)."""

    x: tuple[float, ...]
    g: GroupElement
    xi: tuple[float, ...]
    v: AlgebraElement

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(c) for c in self.x))
        object.__setattr__(self, "xi", tuple(float(c) for c in self.xi))
        if len(self.x) != len(self.xi):
            raise ValueError("base point and base velocity dimensions differ")
        if self.g.g.shape[0] != self.v.algebra.d:
            raise ValueError("group element size does not match the algebra")


@dataclass(frozen=True, eq=False)
class CurvatureField:
    """Curvature coefficients at a point: ``coeffs[mu, nu, e]`` is the
    ``E_{e+1}`` coefficient of ``F_{mu+1, nu+1}``; antisymmetric in the
    first two axes."""

    algebra: MatrixLieAlgebra
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != self.algebra.k:
            raise ValueError("curvature coefficients must have shape (m, m, k)")
        if not np.array_equal(arr, -arr.transpose(1, 0, 2)):
            raise ValueError("curvature coefficients must be antisymmetric in (mu, nu)")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def element(self, mu: int, nu: int) -> AlgebraElement:
        """F_{mu nu} as an algebra element (1-based indices)."""
        return AlgebraElement(self.algebra, self.coeffs[mu - 1, nu - 1])


def _omega(p: GaugePotential, t: PrincipalTangent, drop_adjoint: bool) -> AlgebraElement:
    if t.v.algebra.k != p.algebra.k or t.v.algebra.d != p.algebra.d:
        raise ValueError("tangent and potential use different algebras")
    if len(t.x) != p.base_dim:
        raise ValueError(
            f"tangent base point has {len(t.x)} coordinates, potential "
            f"expects {p.base_dim}"
        )
    pt = EvalPoint(t.x)
    coeffs = np.zeros(p.algebra.k)
    for mu in range(p.base_dim):
        scale = t.xi[mu]
        if scale == 0.0:
            continue
        for e in range(p.algebra.k):
            coeffs[e] += scale * evaluate(p.a[mu][e], pt)
    pulled = AlgebraElement(p.algebra, coeffs)
    if not drop_adjoint:
        pulled = adjoint(t.g.inverse(), pulled)
    return pulled + t.v


def omega_eval(p: GaugePotential, t: PrincipalTangent) -> AlgebraElement:
    """Connection form on the tangent ``(xi, g v)`` at ``(x, g)``:
    ``Ad_{g^{-1}} A_x(xi) + v``."""
    return _omega(p, t, drop_adjoint=False)


@dataclass(frozen=True)
class AxiomReport:
    trials: int
    max_residual: float
    tolerance: float
    passed: bool
    residuals: tuple  # one per trial, in draw order


#: The points of :func:`~curvcheck.numcore.central_difference`, in
#: multiples of :data:`_AXIOM_STEP`, as a column that scales a stack of
#: matrices.
_STENCIL = np.array([1.0, -1.0, 2.0, -2.0])[:, None, None]

#: Finite-difference step of the curve velocities in :func:`check_axiom`.
_AXIOM_STEP = 1e-5


def check_axiom(
    p: GaugePotential,
    trials: int = 100,
    tol: float = 1e-8,
    rng: SplitMix64 | None = None,
    drop_adjoint: bool = False,
) -> AxiomReport:
    """Validate the product-curve axiom of the connection form.

    For random data, the velocity of ``t -> (x + t xi, g_t gamma_t)`` with
    ``g_t = g0 exp(tX)`` and ``gamma_t = gamma0 exp(tY)`` must satisfy

        omega(velocity) = Ad_{gamma0^{-1}} omega(d/dt (x + t xi, g_t))
                          + gamma0^{-1} d/dt gamma_t.

    All curve velocities come from Richardson-extrapolated central
    differences of the matrix curves, never from the synthesized exponents,
    so the check exercises the implementation rather than restating it.
    Draws come from ``rng`` (``SplitMix64(0)`` when it is None).
    ``drop_adjoint`` corrupts the evaluator (negative control: the axiom
    must then fail for non-abelian algebras and nonzero potentials).
    """
    generator = rng if rng is not None else SplitMix64(0)
    alg = p.algebra
    m = p.base_dim
    residuals = []
    for _ in range(trials):
        x0 = tuple(generator.symmetric() for _ in range(m))
        xi = tuple(generator.symmetric() for _ in range(m))
        g0 = exp(sample_algebra_element(generator, alg))
        gamma0 = exp(sample_algebra_element(generator, alg))
        vel_g = sample_algebra_element(generator, alg).matrix
        vel_gamma = sample_algebra_element(generator, alg).matrix
        # g_t and gamma_t at the stencil points; the product curve is their
        # pointwise product
        curve_g = g0.g @ expm(_STENCIL * _AXIOM_STEP * vel_g)
        curve_gamma = gamma0.g @ expm(_STENCIL * _AXIOM_STEP * vel_gamma)
        curve_product = curve_g @ curve_gamma

        product0 = GroupElement(g0.g @ gamma0.g)
        # left-logarithmic velocities at t = 0, as algebra coefficients
        v_product, v_g, v_gamma = (
            alg.expand(np.linalg.solve(g.g, central_difference(*curve, _AXIOM_STEP)), 1e-6)
            for g, curve in ((product0, curve_product), (g0, curve_g), (gamma0, curve_gamma))
        )

        lhs = _omega(
            p,
            PrincipalTangent(x0, product0, xi, AlgebraElement(alg, v_product)),
            drop_adjoint,
        )
        inner = _omega(
            p, PrincipalTangent(x0, g0, xi, AlgebraElement(alg, v_g)), drop_adjoint
        )
        rhs = adjoint(gamma0.inverse(), inner) + AlgebraElement(alg, v_gamma)
        residuals.append(float(np.abs(lhs.coeffs - rhs.coeffs).max()))
    # np.max keeps a NaN, and a non-finite residual never passes
    worst = float(np.max(residuals, initial=0.0))
    return AxiomReport(trials, worst, tol, worst <= tol, tuple(residuals))


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


def cartan_curvature(p: GaugePotential, x) -> CurvatureField:
    """Structure-equation curvature
    ``F_munu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu]`` at ``x``."""
    m = p.base_dim
    k = p.algebra.k
    pt = EvalPoint.of(x)
    values = [
        AlgebraElement(p.algebra, [evaluate(c, pt) for c in row]) for row in p.a
    ]
    coeffs = np.zeros((m, m, k))
    for mu in range(m):
        for nu in range(mu + 1, m):
            grad_mu_nu = np.array(
                [partial(c, pt, ("x", mu + 1)) for c in p.a[nu]]
            )
            grad_nu_mu = np.array(
                [partial(c, pt, ("x", nu + 1)) for c in p.a[mu]]
            )
            comm = bracket(values[mu], values[nu]).coeffs
            entry = grad_mu_nu - grad_nu_mu + comm
            coeffs[mu, nu] = entry
            coeffs[nu, mu] = -entry
    return CurvatureField(p.algebra, coeffs)


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


def _adjoint_coordinate_matrix(alg: MatrixLieAlgebra, g: GroupElement) -> np.ndarray:
    """Matrix of Ad_g on basis coordinates: column e holds the coefficients
    of g E_{e+1} g^{-1}."""
    cols = [adjoint(g, AlgebraElement(alg, col)).coeffs for col in np.eye(alg.k)]
    return np.column_stack(cols)


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
    ad_center = _adjoint_coordinate_matrix(alg, center.inverse())
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


def _identity_chart(p: GaugePotential) -> ChristoffelField:
    """The exponential-chart field centred at the identity, built once per
    potential and kept on it, as the prolonged connection is kept on its
    field."""
    chart = p.__dict__.get("_identity_chart")
    if chart is None:
        chart = exponential_chart_connection(p, p.algebra.identity_group())
        # frozen dataclass: written the way its own __post_init__ writes
        object.__setattr__(p, "_identity_chart", chart)
    return chart


def _left_log_matrix(alg: MatrixLieAlgebra, coords: np.ndarray) -> np.ndarray:
    """Matrix of phi(ad_C) = (1 - e^{-ad_C})/ad_C on coordinates, the map
    taking chart velocities at C to left-logarithmic algebra values."""
    ad_mats = _ad_generator_matrices(alg)
    ad_c = sum(c * mat for c, mat in zip(coords, ad_mats))
    term = np.eye(alg.k)
    total = np.eye(alg.k)
    for j in range(1, 60):
        term = -(ad_c @ term) / (j + 1.0)
        total = total + term
        if float(np.abs(term).max()) < 1e-18:
            break
    return total


@dataclass(frozen=True)
class CrossCheckReport:
    tolerance: float
    max_deviation: float
    pairwise: dict
    group_samples: int
    section_samples: int
    passed: bool


def curvature_cross_check(
    p: GaugePotential,
    x,
    tol: float = 1e-6,
    group_samples: int = 3,
    section_samples: int = 2,
    rng: SplitMix64 | None = None,
) -> CrossCheckReport:
    """Compare three curvature routes at base point ``x``.

    Route one is :func:`cartan_curvature`.  Route two evaluates the bundle
    module's curvature coefficients for the exponential-chart symbols at
    sampled centers (the identity first) and conjugates back.  Route three
    pushes random small sections ``x -> exp(S(x))`` through the second-jet
    commutator and conjugates back, converting chart velocities with the
    left-logarithm factor.  Passes iff all pairwise deviations are within
    ``tol``.  Draws come from ``rng`` (``SplitMix64(0)`` when it is None).
    """
    generator = rng if rng is not None else SplitMix64(0)
    alg = p.algebra
    m = p.base_dim
    k = alg.k
    base = tuple(float(c) for c in x)
    reference = cartan_curvature(p, base)

    # route two: Nijenhuis coefficients in exponential charts, conjugated
    # back to the reference frame
    identity_field = _identity_chart(p)
    chart_values = []  # restored F arrays, one per sampled center
    for i in range(group_samples):
        if i == 0:
            center, field = alg.identity_group(), identity_field
        else:
            center = exp(sample_algebra_element(generator, alg))
            field = exponential_chart_connection(p, center)
        coeffs = curvature_coefficients(field, EvalPoint(base, (0.0,) * k))
        restored = np.zeros((m, m, k))
        for mu in range(m):
            for nu in range(mu + 1, m):
                chart_value = AlgebraElement(alg, coeffs[:, mu, nu])
                restored[mu, nu] = adjoint(center, chart_value).coeffs
                restored[nu, mu] = -restored[mu, nu]
        chart_values.append(restored)

    # route three: second-jet commutator of exp-sections in the identity
    # chart, converted from chart velocities to algebra values
    commutator_values = []
    for _ in range(section_samples):
        comps = tuple(
            sample_polynomial(generator, m, 0, max_terms=3, max_degree=2, scale=0.05)
            for _ in range(k)
        )
        section = Section(identity_field.patch, comps)
        s_at = np.array([evaluate(c, EvalPoint(base)) for c in comps])
        log_factor = _left_log_matrix(alg, s_at)
        group_at = exp(AlgebraElement(alg, s_at))
        vertical = commutator_tensor(identity_field, section, base)
        restored = np.zeros((m, m, k))
        for mu in range(m):
            for nu in range(mu + 1, m):
                algebra_value = AlgebraElement(alg, log_factor @ vertical[:, mu, nu])
                restored[mu, nu] = adjoint(group_at, algebra_value).coeffs
                restored[nu, mu] = -restored[mu, nu]
        commutator_values.append(restored)

    def worst_against(values, target) -> float:
        # np.max keeps a NaN, which then never passes
        return float(np.max([np.abs(v - target).max() for v in values], initial=0.0))

    pairwise = {
        "structure-vs-chart": worst_against(chart_values, reference.coeffs),
        "structure-vs-commutator": worst_against(commutator_values, reference.coeffs),
        "chart-vs-commutator": worst_against(commutator_values, chart_values[0]),
    }
    worst = float(np.max(list(pairwise.values())))
    return CrossCheckReport(
        tolerance=tol,
        max_deviation=worst,
        pairwise=pairwise,
        group_samples=group_samples,
        section_samples=section_samples,
        passed=worst <= tol,
    )


# ---------------------------------------------------------------------------
# the BCH-twisted parameter swap


def theta_bch(
    g: GroupElement, x: AlgebraElement, y: AlgebraElement, z: AlgebraElement
) -> tuple[GroupElement, AlgebraElement, AlgebraElement, AlgebraElement]:
    """Parameter swap on iterated group jets: ``(g, X, Y, Z)`` maps to
    ``(g, Y, X, Z + [X, Y])``.  The bracket correction is what distinguishes
    the group case from the plain slot swap of vector fibers."""
    return (g, y, x, z + bracket(x, y))


@dataclass(frozen=True)
class ThetaBchReport:
    direct_deviation: float
    swapped_deviation: float
    max_deviation: float
    tolerance: float
    passed: bool


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
    points."""
    g, t_plus, t_minus, e_plus, e_minus, pp, pm, mp, mm = values
    dt = (t_plus - t_minus) / (2.0 * _BCH_STEP)
    de = (e_plus - e_minus) / (2.0 * _BCH_STEP)
    mixed = (pp - pm - mp + mm) / (4.0 * _BCH_STEP * _BCH_STEP)
    x = alg.expand(np.linalg.solve(g, dt), 1e-3)
    y = alg.expand(np.linalg.solve(g, de), 1e-3)
    x_mat = AlgebraElement(alg, x).matrix
    y_mat = AlgebraElement(alg, y).matrix
    z = alg.expand(np.linalg.solve(g, mixed) - x_mat @ y_mat, 1e-3)
    return g, x, y, z


def theta_bch_verify(
    g: GroupElement,
    x: AlgebraElement,
    y: AlgebraElement,
    z: AlgebraElement,
    tol: float = 1e-4,
) -> ThetaBchReport:
    """Check :func:`theta_bch` against finite differences.

    Jet slots extracted from the surface ``sigma(t, eps) =
    g exp(tX) exp(eps(Y + tZ))`` must reproduce the inputs; slots extracted
    from the swapped surface ``sigma(eps, t)`` must reproduce the algebraic
    output, including the bracket correction in the mixed slot.  The
    stencil is symmetric under the swap, so both read one stack of values.
    """
    alg = x.algebra
    t, eps = _BCH_STEP * _JET_STENCIL.T[:, :, None, None]
    surface = g.g @ expm(t * x.matrix) @ expm(eps * (y.matrix + t * z.matrix))

    def slot_deviation(extracted, expected) -> float:
        g_exp, *elements = expected
        exact = (g_exp.g, *(e.coeffs for e in elements))
        # np.max keeps a NaN, which then never passes
        return float(np.max([np.abs(u - v).max() for u, v in zip(extracted, exact)]))

    direct = slot_deviation(_extract_jet(alg, surface), (g, x, y, z))
    swapped_dev = slot_deviation(_extract_jet(alg, surface[_JET_SWAP]), theta_bch(g, x, y, z))
    worst = float(np.max([direct, swapped_dev]))
    return ThetaBchReport(
        direct_deviation=direct,
        swapped_deviation=swapped_dev,
        max_deviation=worst,
        tolerance=tol,
        passed=worst <= tol,
    )
