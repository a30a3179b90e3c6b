"""Tests for principal connections on a trivialized group patch: the
connection form, the product-curve axiom, vertical trivialization, the
structure-equation curvature, the three-route cross-check, and the
bracket-twisted parameter swap."""

import math

import numpy as np
import pytest

from _reference import parse_grid, potential_value, vtriv_principal
from curvcheck import principal
from curvcheck.bundle import Section, curvature_coefficients
from curvcheck.errors import ClosureViolation, IndexOutOfRange
from curvcheck.lie import bracket, builtin_algebra, conjugate, exp, expm, group_stack
from curvcheck.numcore import EvalPoint, evaluate
from curvcheck.principal import (
    _CHART_SERIES,
    GaugePotential,
    _form,
    _potential_along,
    cartan_curvature,
    check_axiom,
    curvature_cross_check,
    exponential_chart_connection,
    theta_bch,
    theta_bch_verify,
)
from curvcheck.prolong import commutator_tensor
from curvcheck.rng import SplitMix64
from curvcheck.sampling import (
    sample_algebra_element,
    sample_axiom_trials,
    sample_cross_check,
)

SO2 = builtin_algebra("so2")
SO3 = builtin_algebra("so3")
I3 = np.eye(3)

# A_1 = x1*E1, A_2 = x2*E2 on a two-dimensional base.
SO3_POTENTIAL = GaugePotential(SO3, 2, parse_grid([["x1", "0", "0"], ["0", "x2", "0"]], (2, 1)))
# A_1 = 0, A_2 = x1*E: constant curvature F_12 = E.
ABELIAN_POTENTIAL = GaugePotential(SO2, 2, parse_grid([["0"], ["x1"]], (2, 1)))
FLAT_SO3 = GaugePotential(SO3, 2, parse_grid([["0", "0", "0"], ["0", "0", "0"]], (2, 1)))
# Rows of a two-dimensional potential in a three-dimensional algebra.
POLYNOMIAL_ROWS = [["x1", "x2*x1", "0.5"], ["x2^2", "-x1", "x1*x2 + 0.3"]]
NONPOLYNOMIAL_ROWS = [
    ["exp(x1)", "sin(x2)*x1", "x1/(x2 + 2)"],
    ["cos(x1)/(1 + x2^2)", "exp(-x2)", "0.3"],
]


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return group_stack(np.array([[c, -s], [s, c]]))


def test_potential_rejects_fiber_variables_and_bad_indices():
    with pytest.raises(ValueError):
        GaugePotential(SO2, 2, parse_grid([["f1"], ["0"]], (2, 1)))
    with pytest.raises(IndexOutOfRange):
        GaugePotential(SO2, 2, parse_grid([["x3"], ["0"]], (2, 1)))


def test_potential_value():
    out = potential_value(SO3_POTENTIAL, 1, (0.5, -1.0))
    assert np.allclose(out, (0.5, 0.0, 0.0))
    out = potential_value(SO3_POTENTIAL, 2, (0.5, -1.0))
    assert np.allclose(out, (0.0, -1.0, 0.0))


@pytest.mark.parametrize("mu", [0, -1, 3])
def test_potential_value_rejects_an_index_outside_the_base(mu):
    # index 0 would otherwise read row m, as Python indexes from the end
    with pytest.raises(ValueError, match=r"1\.\.2"):
        potential_value(SO3_POTENTIAL, mu, (0.5, -1.0))


# --- the connection form ----------------------------------------------------
#
# The form on the tangent (xi, g v) at (x, g) is one row of _form, the stack
# that check_axiom evaluates, at g, A_x(xi) and v.


def test_omega_at_identity_is_potential_plus_fiber():
    # A_x(xi) = 2*(0.5 E1) + 3*(-1.0 E2) = (1, -3, 0).
    along = _potential_along(SO3_POTENTIAL, (0.5, -1.0), (2.0, 3.0))
    v = np.array((0.1, 0.2, 0.3))
    out = _form(SO3, I3[None], along[None], v[None])[0]
    assert np.allclose(out, (1.1, -2.8, 0.3), atol=1e-12)


def test_omega_on_vertical_tangents_returns_fiber_component():
    rng = SplitMix64(61)
    for _ in range(5):
        g = exp(SO3, sample_algebra_element(rng, SO3))
        v = sample_algebra_element(rng, SO3)
        along = _potential_along(SO3_POTENTIAL, (0.3, 0.4), (0.0, 0.0))
        out = _form(SO3, g[None], along[None], v[None])[0]
        assert np.array_equal(out, v)


def test_omega_vertical_matches_vertical_trivialization():
    rng = SplitMix64(67)
    for _ in range(5):
        g = exp(SO3, sample_algebra_element(rng, SO3))
        v = sample_algebra_element(rng, SO3)
        along = _potential_along(SO3_POTENTIAL, (0.1, 0.2), (0.0, 0.0))
        via_omega = _form(SO3, g[None], along[None], v[None])[0]
        via_vtriv = vtriv_principal(SO3, g, g @ SO3.matrix(v))
        assert np.max(np.abs(via_omega - via_vtriv)) <= 1e-10


def test_omega_ignores_adjoint_on_abelian_fibers():
    g = _rotation(1.2)
    along = _potential_along(ABELIAN_POTENTIAL, (0.5, 0.0), (0.0, 1.0))
    # A_x(xi) = x1*E = 0.5 E, plus V = 0.25 E.
    out = _form(SO2, g[None], along[None], np.array([(0.25,)]))[0]
    assert np.allclose(out, (0.75,), atol=1e-12)


def test_omega_right_translation_equivariance():
    rng = SplitMix64(71)
    for _ in range(10):
        g = exp(SO3, sample_algebra_element(rng, SO3))
        gamma = exp(SO3, sample_algebra_element(rng, SO3))
        xi = (rng.symmetric(1.0), rng.symmetric(1.0))
        v = sample_algebra_element(rng, SO3)
        x = (rng.symmetric(1.0), rng.symmetric(1.0))
        along = _potential_along(SO3_POTENTIAL, x, xi)[None]
        base = _form(SO3, g[None], along, v[None])[0]
        moved = conjugate(SO3, np.linalg.inv(gamma), v)
        translated = _form(SO3, (g @ gamma)[None], along, moved[None])[0]
        expected = conjugate(SO3, np.linalg.inv(gamma), base)
        assert np.max(np.abs(translated - expected)) <= 1e-9


# --- the product-curve axiom ------------------------------------------------


def _axiom(p: GaugePotential, trials: int) -> tuple[float, ...]:
    """The axiom's residuals on ``trials`` trials drawn from ``SplitMix64(0)``."""
    rng = SplitMix64(0)
    return check_axiom(
        p, [sample_axiom_trials(rng, p.algebra, p.base_dim, 1)[0] for _ in range(trials)]
    )


def test_axiom_holds_for_zero_potential():
    residuals = _axiom(FLAT_SO3, 50)
    assert max(residuals) <= 1e-8
    assert len(residuals) == 50


def test_axiom_holds_for_nonabelian_potential():
    assert max(_axiom(SO3_POTENTIAL, 100)) <= 1e-8


def test_axiom_holds_for_abelian_potential():
    assert max(_axiom(ABELIAN_POTENTIAL, 50)) <= 1e-8


SL2 = builtin_algebra("sl2")
SL2_POTENTIAL = GaugePotential(
    SL2, 2, parse_grid([["x1*x2", "1 - x2", "0.5"], ["x2^2", "0", "x1"]], (2, 1))
)


@pytest.mark.parametrize("p", [SO3_POTENTIAL, SL2_POTENTIAL, ABELIAN_POTENTIAL], ids=["so3", "sl2", "so2"])
def test_stacked_axiom_equals_one_trial_at_a_time(p):
    rng = SplitMix64(83)
    trials = [sample_axiom_trials(rng, p.algebra, p.base_dim, 1)[0] for _ in range(40)]
    assert check_axiom(p, trials) == tuple(check_axiom(p, [t])[0] for t in trials)
    assert check_axiom(p, []) == ()


def test_stacked_axiom_trials_are_the_one_trial_draws():
    for algebra in (SO3, SL2, SO2):
        stacked = sample_axiom_trials(SplitMix64(89), algebra, 3, 25)
        rng = SplitMix64(89)
        singles = [sample_axiom_trials(rng, algebra, 3, 1)[0] for _ in range(25)]
        for trial, single in zip(stacked, singles):
            x0, xi, g0, gamma0, x, y = trial
            assert (x0, xi) == single[:2]
            assert np.array_equal(g0, single[2]) and np.array_equal(gamma0, single[3])
            assert np.array_equal(x, single[4])
            assert np.array_equal(y, single[5])
        assert len(stacked) == 25


def test_the_sampled_elements_are_read_only():
    # a route that wrote into a sample would change what a later route reads
    rng = SplitMix64(103)
    _, _, g0, gamma0, x, y = sample_axiom_trials(rng, SO3, 2, 3)[1]
    [center], _ = sample_cross_check(rng, SO3, 2, 1, 0)
    for value in (sample_algebra_element(rng, SO3), g0, gamma0, x, y, center):
        with pytest.raises(ValueError, match="read-only"):
            value[0] = 0.0


def test_axiom_trials_are_the_documented_draws_one_at_a_time():
    # x0 and xi (m draws each), the logs of g0 and gamma0, then X and Y (k
    # draws each), every one a symmetric(1) draw of its own
    for algebra in (SO3, SL2, SO2):
        k = algebra.k
        block, rng = SplitMix64(101), SplitMix64(101)
        for trial in sample_axiom_trials(block, algebra, 2, 9):
            x0, xi = (tuple(rng.symmetric(1.0) for _ in range(2)) for _ in range(2))
            starts = [exp(algebra, sample_algebra_element(rng, algebra)) for _ in range(2)]
            x, y = ([rng.symmetric(1.0) for _ in range(k)] for _ in range(2))
            assert trial[:2] == (x0, xi)
            assert all(type(c) is float for c in trial[0] + trial[1])
            assert [g.tobytes() for g in trial[2:4]] == [g.tobytes() for g in starts]
            assert [z.tolist() for z in trial[4:]] == [x, y]
        assert block.next_raw() == rng.next_raw()


def test_omega_eval_is_one_row_of_the_stacked_axiom_form():
    rng = SplitMix64(97)
    for x0, xi, g0, _, x, _ in sample_axiom_trials(rng, SO3, 2, 10):
        along = np.zeros(SO3.k)
        for mu, scale in enumerate(xi, start=1):
            along = along + scale * potential_value(SO3_POTENTIAL, mu, x0)
        plain = conjugate(SO3, np.linalg.inv(g0), along)
        row = _potential_along(SO3_POTENTIAL, x0, xi)
        form = _form(SO3, g0[None], row[None], x[None])[0]
        assert np.array_equal(form, plain + x)


def _drop_adjoint(monkeypatch):
    """Plant the defect A_x(xi) + v for Ad_{g^{-1}} A_x(xi) + v in the
    stacked form that ``check_axiom`` reads: it is
    evaluated as if every tangent sat at the identity."""
    original = principal._form
    monkeypatch.setattr(
        principal,
        "_form",
        lambda alg, g, along, v: original(alg, np.broadcast_to(np.eye(alg.d), g.shape), along, v),
    )


def test_axiom_detects_dropped_adjoint_factor(monkeypatch):
    # Without the adjoint twist the form fails the axiom whenever the
    # fiber is non-abelian and the potential is nonzero.
    _drop_adjoint(monkeypatch)
    assert max(_axiom(SO3_POTENTIAL, 50)) > 1e-8


def test_axiom_drop_adjoint_harmless_on_abelian(monkeypatch):
    _drop_adjoint(monkeypatch)
    assert max(_axiom(ABELIAN_POTENTIAL, 50)) <= 1e-8


# --- vertical trivialization ------------------------------------------------


def test_vtriv_recovers_exponential_generator():
    rng = SplitMix64(73)
    for _ in range(5):
        g0 = exp(SO3, sample_algebra_element(rng, SO3))
        x = sample_algebra_element(rng, SO3)
        w = g0 @ SO3.matrix(x)
        out = vtriv_principal(SO3, g0, w)
        assert np.max(np.abs(out - x)) <= 1e-12


def test_vtriv_of_zero_velocity():
    g0 = exp(SO3, (0.2, -0.1, 0.5))
    out = vtriv_principal(SO3, g0, np.zeros((3, 3)))
    assert np.array_equal(out, np.zeros(3))


def test_vtriv_rotation_derivative():
    # d/dt rotation(alpha + t) = rotation(alpha) @ E, so the coefficients
    # are exactly those of the generator E.
    alpha = 0.9
    w = np.array(
        [
            [-math.sin(alpha), -math.cos(alpha)],
            [math.cos(alpha), -math.sin(alpha)],
        ]
    )
    out = vtriv_principal(SO2, _rotation(alpha), w)
    assert np.allclose(out, (1.0,), atol=1e-12)


def test_vtriv_rejects_non_vertical_velocity():
    with pytest.raises(ClosureViolation):
        vtriv_principal(SO3, I3, np.eye(3))


# --- structure-equation curvature -------------------------------------------


def test_cartan_curvature_flat():
    out = cartan_curvature(FLAT_SO3, (0.4, -0.9))
    assert np.array_equal(out, np.zeros((2, 2, 3)))


def test_cartan_curvature_abelian_example():
    out = cartan_curvature(ABELIAN_POTENTIAL, (1.7, 0.3))
    assert out[0, 1, 0] == 1.0
    assert out[1, 0, 0] == -1.0


def test_cartan_curvature_constant_so3_example():
    # A_1 = E1, A_2 = E2 constant: F_12 = [E1, E2] = E3.
    p = GaugePotential(SO3, 2, parse_grid([["1", "0", "0"], ["0", "1", "0"]], (2, 1)))
    out = cartan_curvature(p, (0.0, 0.0))
    assert np.allclose(out[0, 1], (0.0, 0.0, 1.0), atol=1e-12)


def test_cartan_curvature_antisymmetric_by_construction():
    out = cartan_curvature(SO3_POTENTIAL, (0.6, 0.2))
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out, -out.transpose(1, 0, 2))


def test_cartan_curvature_of_a_non_finite_potential_keeps_its_nans():
    # x1*1e300*1e300 is inf, and inf * 0 in the bracket is NaN on both sides
    # of the diagonal, where the pair loop writes the entry and its negation
    potential = GaugePotential(
        SO3, 2, parse_grid([["x1*1e300*1e300", "0", "0"], ["0", "0", "0"]], (2, 1))
    )
    with np.errstate(all="ignore"):
        out = cartan_curvature(potential, (0.3, 0.6))
    assert np.isnan(out).any()
    assert np.array_equal(out, -out.transpose(1, 0, 2), equal_nan=True)


# --- exponential charts -----------------------------------------------------


@pytest.mark.parametrize("angle", [0.5, 5.0, 20.0, 30.0, 100.0])
def test_left_log_matrix_matches_the_so3_closed_form(angle):
    # on so3, ad_C has eigenvalues 0 and +-i angle, so phi(ad_C) =
    # I - (1 - cos t)/t^2 ad_C + (t - sin t)/t^3 ad_C^2 with t = |C|; a
    # truncated power series of phi is off by 1.6e-6 at 20 and 5.2e4 at 30
    coords = angle * np.array([0.6, -0.48, 0.64])
    ad = sum(c * mat for c, mat in zip(coords, principal._ad_generator_matrices(SO3)))
    t = float(np.linalg.norm(coords))
    closed = np.eye(3) - (1.0 - math.cos(t)) / t**2 * ad + (t - math.sin(t)) / t**3 * (ad @ ad)
    assert np.abs(principal._left_log_matrix(SO3, coords) - closed).max() <= 2e-15


@pytest.mark.parametrize("name", ["so3", "sl2"])
@pytest.mark.parametrize("count", [0, 1, 9])
def test_left_log_matrix_of_a_stack_is_each_rows_own(name, count):
    # one Van Loan block per row, |C| from 0 to about 20, each scaled and
    # squared by expm on its own
    alg = builtin_algebra(name)
    rng = SplitMix64(count)
    coords = np.array(
        [[scale * rng.symmetric(1.0) for _ in range(alg.k)] for scale in np.linspace(0, 20, count)]
    ).reshape(count, alg.k)
    stacked = principal._left_log_matrix(alg, coords)
    assert stacked.shape == (count, alg.k, alg.k)
    for row, factor in zip(coords, stacked):
        assert (factor == principal._left_log_matrix(alg, row)).all()


def test_chart_series_matches_generating_function():
    for z in (-0.5, -0.3, -0.1, 0.1, 0.3, 0.5):
        series = sum(c * z**j for j, c in enumerate(_CHART_SERIES))
        exact = z / (math.exp(z) - 1.0)
        assert abs(series - exact) <= 1e-9


def test_chart_connection_at_center_matches_conjugated_potential():
    rng = SplitMix64(79)
    x = (0.7, -0.4)
    for _ in range(3):
        center = exp(SO3, sample_algebra_element(rng, SO3))
        field = exponential_chart_connection(SO3_POTENTIAL, center)
        origin = EvalPoint(x, (0.0, 0.0, 0.0))
        for mu in (1, 2):
            expected = conjugate(SO3, np.linalg.inv(center), potential_value(SO3_POTENTIAL, mu, x))
            got = [evaluate(field.gamma[a][mu - 1], origin) for a in range(3)]
            assert np.max(np.abs(np.array(got) - expected)) <= 1e-12


@pytest.mark.parametrize("name", ["so3", "sl2"])
@pytest.mark.parametrize("order", [0, 1, 6])
def test_chart_connection_off_center_matches_truncated_series(name, order):
    # oracle: sum_j K_j (ad_C)^j Ad_{center^-1} A_mu(x), with ad_C taken
    # as matrix commutators rather than from the structure constants
    alg = builtin_algebra(name)
    potential = GaugePotential(alg, 2, parse_grid(POLYNOMIAL_ROWS, (2, 1)))
    rng = SplitMix64(113)
    centers = [np.eye(alg.d)] + [
        exp(alg, sample_algebra_element(rng, alg)) for _ in range(2)
    ]
    for center in centers:
        field = exponential_chart_connection(potential, center, order)
        for _ in range(4):
            x = tuple(rng.symmetric(1.0) for _ in range(2))
            c = [rng.symmetric(0.5) for _ in range(alg.k)]
            point = EvalPoint(x, tuple(c))
            for mu in (1, 2):
                term = conjugate(alg, np.linalg.inv(center), potential_value(potential, mu, x))
                expected = _CHART_SERIES[0] * term
                for j in range(1, order + 1):
                    term = bracket(alg, c, term)
                    expected = expected + _CHART_SERIES[j] * term
                got = [evaluate(field.gamma[a][mu - 1], point) for a in range(alg.k)]
                assert np.max(np.abs(np.array(got) - expected)) <= 1e-12


def test_chart_connection_shares_its_series_terms():
    # each term (ad_C)^j w is built once and shared by the terms after it;
    # the bound is half of the 886 nodes of K(ad_C) expanded into monomials
    field = exponential_chart_connection(SO3_POTENTIAL, I3, 6)
    seen = set()
    stack = [e for row in field.gamma for e in row]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(
                getattr(node, slot)
                for slot in ("operand", "left", "right", "base")
                if hasattr(node, slot)
            )
    assert len(seen) <= 440


# --- the three-route curvature cross-check ----------------------------------


def _cross_check(p: GaugePotential, x, rng: SplitMix64, centers: int = 2):
    """The cross-check at ``x`` with ``centers`` chart centers and two
    sections drawn from ``rng``."""
    return curvature_cross_check(
        p, [(x, *sample_cross_check(rng, p.algebra, p.base_dim, centers, 2))]
    )[0]


def test_cross_check_zero_potential():
    report = _cross_check(FLAT_SO3, (0.2, 0.8), SplitMix64(0))
    assert report.max_deviation <= 1e-10


def test_cross_check_abelian():
    report = _cross_check(ABELIAN_POTENTIAL, (0.5, -0.25), SplitMix64(0))
    assert report.max_deviation <= 1e-8


def test_cross_check_so3():
    report = _cross_check(SO3_POTENTIAL, (0.3, 0.6), SplitMix64(0))
    assert report.max_deviation <= 1e-6
    assert set(report.pairwise) == {
        "structure-vs-chart",
        "structure-vs-commutator",
        "chart-vs-commutator",
    }


def test_cross_check_builds_the_identity_chart_once_per_call(monkeypatch):
    built = []
    original = principal.exponential_chart_connection

    def counting(p, center, order=6):
        built.append((np.array_equal(center, np.eye(p.algebra.d)), order))
        return original(p, center, order)

    monkeypatch.setattr(principal, "exponential_chart_connection", counting)
    potential = GaugePotential(SO3, 2, parse_grid([["x1", "0", "0"], ["0", "x2", "0"]], (2, 1)))
    rng = SplitMix64(5)
    first = _cross_check(potential, (0.3, 0.6), rng, centers=1)
    second = _cross_check(potential, (-0.1, 0.2), rng, centers=1)
    assert first.max_deviation <= 1e-6 and second.max_deviation <= 1e-6
    # route two: an order-1 chart at the identity and at the one random
    # center; route three: the order-6 identity chart; all in every call
    per_call = [(True, 1), (False, 1)]
    assert built == per_call + [(True, 6)] + per_call + [(True, 6)]


class _RouteThreeChart(Exception):
    pass


def test_each_cross_check_route_builds_its_own_charts(monkeypatch):
    built = []
    original = principal.exponential_chart_connection

    def counting(p, center, order=6):
        built.append((np.array_equal(center, np.eye(p.algebra.d)), order))
        return original(p, center, order)

    monkeypatch.setattr(principal, "exponential_chart_connection", counting)
    potential = GaugePotential(SO3, 2, parse_grid(POLYNOMIAL_ROWS, (2, 1)))
    rng = SplitMix64(13)
    samples = [
        (tuple(rng.symmetric(1.0) for _ in range(2)), *sample_cross_check(rng, SO3, 2, 2, 2))
        for _ in range(3)
    ]
    curvature_cross_check(potential, samples)
    # route two: one order-1 chart at the identity per call and one at each
    # center of each sample; route three: the order-6 identity chart
    assert built == [(True, 1)] + [(False, 1)] * 6 + [(True, 6)]

    def refused(p, center, order=6):
        if np.array_equal(center, np.eye(p.algebra.d)) and order == 6:
            raise _RouteThreeChart
        return original(p, center, order)

    # routes one and two never read route three's identity chart
    monkeypatch.setattr(principal, "exponential_chart_connection", refused)
    assert len(principal._structure_route(potential, samples)) == 3
    assert len(principal._chart_route(potential, samples)) == 3
    with pytest.raises(_RouteThreeChart):
        principal._commutator_route(potential, samples)


def test_cross_check_on_a_one_dimensional_base():
    # no pair mu < nu: every route's curvature is the empty antisymmetric array
    potential = GaugePotential(SO3, 1, parse_grid([["x1", "x1*x1", "0.5"]], (1, 1)))
    report = _cross_check(potential, (0.3,), SplitMix64(3))
    assert report.max_deviation == 0.0


@pytest.mark.parametrize("name", ["so3", "sl2"])
@pytest.mark.parametrize("rows", [POLYNOMIAL_ROWS, NONPOLYNOMIAL_ROWS], ids=["poly", "exp-sin-div"])
def test_chart_coefficients_at_the_center_do_not_depend_on_the_order(name, rows):
    # at c = 0 every series term (ad_C)^j w with j >= 2 has value and first
    # partials zero, so the first partials read there are those of order 1
    alg = builtin_algebra(name)
    potential = GaugePotential(alg, 2, parse_grid(rows, (2, 1)))
    rng = SplitMix64(29)
    centers = [np.eye(alg.d)] + [exp(alg, sample_algebra_element(rng, alg)) for _ in range(2)]
    for center in centers:
        low = exponential_chart_connection(potential, center, 1)
        high = exponential_chart_connection(potential, center, 6)
        for _ in range(3):
            origin = EvalPoint(tuple(rng.symmetric(1.0) for _ in range(2)), (0.0,) * alg.k)
            assert np.array_equal(
                curvature_coefficients(low, origin), curvature_coefficients(high, origin)
            )


def _order_six_cross_check(p: GaugePotential, x, centers, sections):
    """:func:`curvature_cross_check` as it was formulated with order-6
    charts at every center and one conjugation per pair ``mu < nu``."""
    alg = p.algebra
    m = p.base_dim
    base = tuple(float(c) for c in x)
    reference = cartan_curvature(p, base)
    identity_field = exponential_chart_connection(p, np.eye(alg.d))

    def conjugated(g, value):
        restored = np.zeros((m, m, alg.k))
        for mu in range(m):
            for nu in range(mu + 1, m):
                restored[mu, nu] = conjugate(alg, g, value(mu, nu))
                restored[nu, mu] = -restored[mu, nu]
        return restored

    chart_values = []
    for center in (np.eye(alg.d), *centers):
        field = exponential_chart_connection(p, center)
        coeffs = curvature_coefficients(field, EvalPoint(base, (0.0,) * alg.k))
        chart_values.append(conjugated(center, lambda mu, nu: coeffs[:, mu, nu]))
    commutator_values = []
    gaps = []
    for comps in sections:
        section = Section(identity_field.patch, comps)
        s_at = np.array([evaluate(c, EvalPoint(base)) for c in comps])
        log_factor = principal._left_log_matrix(alg, s_at)
        R, gap = commutator_tensor(identity_field, [(section, base)])
        vertical = R[..., 0].copy()  # laid out as one sample's tensor
        gaps.append(gap[0])
        commutator_values.append(
            conjugated(
                exp(alg, s_at), lambda mu, nu: log_factor @ vertical[:, mu, nu]
            )
        )

    def worst_against(values, target):
        return float(np.max([np.abs(v - target).max() for v in values], initial=0.0))

    pairwise = {
        "structure-vs-chart": worst_against(chart_values, reference),
        "structure-vs-commutator": worst_against(commutator_values, reference),
        "chart-vs-commutator": worst_against(commutator_values, chart_values[0]),
    }
    prolonged = float(np.max(gaps, initial=0.0))
    return pairwise, prolonged, float(np.max([*pairwise.values(), prolonged]))


@pytest.mark.parametrize("name", ["so3", "sl2"])
@pytest.mark.parametrize("rows", [POLYNOMIAL_ROWS, NONPOLYNOMIAL_ROWS], ids=["poly", "exp-sin-div"])
def test_cross_check_equals_the_order_six_pairwise_formulation(name, rows):
    alg = builtin_algebra(name)
    potential = GaugePotential(alg, 2, parse_grid(rows, (2, 1)))
    for seed in range(4):
        rng = SplitMix64(seed)
        x = tuple(rng.symmetric(1.0) for _ in range(2))
        drawn = sample_cross_check(rng, alg, 2, 2, 2)
        [report] = curvature_cross_check(potential, [(x, *drawn)])
        expected = _order_six_cross_check(potential, x, *drawn)
        assert (report.pairwise, report.prolonged_deviation, report.max_deviation) == expected


@pytest.mark.parametrize("name", ["so3", "sl2"])
@pytest.mark.parametrize("rows", [POLYNOMIAL_ROWS, NONPOLYNOMIAL_ROWS], ids=["poly", "exp-sin-div"])
def test_cross_checks_of_many_samples_are_each_samples_own(name, rows):
    # route three of all samples' sections is one stack, split back at each
    # sample's section count, equal or not, none included
    alg = builtin_algebra(name)
    potential = GaugePotential(alg, 2, parse_grid(rows, (2, 1)))
    rng = SplitMix64(len(name))
    for counts in [(2, 2, 2, 2), (1, 3, 1, 3), (3, 0, 1, 2)]:
        samples = [
            (tuple(rng.symmetric(1.0) for _ in range(2)), *sample_cross_check(rng, alg, 2, 2, n))
            for n in counts
        ]
        for report, drawn in zip(curvature_cross_check(potential, samples), samples):
            expected = _order_six_cross_check(potential, *drawn)
            assert (report.pairwise, report.prolonged_deviation, report.max_deviation) == expected


def test_the_batched_routes_take_an_empty_sample_list():
    identity_field = exponential_chart_connection(SO3_POTENTIAL, I3)
    R, gaps = commutator_tensor(identity_field, [])
    assert (R.shape, gaps.shape) == ((3, 2, 2, 0), (0,))
    assert curvature_cross_check(SO3_POTENTIAL, []) == []
    assert theta_bch_verify(SO3, []) == []
    assert check_axiom(SO3_POTENTIAL, []) == ()


def test_cross_check_deterministic_given_seed():
    a = _cross_check(SO3_POTENTIAL, (0.3, 0.6), SplitMix64(5))
    b = _cross_check(SO3_POTENTIAL, (0.3, 0.6), SplitMix64(5))
    assert a.max_deviation == b.max_deviation
    assert a.pairwise == b.pairwise


# --- the bracket-twisted swap -----------------------------------------------


def test_theta_bch_equal_slots_fix_the_correction():
    x = np.array((0.4, 0.0, -0.2))
    z = np.array((0.0, 0.1, 0.0))
    out = theta_bch(SO3, I3, x, x, z)
    assert out[0] is I3
    assert np.array_equal(out[1], x)
    assert np.array_equal(out[2], x)
    assert np.allclose(out[3], z, atol=1e-12)


def test_theta_bch_abelian_is_plain_swap():
    g = _rotation(0.3)
    x, y, z = np.array((0.7,)), np.array((-0.4,)), np.array((0.2,))
    out = theta_bch(SO2, g, x, y, z)
    assert np.array_equal(out[1], y)
    assert np.array_equal(out[2], x)
    assert np.allclose(out[3], z, atol=1e-15)


def test_theta_bch_so3_bracket_correction():
    e1, e2, _ = np.eye(3)
    out = theta_bch(SO3, I3, e1, e2, np.zeros(SO3.k))
    assert np.array_equal(out[1], e2)
    assert np.array_equal(out[2], e1)
    assert np.allclose(out[3], (0.0, 0.0, 1.0), atol=1e-12)


def test_theta_bch_verify_abelian():
    [report] = theta_bch_verify(
        SO2, [(_rotation(0.4), np.array((0.3,)), np.array((-0.2,)), np.array((0.1,)))]
    )
    assert report.max_deviation <= 1e-6


def test_theta_bch_verify_so3_recovers_bracket():
    e1, e2, _ = np.eye(3)
    [report] = theta_bch_verify(SO3, [(I3, e1, e2, np.zeros(SO3.k))])
    assert report.max_deviation <= 1e-4


def _theta_bch_verify_alone(alg, g, x, y, z):
    """:func:`theta_bch_verify` as it was formulated for one jet at a time:
    one surface of nine matrices, its slots one matrix at a time."""
    t, eps = principal._BCH_STEP * principal._JET_STENCIL.T[:, :, None, None]
    surface = g @ expm(t * alg.matrix(x)) @ expm(eps * (alg.matrix(y) + t * alg.matrix(z)))

    def slot_deviation(extracted, expected):
        return float(np.max([np.abs(u - v).max() for u, v in zip(extracted, expected)]))

    direct = slot_deviation(principal._extract_jet(alg, surface), (g, x, y, z))
    swapped = slot_deviation(
        principal._extract_jet(alg, surface[principal._JET_SWAP]), theta_bch(alg, g, x, y, z)
    )
    return direct, swapped, float(np.max([direct, swapped]))


@pytest.mark.parametrize("name", ["so2", "so3", "sl2"])
def test_theta_bch_checks_of_many_jets_are_each_jets_own(name):
    alg = builtin_algebra(name)
    rng = SplitMix64(len(name) + 40)
    jets = [
        (exp(alg, sample_algebra_element(rng, alg, 0.5)),
         *(sample_algebra_element(rng, alg, 0.5 / alg.k) for _ in range(3)))
        for _ in range(9)
    ]
    reports = theta_bch_verify(alg, jets)
    assert len(reports) == len(jets)
    for report, jet in zip(reports, jets):
        expected = _theta_bch_verify_alone(alg, *jet)
        assert (report.direct_deviation, report.swapped_deviation, report.max_deviation) == expected
        assert [report] == theta_bch_verify(alg, [jet])


def test_theta_bch_verify_zero_slots_exact():
    zero = np.zeros(SO3.k)
    [report] = theta_bch_verify(SO3, [(I3, zero, zero, zero)])
    assert report.max_deviation == 0.0
