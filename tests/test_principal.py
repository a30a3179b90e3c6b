"""Tests for principal connections on a trivialized group patch: the
connection form, the product-curve axiom, vertical trivialization, the
structure-equation curvature, the three-route cross-check, and the
bracket-twisted parameter swap."""

import math

import numpy as np
import pytest

from curvcheck import principal
from curvcheck.errors import IndexOutOfRange, NotVertical
from curvcheck.lie import (
    AlgebraElement,
    GroupElement,
    adjoint,
    bracket,
    builtin_algebra,
    exp,
)
from curvcheck.numcore import EvalPoint, evaluate
from curvcheck.principal import (
    _CHART_SERIES,
    GaugePotential,
    PrincipalTangent,
    cartan_curvature,
    check_axiom,
    curvature_cross_check,
    exponential_chart_connection,
    omega_eval,
    theta_bch,
    theta_bch_verify,
    vtriv_principal,
)
from curvcheck.rng import SplitMix64
from curvcheck.sampling import sample_algebra_element

SO2 = builtin_algebra("so2")
SO3 = builtin_algebra("so3")

# A_1 = x1*E1, A_2 = x2*E2 on a two-dimensional base.
SO3_POTENTIAL = GaugePotential.from_strings(
    SO3, [["x1", "0", "0"], ["0", "x2", "0"]], base_dim=2
)
# A_1 = 0, A_2 = x1*E: constant curvature F_12 = E.
ABELIAN_POTENTIAL = GaugePotential.from_strings(SO2, [["0"], ["x1"]], base_dim=2)
FLAT_SO3 = GaugePotential.from_strings(SO3, [["0", "0", "0"], ["0", "0", "0"]], base_dim=2)


def _rotation(angle: float) -> GroupElement:
    c, s = math.cos(angle), math.sin(angle)
    return GroupElement(np.array([[c, -s], [s, c]]))


def test_potential_rejects_fiber_variables_and_bad_indices():
    with pytest.raises(ValueError):
        GaugePotential.from_strings(SO2, [["f1"], ["0"]], base_dim=2)
    with pytest.raises(IndexOutOfRange):
        GaugePotential.from_strings(SO2, [["x3"], ["0"]], base_dim=2)


def test_potential_value():
    out = SO3_POTENTIAL.value(1, (0.5, -1.0))
    assert np.allclose(out.coeffs, (0.5, 0.0, 0.0))
    out = SO3_POTENTIAL.value(2, (0.5, -1.0))
    assert np.allclose(out.coeffs, (0.0, -1.0, 0.0))


# --- the connection form ----------------------------------------------------


def test_omega_at_identity_is_potential_plus_fiber():
    x = (0.5, -1.0)
    t = PrincipalTangent(
        x, SO3.identity_group(), (2.0, 3.0), SO3.element((0.1, 0.2, 0.3))
    )
    # A_x(xi) = 2*(0.5 E1) + 3*(-1.0 E2) = (1, -3, 0).
    out = omega_eval(SO3_POTENTIAL, t)
    assert np.allclose(out.coeffs, (1.1, -2.8, 0.3), atol=1e-12)


def test_omega_on_vertical_tangents_returns_fiber_component():
    rng = SplitMix64(61)
    for _ in range(5):
        g = exp(sample_algebra_element(rng, SO3))
        v = sample_algebra_element(rng, SO3)
        t = PrincipalTangent((0.3, 0.4), g, (0.0, 0.0), v)
        out = omega_eval(SO3_POTENTIAL, t)
        assert np.array_equal(out.coeffs, v.coeffs)


def test_omega_vertical_matches_vertical_trivialization():
    rng = SplitMix64(67)
    for _ in range(5):
        g = exp(sample_algebra_element(rng, SO3))
        v = sample_algebra_element(rng, SO3)
        t = PrincipalTangent((0.1, 0.2), g, (0.0, 0.0), v)
        via_omega = omega_eval(SO3_POTENTIAL, t)
        via_vtriv = vtriv_principal(SO3, g, g.g @ v.matrix)
        assert np.max(np.abs(via_omega.coeffs - via_vtriv.coeffs)) <= 1e-10


def test_omega_ignores_adjoint_on_abelian_fibers():
    g = _rotation(1.2)
    t = PrincipalTangent((0.5, 0.0), g, (0.0, 1.0), SO2.element((0.25,)))
    # A_x(xi) = x1*E = 0.5 E, plus V = 0.25 E.
    out = omega_eval(ABELIAN_POTENTIAL, t)
    assert np.allclose(out.coeffs, (0.75,), atol=1e-12)


def test_omega_right_translation_equivariance():
    rng = SplitMix64(71)
    for _ in range(10):
        g = exp(sample_algebra_element(rng, SO3))
        gamma = exp(sample_algebra_element(rng, SO3))
        xi = (rng.symmetric(1.0), rng.symmetric(1.0))
        v = sample_algebra_element(rng, SO3)
        x = (rng.symmetric(1.0), rng.symmetric(1.0))
        base = omega_eval(SO3_POTENTIAL, PrincipalTangent(x, g, xi, v))
        translated = omega_eval(
            SO3_POTENTIAL,
            PrincipalTangent(x, g @ gamma, xi, adjoint(gamma.inverse(), v)),
        )
        expected = adjoint(gamma.inverse(), base)
        assert np.max(np.abs(translated.coeffs - expected.coeffs)) <= 1e-9


# --- the product-curve axiom ------------------------------------------------


def test_axiom_holds_for_zero_potential():
    report = check_axiom(FLAT_SO3, trials=50)
    assert report.passed
    assert report.max_residual <= 1e-8
    assert report.trials == 50


def test_axiom_holds_for_nonabelian_potential():
    report = check_axiom(SO3_POTENTIAL, trials=100)
    assert report.passed
    assert report.max_residual <= 1e-8


def test_axiom_holds_for_abelian_potential():
    report = check_axiom(ABELIAN_POTENTIAL, trials=50)
    assert report.passed


def test_axiom_detects_dropped_adjoint_factor():
    # Without the adjoint twist the form fails the axiom whenever the
    # fiber is non-abelian and the potential is nonzero.
    report = check_axiom(SO3_POTENTIAL, trials=50, drop_adjoint=True)
    assert not report.passed
    assert report.max_residual > report.tolerance


def test_axiom_drop_adjoint_harmless_on_abelian():
    report = check_axiom(ABELIAN_POTENTIAL, trials=50, drop_adjoint=True)
    assert report.passed


# --- vertical trivialization ------------------------------------------------


def test_vtriv_recovers_exponential_generator():
    rng = SplitMix64(73)
    for _ in range(5):
        g0 = exp(sample_algebra_element(rng, SO3))
        x = sample_algebra_element(rng, SO3)
        w = g0.g @ x.matrix
        out = vtriv_principal(SO3, g0, w)
        assert np.max(np.abs(out.coeffs - x.coeffs)) <= 1e-12


def test_vtriv_of_zero_velocity():
    g0 = exp(SO3.element((0.2, -0.1, 0.5)))
    out = vtriv_principal(SO3, g0, np.zeros((3, 3)))
    assert np.array_equal(out.coeffs, np.zeros(3))


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
    assert np.allclose(out.coeffs, (1.0,), atol=1e-12)


def test_vtriv_rejects_non_vertical_velocity():
    with pytest.raises(NotVertical):
        vtriv_principal(SO3, SO3.identity_group(), np.eye(3))


# --- structure-equation curvature -------------------------------------------


def test_cartan_curvature_flat():
    out = cartan_curvature(FLAT_SO3, (0.4, -0.9))
    assert np.array_equal(out.coeffs, np.zeros((2, 2, 3)))


def test_cartan_curvature_abelian_example():
    out = cartan_curvature(ABELIAN_POTENTIAL, (1.7, 0.3))
    assert out.element(1, 2).coeffs[0] == 1.0
    assert out.element(2, 1).coeffs[0] == -1.0


def test_cartan_curvature_constant_so3_example():
    # A_1 = E1, A_2 = E2 constant: F_12 = [E1, E2] = E3.
    p = GaugePotential.from_strings(
        SO3, [["1", "0", "0"], ["0", "1", "0"]], base_dim=2
    )
    out = cartan_curvature(p, (0.0, 0.0))
    assert np.allclose(out.element(1, 2).coeffs, (0.0, 0.0, 1.0), atol=1e-12)


def test_cartan_curvature_antisymmetric_by_construction():
    out = cartan_curvature(SO3_POTENTIAL, (0.6, 0.2))
    assert np.array_equal(out.coeffs, -out.coeffs.transpose(1, 0, 2))


# --- exponential charts -----------------------------------------------------


def test_chart_series_matches_generating_function():
    for z in (-0.5, -0.3, -0.1, 0.1, 0.3, 0.5):
        series = sum(c * z**j for j, c in enumerate(_CHART_SERIES))
        exact = z / (math.exp(z) - 1.0)
        assert abs(series - exact) <= 1e-9


def test_chart_connection_at_center_matches_conjugated_potential():
    rng = SplitMix64(79)
    x = (0.7, -0.4)
    for _ in range(3):
        center = exp(sample_algebra_element(rng, SO3))
        field = exponential_chart_connection(SO3_POTENTIAL, center)
        origin = EvalPoint(x, (0.0, 0.0, 0.0))
        for mu in (1, 2):
            expected = adjoint(center.inverse(), SO3_POTENTIAL.value(mu, x))
            got = [evaluate(field.gamma[a][mu - 1], origin) for a in range(3)]
            assert np.max(np.abs(np.array(got) - expected.coeffs)) <= 1e-12


@pytest.mark.parametrize("name", ["so3", "sl2"])
@pytest.mark.parametrize("order", [0, 1, 6])
def test_chart_connection_off_center_matches_truncated_series(name, order):
    # oracle: sum_j K_j (ad_C)^j Ad_{center^-1} A_mu(x), with ad_C taken
    # as matrix commutators rather than from the structure constants
    alg = builtin_algebra(name)
    potential = GaugePotential.from_strings(
        alg, [["x1", "x2*x1", "0.5"], ["x2^2", "-x1", "x1*x2 + 0.3"]], base_dim=2
    )
    rng = SplitMix64(113)
    centers = [alg.identity_group()] + [
        exp(sample_algebra_element(rng, alg)) for _ in range(2)
    ]
    for center in centers:
        field = exponential_chart_connection(potential, center, order)
        for _ in range(4):
            x = tuple(rng.symmetric(1.0) for _ in range(2))
            c = AlgebraElement(alg, [rng.symmetric(0.5) for _ in range(alg.k)])
            point = EvalPoint(x, tuple(c.coeffs))
            for mu in (1, 2):
                term = adjoint(center.inverse(), potential.value(mu, x))
                expected = _CHART_SERIES[0] * term.coeffs
                for j in range(1, order + 1):
                    term = bracket(c, term)
                    expected = expected + _CHART_SERIES[j] * term.coeffs
                got = [evaluate(field.gamma[a][mu - 1], point) for a in range(alg.k)]
                assert np.max(np.abs(np.array(got) - expected)) <= 1e-12


def test_chart_connection_shares_its_series_terms():
    # each term (ad_C)^j w is built once and shared by the terms after it;
    # the bound is half of the 886 nodes of K(ad_C) expanded into monomials
    field = exponential_chart_connection(SO3_POTENTIAL, SO3.identity_group(), 6)
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


def test_cross_check_zero_potential():
    report = curvature_cross_check(FLAT_SO3, (0.2, 0.8))
    assert report.passed
    assert report.max_deviation <= 1e-10


def test_cross_check_abelian():
    report = curvature_cross_check(ABELIAN_POTENTIAL, (0.5, -0.25))
    assert report.passed
    assert report.max_deviation <= 1e-8


def test_cross_check_so3():
    report = curvature_cross_check(SO3_POTENTIAL, (0.3, 0.6))
    assert report.passed
    assert report.max_deviation <= 1e-6
    assert set(report.pairwise) == {
        "structure-vs-chart",
        "structure-vs-commutator",
        "chart-vs-commutator",
    }


def test_cross_check_builds_the_identity_chart_once_per_potential(monkeypatch):
    centers = []
    original = principal.exponential_chart_connection

    def counting(p, center, order=6):
        centers.append(center)
        return original(p, center, order)

    monkeypatch.setattr(principal, "exponential_chart_connection", counting)
    potential = GaugePotential.from_strings(
        SO3, [["x1", "0", "0"], ["0", "x2", "0"]], base_dim=2
    )
    rng = SplitMix64(5)
    first = curvature_cross_check(potential, (0.3, 0.6), group_samples=2, rng=rng)
    second = curvature_cross_check(potential, (-0.1, 0.2), group_samples=2, rng=rng)
    assert first.passed and second.passed
    # the identity chart once, then one random center per call
    identity = SO3.identity_group().g
    assert [np.array_equal(c.g, identity) for c in centers] == [True, False, False]


def test_cross_check_deterministic_given_seed():
    a = curvature_cross_check(SO3_POTENTIAL, (0.3, 0.6), rng=SplitMix64(5))
    b = curvature_cross_check(SO3_POTENTIAL, (0.3, 0.6), rng=SplitMix64(5))
    assert a.max_deviation == b.max_deviation
    assert a.pairwise == b.pairwise


# --- the bracket-twisted swap -----------------------------------------------


def test_theta_bch_equal_slots_fix_the_correction():
    g = SO3.identity_group()
    x = SO3.element((0.4, 0.0, -0.2))
    z = SO3.element((0.0, 0.1, 0.0))
    out = theta_bch(g, x, x, z)
    assert out[0] is g
    assert np.array_equal(out[1].coeffs, x.coeffs)
    assert np.array_equal(out[2].coeffs, x.coeffs)
    assert np.allclose(out[3].coeffs, z.coeffs, atol=1e-12)


def test_theta_bch_abelian_is_plain_swap():
    g = _rotation(0.3)
    x = SO2.element((0.7,))
    y = SO2.element((-0.4,))
    z = SO2.element((0.2,))
    out = theta_bch(g, x, y, z)
    assert np.array_equal(out[1].coeffs, y.coeffs)
    assert np.array_equal(out[2].coeffs, x.coeffs)
    assert np.allclose(out[3].coeffs, z.coeffs, atol=1e-15)


def test_theta_bch_so3_bracket_correction():
    g = SO3.identity_group()
    e1 = SO3.element((1.0, 0.0, 0.0))
    e2 = SO3.element((0.0, 1.0, 0.0))
    zero = SO3.zero()
    out = theta_bch(g, e1, e2, zero)
    assert np.array_equal(out[1].coeffs, e2.coeffs)
    assert np.array_equal(out[2].coeffs, e1.coeffs)
    assert np.allclose(out[3].coeffs, (0.0, 0.0, 1.0), atol=1e-12)


def test_theta_bch_verify_abelian():
    report = theta_bch_verify(
        _rotation(0.4),
        SO2.element((0.3,)),
        SO2.element((-0.2,)),
        SO2.element((0.1,)),
        tol=1e-6,
    )
    assert report.passed
    assert report.max_deviation <= 1e-6


def test_theta_bch_verify_so3_recovers_bracket():
    report = theta_bch_verify(
        SO3.identity_group(),
        SO3.element((1.0, 0.0, 0.0)),
        SO3.element((0.0, 1.0, 0.0)),
        SO3.zero(),
    )
    assert report.passed
    assert report.max_deviation <= 1e-4


def test_theta_bch_verify_zero_slots_exact():
    report = theta_bch_verify(
        SO3.identity_group(), SO3.zero(), SO3.zero(), SO3.zero()
    )
    assert report.max_deviation == 0.0
