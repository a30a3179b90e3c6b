"""Tests for linear connections: the fiber-linear expansion, the classical
curvature formula, the reduced covariant derivative, linearity detection,
and the consistency of the two curvature routes."""

import math

import numpy as np
import pytest

from curvcheck import linear
from curvcheck.bundle import (
    BundlePatch,
    ChristoffelField,
    FiberBundleMorphism,
    Section,
    covariant_derivative,
    curvature_coefficients,
    is_parallel_morphism,
)
from curvcheck.errors import DomainError
from curvcheck.linear import (
    LinearChristoffel,
    classical_curvature,
    expand_linear,
    linear_curvature_consistency,
    linearity_detect,
)
from curvcheck.numcore import EvalPoint, evaluate, gradient
from curvcheck.rng import SplitMix64
from curvcheck.sampling import sample_point

P11 = BundlePatch(1, 1)
P21 = BundlePatch(2, 1)
P22 = BundlePatch(2, 2)

FLAT22 = LinearChristoffel.from_strings(
    P22, [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
)
# m=2, n=1, Gamma^1_{11} = x2: constant-coefficient test case with
# curvature R^1_{12;1} = -1 by hand differentiation.
XCOEFF = LinearChristoffel.from_strings(P21, [[["x2"], ["0"]]])


def _random_linear(rng: SplitMix64, patch: BundlePatch) -> LinearChristoffel:
    templates = ("x1", "x2", "sin(x1)", "x1*x2", "cos(x2)", "x1^2", "2", "0")
    m, n = patch.dims
    rows = [
        [[templates[rng.int_below(len(templates))] for _ in range(n)] for _ in range(m)]
        for _ in range(n)
    ]
    return LinearChristoffel.from_strings(patch, rows)


def test_symbols_reject_fiber_variables_and_shape_mismatch():
    with pytest.raises(ValueError):
        LinearChristoffel.from_strings(P21, [[["f1"], ["0"]]])
    with pytest.raises(ValueError):
        LinearChristoffel.from_strings(P21, [[["x1"]]])


# --- the fiber-linear expansion ---------------------------------------------


def test_expand_zero_symbols_is_flat():
    field = expand_linear(FLAT22)
    for alpha in range(2):
        for mu in range(2):
            assert evaluate(field.gamma[alpha][mu], EvalPoint((0.3, -1.2), (4.0, 5.0))) == 0.0


def test_expand_unit_symbol_gives_fiber_coordinate():
    lin = LinearChristoffel.from_strings(P11, [[["1"]]])
    field = expand_linear(lin)
    for v in (-2.0, 0.0, 3.5):
        assert evaluate(field.gamma[0][0], EvalPoint((0.7,), (v,))) == v


def test_expand_cross_symbol():
    lin = LinearChristoffel.from_strings(
        P22, [[["0", "x1"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    )
    field = expand_linear(lin)
    pt = EvalPoint((1.5, -0.4), (10.0, 3.0))
    assert evaluate(field.gamma[0][0], pt) == 1.5 * 3.0
    assert evaluate(field.gamma[0][1], pt) == 0.0
    assert evaluate(field.gamma[1][0], pt) == 0.0


# --- classical curvature ----------------------------------------------------


def test_classical_curvature_flat():
    out = classical_curvature(FLAT22, (0.9, -0.1))
    assert out.shape == (2, 2, 2, 2)
    assert np.array_equal(out, np.zeros_like(out))


def test_classical_curvature_hand_example():
    out = classical_curvature(XCOEFF, (0.3, 1.7))
    assert out[0, 0, 1, 0] == -1.0
    assert out[0, 1, 0, 0] == 1.0


def test_classical_curvature_vanishes_on_diagonal():
    rng = SplitMix64(11)
    lin = _random_linear(rng, P22)
    out = classical_curvature(lin, (0.4, -0.6))
    for mu in range(2):
        assert np.array_equal(out[:, mu, mu, :], np.zeros((2, 2)))


def test_classical_curvature_antisymmetric():
    rng = SplitMix64(13)
    for _ in range(5):
        lin = _random_linear(rng, P22)
        x = (rng.symmetric(1.0), rng.symmetric(1.0))
        out = classical_curvature(lin, x)
        assert np.max(np.abs(out + out.transpose(0, 2, 1, 3))) <= 1e-12


def _classical_curvature_by_entries(lin: LinearChristoffel, x) -> np.ndarray:
    """The classical formula one entry at a time, each upper-triangle entry
    summed over ``beta`` in order and negated into the lower triangle: the
    reference for the array arithmetic of :func:`classical_curvature`."""
    m, n = lin.patch.dims
    pt = EvalPoint.of(x)
    values = np.zeros((n, m, n))
    grads = np.zeros((n, m, n, m))
    for alpha in range(n):
        for mu in range(m):
            for omega in range(n):
                value, grad = gradient(lin.gamma3[alpha][mu][omega], pt)
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


@pytest.mark.parametrize("patch", [P21, P22, BundlePatch(3, 2), BundlePatch(2, 3)])
def test_classical_curvature_equals_the_formula_entry_by_entry(patch):
    # IEEE negation and rounding are symmetric, so the computed lower
    # triangle equals the negated upper one; only the sign of a zero may
    # differ, which == does not see
    rng = SplitMix64(17 + patch.base_dim * 10 + patch.fiber_dim)
    for _ in range(25):
        lin = _random_linear(rng, patch)
        x = tuple(rng.symmetric(1.0) for _ in range(patch.base_dim))
        out = classical_curvature(lin, x)
        assert out.shape == (patch.fiber_dim,) + (patch.base_dim,) * 2 + (patch.fiber_dim,)
        assert np.array_equal(out, _classical_curvature_by_entries(lin, x))


# --- the reduced covariant derivative ---------------------------------------
# The covariant derivative of a section under a linear connection is the
# general one under its fiber-linear expansion.


def test_reduced_covariant_flat_is_plain_derivative():
    lin = LinearChristoffel.from_strings(P11, [[["0"]]])
    s = Section.from_strings(P11, ["x1^2"])
    assert covariant_derivative(expand_linear(lin), s, 1, (1.5,)).w == (3.0,)


def test_reduced_covariant_exponential_cancellation():
    lin = LinearChristoffel.from_strings(P11, [[["1"]]])
    s = Section.from_strings(P11, ["exp(-x1)"])
    out = covariant_derivative(expand_linear(lin), s, 1, (0.0,)).w
    oracle = -math.exp(-0.0) + 1.0 * math.exp(-0.0)
    assert abs(out[0] - oracle) <= 1e-15
    assert abs(out[0]) <= 1e-15


def test_reduced_covariant_additive():
    rng = SplitMix64(17)
    field = expand_linear(LinearChristoffel.from_strings(P11, [[["sin(x1)"]]]))
    s = Section.from_strings(P11, ["x1^2"])
    t = Section.from_strings(P11, ["cos(x1)"])
    both = Section.from_strings(P11, ["x1^2 + cos(x1)"])
    for _ in range(10):
        x = (rng.symmetric(2.0),)
        lhs = covariant_derivative(field, both, 1, x).w
        rhs = covariant_derivative(field, s, 1, x).w[0] + covariant_derivative(field, t, 1, x).w[0]
        assert abs(lhs[0] - rhs) <= 1e-12


def test_reduced_covariant_scales_with_section():
    rng = SplitMix64(19)
    field = expand_linear(LinearChristoffel.from_strings(P11, [[["x1"]]]))
    s = Section.from_strings(P11, ["sin(x1) + x1^2"])
    scaled = Section.from_strings(P11, ["2*(sin(x1) + x1^2)"])
    for _ in range(10):
        x = (rng.symmetric(2.0),)
        lhs = covariant_derivative(field, scaled, 1, x).w[0]
        rhs = 2.0 * covariant_derivative(field, s, 1, x).w[0]
        assert abs(lhs - rhs) <= 1e-12


def test_reduced_covariant_direction_validation():
    field = expand_linear(LinearChristoffel.from_strings(P11, [[["0"]]]))
    s = Section.from_strings(P11, ["x1"])
    with pytest.raises(ValueError):
        covariant_derivative(field, s, 2, (0.0,))
    with pytest.raises(ValueError):
        covariant_derivative(field, s, 0, (0.0,))


# --- linearity detection ----------------------------------------------------


def _sample_points(seed: int, m: int, n: int, count: int):
    rng = SplitMix64(seed)
    return [sample_point(rng, m, n) for _ in range(count)]


def test_detect_round_trips_linear_fields():
    rng = SplitMix64(23)
    for _ in range(3):
        lin = _random_linear(rng, P22)
        report = linearity_detect(expand_linear(lin), _sample_points(0, 2, 2, 32), 1e-9)
        assert report.field is not None
        assert report.violation is None
        recovered = expand_linear(report.field)
        original = expand_linear(lin)
        check = SplitMix64(29)
        for _ in range(20):
            pt = sample_point(check, 2, 2)
            for alpha in range(2):
                for mu in range(2):
                    a = evaluate(original.gamma[alpha][mu], pt)
                    b = evaluate(recovered.gamma[alpha][mu], pt)
                    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_detect_flags_quadratic_fiber_dependence():
    field = ChristoffelField.from_strings(P11, [["f1^2"]])
    report = linearity_detect(field, _sample_points(0, 1, 1, 64), 1e-9)
    assert report.field is None
    assert report.violation.stage == "homogeneity"
    # lambda = 0 passes for a quadratic (0 == 0), so the first genuine
    # scaling probe is the one that trips.
    assert report.violation.lam == -2.0


def test_detect_flags_affine_offset_at_lambda_zero():
    field = ChristoffelField.from_strings(P11, [["x1"]])
    report = linearity_detect(field, _sample_points(0, 1, 1, 64), 1e-9)
    assert report.field is None
    assert report.violation.stage == "homogeneity"
    assert report.violation.lam == 0.0
    assert report.violation.expected == 0.0


def test_detect_expansion_stage_catches_what_homogeneity_misses():
    # With the scaling probes restricted to lambda = 1 the affine field
    # sails through stage one; the rebuilt-from-extraction comparison
    # still rejects it.
    field = ChristoffelField.from_strings(P11, [["x1"]])
    report = linearity_detect(field, _sample_points(0, 1, 1, 64), 1e-9, lambdas=(1.0,))
    assert report.field is None
    assert report.violation.stage == "expansion"
    assert report.violation.lam is None


def test_detect_probes_no_sample_after_the_first_violation():
    # f1^2*log(x1) is not linear at sample 0, and log(x1) leaves its domain
    # at sample 1: the violation ends the probe before sample 1 is
    # evaluated, and under a tolerance that forgives it the domain error
    # names sample 1
    field = ChristoffelField.from_strings(P11, [["f1^2*log(x1)"]])
    points = [EvalPoint((0.5,), (0.7,)), EvalPoint((-0.5,), (0.7,))]
    report = linearity_detect(field, points, 1e-9)
    assert report.violation.stage == "homogeneity"
    assert report.violation.x == (0.5,)
    with pytest.raises(DomainError, match=r"^log of non-positive value -0\.5 at sample 1$"):
        linearity_detect(field, points, 1e9)


def test_detect_deterministic_given_seed():
    field = ChristoffelField.from_strings(P22, [["x1*f2", "0"], ["sin(x1)*f1", "f2"]])
    a = linearity_detect(field, _sample_points(3, 2, 2, 64), 1e-9)
    b = linearity_detect(field, _sample_points(3, 2, 2, 64), 1e-9)
    assert a.field is not None and b.field is not None
    for alpha in range(2):
        for mu in range(2):
            assert a.field.gamma3[alpha][mu] == b.field.gamma3[alpha][mu]


def test_detect_evaluates_each_reference_value_once(monkeypatch):
    # 4 samples of 4 symbols: 16 reference values, 6 * 16 scaled ones and
    # 16 rebuilt ones.  Evaluating the reference again for every lambda and
    # in the expansion stage would make 224 calls.
    calls = []

    def counted(e, p):
        calls.append(e)
        return evaluate(e, p)

    monkeypatch.setattr(linear, "evaluate", counted)
    field = ChristoffelField.from_strings(P22, [["x1*f2", "0"], ["sin(x1)*f1", "f2"]])
    report = linearity_detect(field, _sample_points(3, 2, 2, 4), 1e-9)
    assert report.field is not None
    assert len(calls) <= 128


# --- curvature consistency --------------------------------------------------


def test_consistency_flat():
    assert linear_curvature_consistency(FLAT22, (0.1, 0.2), (3.0, -4.0)) == 0.0


def test_consistency_hand_example_both_routes_give_minus_three():
    x, v = (0.3, 1.7), (3.0,)
    assert linear_curvature_consistency(XCOEFF, x, v) <= 1e-9
    general = curvature_coefficients(expand_linear(XCOEFF), EvalPoint.of(x, v))
    contracted = np.einsum("amnw,w->amn", classical_curvature(XCOEFF, x), v)
    assert abs(general[0, 0, 1] - (-3.0)) <= 1e-12
    assert contracted[0, 0, 1] == -3.0


def test_consistency_random_fields():
    rng = SplitMix64(31)
    for _ in range(5):
        lin = _random_linear(rng, P22)
        x = (rng.symmetric(1.0), rng.symmetric(1.0))
        v = (rng.symmetric(2.0), rng.symmetric(2.0))
        deviation = linear_curvature_consistency(lin, x, v)
        assert deviation <= 1e-9, deviation


def test_consistency_rejects_wrong_fiber_length():
    with pytest.raises(ValueError):
        linear_curvature_consistency(FLAT22, (0.0, 0.0), (1.0,))


# --- scalar multiplication as a parallel morphism ---------------------------


def test_scaling_is_parallel_for_linear_connections():
    rng = SplitMix64(37)
    pts = _sample_points(41, 2, 2, 8)
    for _ in range(3):
        lin = _random_linear(rng, P22)
        field = expand_linear(lin)
        for lam in (-1.0, 0.5, 2.0):
            phi = FiberBundleMorphism.from_strings(P22, P22, [f"{lam!r}*f{a}" for a in (1, 2)])
            assert max(is_parallel_morphism(phi, field, field, pts)) <= 1e-9


def test_scaling_not_parallel_for_quadratic_field():
    field = ChristoffelField.from_strings(P11, [["f1^2"]])
    phi = FiberBundleMorphism.from_strings(P11, P11, ["2.0*f1"])
    residuals = is_parallel_morphism(phi, field, field, _sample_points(43, 1, 1, 8))
    assert max(residuals) > 1e-9


def test_scaling_morphism_components():
    phi = FiberBundleMorphism.from_strings(P22, P22, ["-3.0*f1", "-3.0*f2"])
    pt = EvalPoint((0.0, 0.0), (2.0, -1.0))
    assert evaluate(phi.comps[0], pt) == -6.0
    assert evaluate(phi.comps[1], pt) == 3.0
