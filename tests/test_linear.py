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
    Section,
    curvature_coefficients,
    is_parallel_morphism,
)
from curvcheck.linear import (
    LinearChristoffel,
    classical_curvature,
    expand_linear,
    linear_curvature_consistency,
    linearity_detect,
    reduced_covariant,
    scaling_morphism,
)
from curvcheck.numcore import EvalPoint, evaluate
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


# --- the reduced covariant derivative ---------------------------------------


def test_reduced_covariant_flat_is_plain_derivative():
    lin = LinearChristoffel.from_strings(P11, [[["0"]]])
    s = Section.from_strings(P11, ["x1^2"])
    assert reduced_covariant(lin, s, 1, (1.5,)) == (3.0,)


def test_reduced_covariant_exponential_cancellation():
    lin = LinearChristoffel.from_strings(P11, [[["1"]]])
    s = Section.from_strings(P11, ["exp(-x1)"])
    out = reduced_covariant(lin, s, 1, (0.0,))
    oracle = -math.exp(-0.0) + 1.0 * math.exp(-0.0)
    assert abs(out[0] - oracle) <= 1e-15
    assert abs(out[0]) <= 1e-15


def test_reduced_covariant_additive():
    rng = SplitMix64(17)
    lin = LinearChristoffel.from_strings(P11, [[["sin(x1)"]]])
    s = Section.from_strings(P11, ["x1^2"])
    t = Section.from_strings(P11, ["cos(x1)"])
    both = Section.from_strings(P11, ["x1^2 + cos(x1)"])
    for _ in range(10):
        x = (rng.symmetric(2.0),)
        lhs = reduced_covariant(lin, both, 1, x)
        rhs = reduced_covariant(lin, s, 1, x)[0] + reduced_covariant(lin, t, 1, x)[0]
        assert abs(lhs[0] - rhs) <= 1e-12


def test_reduced_covariant_scales_with_section():
    rng = SplitMix64(19)
    lin = LinearChristoffel.from_strings(P11, [[["x1"]]])
    s = Section.from_strings(P11, ["sin(x1) + x1^2"])
    scaled = Section.from_strings(P11, ["2*(sin(x1) + x1^2)"])
    for _ in range(10):
        x = (rng.symmetric(2.0),)
        lhs = reduced_covariant(lin, scaled, 1, x)[0]
        rhs = 2.0 * reduced_covariant(lin, s, 1, x)[0]
        assert abs(lhs - rhs) <= 1e-12


def test_reduced_covariant_direction_validation():
    lin = LinearChristoffel.from_strings(P11, [[["0"]]])
    s = Section.from_strings(P11, ["x1"])
    with pytest.raises(ValueError):
        reduced_covariant(lin, s, 2, (0.0,))
    with pytest.raises(ValueError):
        reduced_covariant(lin, s, 0, (0.0,))


# --- linearity detection ----------------------------------------------------


def _sample_points(seed: int, m: int, n: int, count: int):
    rng = SplitMix64(seed)
    return [sample_point(rng, m, n) for _ in range(count)]


def test_detect_round_trips_linear_fields():
    rng = SplitMix64(23)
    for _ in range(3):
        lin = _random_linear(rng, P22)
        report = linearity_detect(expand_linear(lin), _sample_points(0, 2, 2, 32), 1e-9)
        assert report.linear
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
    assert not report.linear
    assert report.field is None
    assert report.violation.stage == "homogeneity"
    # lambda = 0 passes for a quadratic (0 == 0), so the first genuine
    # scaling probe is the one that trips.
    assert report.violation.lam == -2.0


def test_detect_flags_affine_offset_at_lambda_zero():
    field = ChristoffelField.from_strings(P11, [["x1"]])
    report = linearity_detect(field, _sample_points(0, 1, 1, 64), 1e-9)
    assert not report.linear
    assert report.violation.stage == "homogeneity"
    assert report.violation.lam == 0.0
    assert report.violation.expected == 0.0


def test_detect_expansion_stage_catches_what_homogeneity_misses():
    # With the scaling probes restricted to lambda = 1 the affine field
    # sails through stage one; the rebuilt-from-extraction comparison
    # still rejects it.
    field = ChristoffelField.from_strings(P11, [["x1"]])
    report = linearity_detect(field, _sample_points(0, 1, 1, 64), 1e-9, lambdas=(1.0,))
    assert not report.linear
    assert report.violation.stage == "expansion"
    assert report.violation.lam is None


def test_detect_deterministic_given_seed():
    field = ChristoffelField.from_strings(P22, [["x1*f2", "0"], ["sin(x1)*f1", "f2"]])
    a = linearity_detect(field, _sample_points(3, 2, 2, 64), 1e-9)
    b = linearity_detect(field, _sample_points(3, 2, 2, 64), 1e-9)
    assert a.linear and b.linear
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
    assert report.linear
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
            phi = scaling_morphism(P22, lam)
            assert max(is_parallel_morphism(phi, field, field, pts)) <= 1e-9


def test_scaling_not_parallel_for_quadratic_field():
    field = ChristoffelField.from_strings(P11, [["f1^2"]])
    phi = scaling_morphism(P11, 2.0)
    residuals = is_parallel_morphism(phi, field, field, _sample_points(43, 1, 1, 8))
    assert max(residuals) > 1e-9


def test_scaling_morphism_components():
    phi = scaling_morphism(P22, -3.0)
    pt = EvalPoint((0.0, 0.0), (2.0, -1.0))
    assert evaluate(phi.comps[0], pt) == -6.0
    assert evaluate(phi.comps[1], pt) == 3.0
