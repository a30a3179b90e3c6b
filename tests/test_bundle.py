"""Tests for connections on a trivialized patch: projector, lifts,
covariant derivatives, brackets, curvature, parallel morphisms."""

import math

import numpy as np
import pytest

from _reference import covariant_derivative, parse_grid
from curvcheck import bundle, numcore
from curvcheck.bundle import (
    BundlePatch,
    ChristoffelField,
    FiberBundleMorphism,
    Section,
    TotalVectorField,
    _bracket,
    _jet,
    _lifted,
    _Parts,
    _projected,
    _symbol_values,
    curvature_coefficients,
    is_parallel_morphism,
    nijenhuis_tensor,
)
from curvcheck.errors import IndexOutOfRange
from curvcheck.numcore import EvalPoint, StackedPoint, directional, evaluate, gradient
from curvcheck.rng import SplitMix64
from curvcheck.sampling import sample_christoffel, sample_point, sample_polynomial

P11 = BundlePatch(1, 1)
P21 = BundlePatch(2, 1)

FLAT11 = ChristoffelField(P11, parse_grid([["0"]], P11.dims))
FLAT21 = ChristoffelField(P21, parse_grid([["0", "0"]], P21.dims))
# Gamma^1_1 = 0, Gamma^1_2 = x1: constant curvature R^1_12 = 1.
SKEW = ChristoffelField(P21, parse_grid([["0", "x1"]], P21.dims))


def test_patch_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError):
        BundlePatch(0, 1)
    with pytest.raises(ValueError):
        BundlePatch(1, 0)


def test_christoffel_shape_and_bounds_validated():
    with pytest.raises(ValueError):
        ChristoffelField(P21, parse_grid([["0"]], P21.dims))
    with pytest.raises(IndexOutOfRange):
        ChristoffelField(P11, parse_grid([["x2"]], P11.dims))


def test_section_rejects_fiber_variables():
    with pytest.raises(ValueError):
        Section(P11, parse_grid(["f1"], P11.dims))


# --- projection -------------------------------------------------------------


def test_project_flat_kills_horizontal():
    p = EvalPoint((0.5,), (0.25,))
    assert _projected(_symbol_values(FLAT11, p), _Parts((1.0,), (0.0,))) == (0.0,)


def test_project_is_identity_on_vertical():
    field = ChristoffelField(P11, parse_grid([["sin(x1)*f1"]], P11.dims))
    p = EvalPoint((0.3,), (0.8,))
    assert _projected(_symbol_values(field, p), _Parts((0.0,), (3.0,))) == (3.0,)


def test_project_substitutes_coefficients():
    # Gamma^1_1 = f1 at (x=1, f=2) on (a=1, b=0): w = 0 + f1*1 = 2.
    field = ChristoffelField(P11, parse_grid([["f1"]], P11.dims))
    p = EvalPoint((1.0,), (2.0,))
    assert _projected(_symbol_values(field, p), _Parts((1.0,), (0.0,))) == (2.0,)


def test_project_idempotent_on_random_inputs():
    rng = SplitMix64(101)
    for _ in range(20):
        m, n = 1 + rng.int_below(3), 1 + rng.int_below(3)
        patch = BundlePatch(m, n)
        field = sample_christoffel(rng, patch)
        p = sample_point(rng, m, n)
        t = _Parts(
            tuple(rng.symmetric(1.0) for _ in range(m)),
            tuple(rng.symmetric(1.0) for _ in range(n)),
        )
        gamma = _symbol_values(field, p)
        once = _projected(gamma, t)
        twice = _projected(gamma, _Parts((0.0,) * m, once))
        assert max(abs(a - b) for a, b in zip(once, twice)) <= 1e-12


# --- horizontal lift --------------------------------------------------------


# The lift of xi has base part xi; _lifted computes its fiber part.


def test_horizontal_lift_flat():
    b = _lifted(_symbol_values(FLAT21, EvalPoint((0.0, 0.0), (0.0,))), (1.0, 0.0))
    assert b == (0.0,)


def test_horizontal_lift_substitutes_coefficients():
    # Gamma^1_2 = x1 at x = (2, 0): lift of e_2 has fiber part -x1 = -2.
    b = _lifted(_symbol_values(SKEW, EvalPoint((2.0, 0.0), (0.0,))), (0.0, 1.0))
    assert b == (-2.0,)


def test_horizontal_lift_of_zero_is_zero():
    field = ChristoffelField(P21, parse_grid([["f1^2", "x1*f1"]], P21.dims))
    b = _lifted(_symbol_values(field, EvalPoint((1.0, 2.0), (3.0,))), (0.0, 0.0))
    assert b == (0.0,)


def test_lift_then_project_vanishes():
    rng = SplitMix64(202)
    for _ in range(20):
        m, n = 1 + rng.int_below(3), 1 + rng.int_below(3)
        patch = BundlePatch(m, n)
        field = sample_christoffel(rng, patch)
        p = sample_point(rng, m, n)
        xi = tuple(rng.symmetric(1.0) for _ in range(m))
        gamma = _symbol_values(field, p)
        res = _projected(gamma, _Parts(xi, _lifted(gamma, xi)))
        assert max(abs(v) for v in res) <= 1e-12


# --- covariant derivative (the reference the prolonged routes are judged by) -


def test_covariant_derivative_flat_is_plain_derivative():
    s = Section(P11, parse_grid(["x1^2"], P11.dims))
    assert covariant_derivative(FLAT11, s, 1, (3.0,)) == (6.0,)


def test_covariant_derivative_cancellation():
    # Gamma^1_1 = f1 with s = exp(-x1): derivative -e^{-x} plus
    # Gamma(x, s(x)) = e^{-x} cancels for every x.
    field = ChristoffelField(P11, parse_grid([["f1"]], P11.dims))
    s = Section(P11, parse_grid(["exp(-x1)"], P11.dims))
    for x in (0.0, 0.7, -1.3):
        expected = -math.exp(-x) + math.exp(-x)
        out = covariant_derivative(field, s, 1, (x,))
        assert abs(out[0] - expected) <= 1e-15


def test_covariant_derivative_picks_mu_column():
    s = Section(P21, parse_grid(["0"], P21.dims))
    assert covariant_derivative(SKEW, s, 2, (1.0, 0.0)) == (1.0,)
    assert covariant_derivative(SKEW, s, 1, (1.0, 0.0)) == (0.0,)


def test_covariant_derivative_validates_mu():
    s = Section(P11, parse_grid(["x1"], P11.dims))
    with pytest.raises(ValueError):
        covariant_derivative(FLAT11, s, 2, (0.0,))


def test_covariant_derivative_rejects_a_section_of_another_patch():
    s = Section(BundlePatch(2, 2), parse_grid(["x1", "x2"], (2, 2)))
    with pytest.raises(ValueError, match="patches differ"):
        covariant_derivative(SKEW, s, 1, (0.5, 0.25))


@pytest.mark.parametrize("x", [(1.0, 0.0, 7.0), (1.0,)], ids=["extra", "missing"])
def test_covariant_derivative_rejects_a_base_point_of_another_dimension(x):
    s = Section(P21, parse_grid(["0"], P21.dims))
    expected = rf"base point has dims \({len(x)}, 0\), expected \(2, 0\)"
    with pytest.raises(ValueError, match=expected):
        covariant_derivative(SKEW, s, 2, x)


_WRONG_POINTS = [
    pytest.param(EvalPoint((1.0, 0.0, 7.0), (0.5,)), id="extra-base"),
    pytest.param(EvalPoint((1.0, 0.0), (0.5, 7.0)), id="extra-fiber"),
    pytest.param(EvalPoint((1.0,), (0.5,)), id="missing-base"),
]


@pytest.mark.parametrize("p", _WRONG_POINTS)
def test_pointwise_routes_reject_a_point_of_another_patch(p):
    expected = rf"point has dims \({len(p.x)}, {len(p.f)}\), expected \(2, 1\)"
    V = TotalVectorField.coordinate(P21, 1)
    W = TotalVectorField.coordinate(P21, 2)
    identity = FiberBundleMorphism(P21, P21, parse_grid(["f1"], P21.dims))
    routes = [
        lambda: nijenhuis_tensor(SKEW, (V, W), StackedPoint.of((p,))),
        lambda: curvature_coefficients(SKEW, p),
        lambda: is_parallel_morphism(identity, SKEW, SKEW, (p,)),
    ]
    for route in routes:
        with pytest.raises(ValueError, match=expected):
            route()


# --- Lie brackets -----------------------------------------------------------


def test_bracket_coordinate_fields():
    V = TotalVectorField(P11, parse_grid(["1"], P11.dims), parse_grid(["0"], P11.dims))
    W = TotalVectorField(P11, parse_grid(["0"], P11.dims), parse_grid(["x1"], P11.dims))
    p = EvalPoint((0.4,), (0.9,))
    out = _bracket(_jet(V, p), _jet(W, p), p)
    assert tuple(out.a) == (0.0,)
    assert tuple(out.b) == (1.0,)


def test_bracket_with_itself_vanishes():
    V = TotalVectorField(P11, parse_grid(["x1*f1"], P11.dims), parse_grid(["sin(x1)"], P11.dims))
    p = EvalPoint((0.2,), (0.6,))
    out = _bracket(_jet(V, p), _jet(V, p), p)
    assert tuple(out.a) == (0.0,)
    assert tuple(out.b) == (0.0,)


def test_bracket_euler_field():
    V = TotalVectorField(P11, parse_grid(["0"], P11.dims), parse_grid(["f1"], P11.dims))
    W = TotalVectorField(P11, parse_grid(["0"], P11.dims), parse_grid(["1"], P11.dims))
    p = EvalPoint((0.0,), (5.0,))
    out = _bracket(_jet(V, p), _jet(W, p), p)
    assert tuple(out.b) == (-1.0,)


def _random_field(rng, patch):
    m, n = patch.dims
    return TotalVectorField(
        patch,
        tuple(sample_polynomial(rng, m, n) for _ in range(m)),
        tuple(sample_polynomial(rng, m, n) for _ in range(n)),
    )


def test_bracket_antisymmetry():
    rng = SplitMix64(303)
    for _ in range(10):
        m, n = 1 + rng.int_below(2), 1 + rng.int_below(2)
        patch = BundlePatch(m, n)
        U, V = (_random_field(rng, patch) for _ in range(2))
        p = sample_point(rng, m, n)
        ab = np.concatenate(_bracket(_jet(U, p), _jet(V, p), p))
        ba = np.concatenate(_bracket(_jet(V, p), _jet(U, p), p))
        assert max(abs(x + y) for x, y in zip(ab, ba)) <= 1e-9


def test_jacobi_identity_pointwise():
    # [U,[V,W]] + [V,[W,U]] + [W,[U,V]] = 0, evaluated with symbolic
    # bracket fields so nesting stays exact.
    from curvcheck import _symbolic

    def bracket_field(V, W):
        patch = V.patch
        m, n = patch.dims
        coords = [("x", i + 1) for i in range(m)] + [("f", i + 1) for i in range(n)]
        comps_V = V.a + V.b
        comps_W = W.a + W.b
        out = []
        for i in range(m + n):
            acc = _symbolic.const(0.0)
            for j, cj in enumerate(coords):
                acc = _symbolic.add(
                    acc,
                    _symbolic.sub(
                        _symbolic.mul(comps_V[j], _symbolic.derivative(comps_W[i], *cj)),
                        _symbolic.mul(comps_W[j], _symbolic.derivative(comps_V[i], *cj)),
                    ),
                )
            out.append(acc)
        return TotalVectorField(patch, tuple(out[:m]), tuple(out[m:]))

    rng = SplitMix64(404)
    for _ in range(5):
        patch = BundlePatch(1 + rng.int_below(2), 1 + rng.int_below(2))
        m, n = patch.dims
        U, V, W = (
            _random_field(rng, patch)
            for _ in range(3)
        )
        p = sample_point(rng, m, n)
        t1 = np.concatenate(_bracket(_jet(U, p), _jet(bracket_field(V, W), p), p))
        t2 = np.concatenate(_bracket(_jet(V, p), _jet(bracket_field(W, U), p), p))
        t3 = np.concatenate(_bracket(_jet(W, p), _jet(bracket_field(U, V), p), p))
        total = [x + y + z for x, y, z in zip(t1, t2, t3)]
        assert max(abs(v) for v in total) <= 1e-9


# --- curvature --------------------------------------------------------------


def test_nijenhuis_vanishes_on_vertical_argument():
    field = ChristoffelField(P11, parse_grid([["x1*f1"]], P11.dims))
    vertical = TotalVectorField(P11, parse_grid(["0"], P11.dims), parse_grid(["f1"], P11.dims))
    other = TotalVectorField(P11, parse_grid(["x1"], P11.dims), parse_grid(["f1^2"], P11.dims))
    p = EvalPoint((0.7,), (0.4,))
    at = StackedPoint.of((p,))
    for pair in ((vertical, other), (other, vertical)):
        assert max(abs(v) for v in nijenhuis_tensor(field, pair, at)[0][:, 0, 1, 0]) <= 1e-12


def test_nijenhuis_flat_vanishes():
    rng = SplitMix64(505)
    V = _random_field(rng, P21)
    W = _random_field(rng, P21)
    p = sample_point(rng, 2, 1)
    out = nijenhuis_tensor(FLAT21, (V, W), StackedPoint.of((p,)))[0][:, 0, 1, 0]
    assert max(abs(v) for v in out) <= 1e-12


def test_nijenhuis_skew_coordinate_fields():
    V = TotalVectorField.coordinate(P21, 1)
    W = TotalVectorField.coordinate(P21, 2)
    p = EvalPoint((0.3, -0.8), (0.5,))
    out = nijenhuis_tensor(SKEW, (V, W), StackedPoint.of((p,)))[0][:, 0, 1, 0]
    assert abs(out[0] - 1.0) <= 1e-12


@pytest.mark.parametrize("mu", [0, 3, 5])
def test_coordinate_field_validates_mu(mu):
    with pytest.raises(ValueError, match=f"mu must be in 1..2, got {mu}"):
        TotalVectorField.coordinate(P21, mu)


def test_curvature_coefficients_flat():
    R = curvature_coefficients(FLAT21, EvalPoint((0.2, 0.4), (0.6,)))
    assert R.shape == (1, 2, 2)
    assert np.all(R == 0.0)


def test_curvature_coefficients_skew_constant():
    for p in (EvalPoint((0.0, 0.0), (0.0,)), EvalPoint((2.0, -1.0), (3.0,))):
        R = curvature_coefficients(SKEW, p)
        assert R[0, 0, 1] == 1.0
        assert R[0, 1, 0] == -1.0


def test_curvature_coefficients_nonlinear_example():
    # Gamma^1_1 = f1^2, Gamma^1_2 = x1*f1: R^1_12 = f + x1 f^2, which is 2
    # at x = (1, 0), f = 1.
    field = ChristoffelField(P21, parse_grid([["f1^2", "x1*f1"]], P21.dims))
    R = curvature_coefficients(field, EvalPoint((1.0, 0.0), (1.0,)))
    assert abs(R[0, 0, 1] - 2.0) <= 1e-15


def test_curvature_antisymmetry_random():
    rng = SplitMix64(606)
    for _ in range(10):
        patch = BundlePatch(1 + rng.int_below(3), 1 + rng.int_below(3))
        field = sample_christoffel(rng, patch)
        p = sample_point(rng, *patch.dims)
        R = curvature_coefficients(field, p)
        assert np.max(np.abs(R + np.transpose(R, (0, 2, 1)))) <= 1e-12


def test_curvature_zero_on_one_dimensional_base():
    field = ChristoffelField(P11, parse_grid([["x1*f1^2"]], P11.dims))
    R = curvature_coefficients(field, EvalPoint((0.9,), (1.1,)))
    assert R.shape == (1, 1, 1)
    assert np.all(R == 0.0)


def test_nijenhuis_matches_coefficients_on_random_fields():
    rng = SplitMix64(707)
    for _ in range(5):
        m, n = 1 + rng.int_below(3), 1 + rng.int_below(3)
        patch = BundlePatch(m, n)
        field = sample_christoffel(rng, patch)
        coords = [TotalVectorField.coordinate(patch, mu) for mu in range(1, m + 1)]
        for _ in range(3):
            p = sample_point(rng, m, n)
            R = curvature_coefficients(field, p)
            for mu in range(m):
                for nu in range(m):
                    pair = (coords[mu], coords[nu])
                    out = nijenhuis_tensor(field, pair, StackedPoint.of((p,)))[0][:, 0, 1, 0]
                    for a in range(n):
                        assert abs(out[a] - R[a, mu, nu]) <= 1e-9


def test_nijenhuis_tensor_slices_are_the_per_pair_values():
    rng = SplitMix64(808)
    for m, n in ((2, 2), (3, 3)):
        patch = BundlePatch(m, n)
        for _ in range(3):
            field = sample_christoffel(rng, patch)
            fields = [TotalVectorField.coordinate(patch, mu) for mu in range(1, m + 1)]
            fields.append(_random_field(rng, patch))
            p = sample_point(rng, m, n)
            at = StackedPoint.of((p,))
            R, gap = nijenhuis_tensor(field, fields, at)
            R, gap = R[..., 0], gap[0]
            assert 0.0 <= gap <= 1e-12
            assert R.shape == (n, m + 1, m + 1)
            assert np.array_equal(R, -R.transpose(0, 2, 1))
            assert np.all(np.diagonal(R, axis1=1, axis2=2) == 0.0)
            for i, V in enumerate(fields):
                for j, W in enumerate(fields):
                    pair = nijenhuis_tensor(field, (V, W), at)[0][:, 0, 1, 0]
                    assert tuple(pair) == tuple(R[:, i, j])


def test_tensors_at_a_stacked_point_are_each_points_own_bit_for_bit():
    # the trailing axis of a stacked point holds what each point gives alone;
    # below _STACK_MIN points the Nijenhuis route sweeps them on floats
    rng = SplitMix64(810)
    for size in (numcore._STACK_MIN - 1, numcore._STACK_MIN):
        for m, n in ((1, 1), (2, 2), (3, 2)):
            patch = BundlePatch(m, n)
            field = sample_christoffel(rng, patch)
            fields = [TotalVectorField.coordinate(patch, mu) for mu in range(1, m + 1)]
            fields.append(_random_field(rng, patch))
            points = [sample_point(rng, m, n) for _ in range(size)]
            stack = StackedPoint.of(points)
            R = curvature_coefficients(field, stack)
            assert R.shape == (n, m, m, size)
            T, gap = nijenhuis_tensor(field, fields, stack)
            assert (T.shape, gap.shape) == ((n, m + 1, m + 1, size), (size,))
            for sample, p in enumerate(points):
                assert R[..., sample].tobytes() == curvature_coefficients(field, p).tobytes()
                T_p, gap_p = nijenhuis_tensor(field, fields, StackedPoint.of((p,)))
                assert T[..., sample].tobytes() == T_p[..., 0].tobytes()
                assert gap[sample] == gap_p[0]


def test_nijenhuis_tensor_evaluates_each_symbol_once(monkeypatch):
    calls = []

    def counted(e, p):
        calls.append(e)
        return evaluate(e, p)

    monkeypatch.setattr(bundle, "evaluate", counted)
    rng = SplitMix64(809)
    for m, n in ((2, 2), (3, 3)):
        patch = BundlePatch(m, n)
        field = sample_christoffel(rng, patch)
        coords = [TotalVectorField.coordinate(patch, mu) for mu in range(1, m + 1)]
        points = [sample_point(rng, m, n) for _ in range(3)]
        calls.clear()
        nijenhuis_tensor(field, coords, StackedPoint.of(points))
        assert len(calls) <= len(points) * n * m


# --- parallel morphisms -----------------------------------------------------


def test_identity_morphism_is_parallel():
    field = ChristoffelField(P11, parse_grid([["x1*f1^2"]], P11.dims))
    phi = FiberBundleMorphism(P11, P11, parse_grid(["f1"], P11.dims))
    samples = [EvalPoint((0.3,), (0.7,)), EvalPoint((-1.0,), (2.0,))]
    assert is_parallel_morphism(phi, field, field, samples) == (0.0, 0.0)


def test_fiber_doubling_parallel_for_linear_connection():
    field = ChristoffelField(P11, parse_grid([["f1"]], P11.dims))
    phi = FiberBundleMorphism(P11, P11, parse_grid(["2*f1"], P11.dims))
    samples = [EvalPoint((0.5,), (1.5,)), EvalPoint((2.0,), (-0.4,))]
    assert max(is_parallel_morphism(phi, field, field, samples)) <= 1e-9


def test_fiber_doubling_not_parallel_for_quadratic_connection():
    field = ChristoffelField(P11, parse_grid([["f1^2"]], P11.dims))
    phi = FiberBundleMorphism(P11, P11, parse_grid(["2*f1"], P11.dims))
    (residual,) = is_parallel_morphism(phi, field, field, [EvalPoint((0.0,), (1.0,))])
    # Residual |2 f^2 - (2f)^2| = 2 f^2, exactly 2 at f = 1.
    assert residual == 2.0


def _sampled_morphism(rng, patch):
    m, n = patch.dims
    return FiberBundleMorphism(patch, patch, tuple(sample_polynomial(rng, m, n) for _ in range(n)))


def test_parallel_morphism_residuals_equal_the_composed_public_routes():
    # The residuals are those of lifting, pushing (one directional sweep
    # per component of phi) and projecting one coordinate direction at a
    # time, bit for bit, a NaN included: the
    # symbol 1e300*f1^3 overflows at f1 = 1e3, and inf times a zero
    # component of xi is NaN.
    rng = SplitMix64(4711)
    patch = BundlePatch(3, 2)
    cases = []
    for _ in range(3):
        field = sample_christoffel(rng, patch)
        cases.append(
            (
                _sampled_morphism(rng, patch),
                field,
                sample_christoffel(rng, patch),
                [sample_point(rng, 3, 2) for _ in range(4)],
            )
        )
    overflow = ChristoffelField(P21, parse_grid([["1e300*f1^3", "x1"]], P21.dims))
    phi = FiberBundleMorphism(P21, P21, parse_grid(["2*f1"], P21.dims))
    cases.append((phi, overflow, FLAT21, [EvalPoint((0.5, 0.2), (1e3,))]))
    for phi, field, field_hat, points in cases:
        m = field.patch.base_dim
        expected = []
        for p in points:
            parts = []
            for mu in range(1, m + 1):
                xi = tuple(1.0 if i == mu else 0.0 for i in range(1, m + 1))
                lift = _lifted(_symbol_values(field, p), xi)
                values, pushed = zip(
                    *(directional(c, p, [(v,) for v in xi + lift]) for c in phi.comps)
                )
                image = EvalPoint(p.x, values)
                pushed_lift = _Parts(xi, [v for v, in pushed])
                parts.extend(_projected(_symbol_values(field_hat, image), pushed_lift))
            expected.append(float(np.max(np.abs(parts))))
        residuals = is_parallel_morphism(phi, field, field_hat, points)
        assert [repr(r) for r in residuals] == [repr(r) for r in expected]
    assert math.isnan(residuals[0])


def test_parallel_morphism_evaluates_each_value_once_per_sample(monkeypatch):
    evaluations = []
    gradients = []
    sweeps = []

    def counted_evaluate(e, p):
        evaluations.append(e)
        return evaluate(e, p)

    def counted_gradient(e, p):
        gradients.append(e)
        return gradient(e, p)

    def counted_directional(e, p, tangents):
        sweeps.append(e)
        return directional(e, p, tangents)

    monkeypatch.setattr(bundle, "evaluate", counted_evaluate)
    monkeypatch.setattr(bundle, "gradient", counted_gradient)
    monkeypatch.setattr(bundle, "directional", counted_directional)
    rng = SplitMix64(919)
    m, n = 3, 2
    patch = BundlePatch(m, n)
    phi = _sampled_morphism(rng, patch)
    field = sample_christoffel(rng, patch)
    field_hat = sample_christoffel(rng, patch)
    is_parallel_morphism(phi, field, field_hat, [sample_point(rng, m, n)])
    assert len(evaluations) <= 2 * m * n
    # one sweep of each component of phi, seeded with all m lifts
    assert len(gradients) + len(sweeps) <= n


def test_morphism_requires_matching_base():
    with pytest.raises(ValueError):
        FiberBundleMorphism(P11, P21, parse_grid(["f1"], P11.dims))
